// Gao-Rexford routing tests on hand-built graphs, plus a fixpoint reference
// diffed against every table of random and generated graphs.
#include "bgp/routing.hpp"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "eval/world.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace metas::bgp {
namespace {

using topology::AsId;

TEST(AsGraph, EdgeBookkeeping) {
  AsGraph g(4);
  g.add_c2p(1, 0);
  g.add_peer(2, 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 2u);
  // Idempotent adds.
  g.add_c2p(1, 0);
  g.add_peer(3, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.providers(1).size(), 1u);
  EXPECT_EQ(g.peers(2).size(), 1u);
  EXPECT_THROW(g.add_peer(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_c2p(5, 0), std::out_of_range);
}

TEST(RoutePreferred, PreferenceOrder) {
  EXPECT_TRUE(route_preferred(RouteKind::kCustomer, 5, RouteKind::kPeer, 1));
  EXPECT_TRUE(route_preferred(RouteKind::kPeer, 5, RouteKind::kProvider, 1));
  EXPECT_TRUE(route_preferred(RouteKind::kPeer, 2, RouteKind::kPeer, 3));
  EXPECT_FALSE(route_preferred(RouteKind::kPeer, 3, RouteKind::kPeer, 3));
  EXPECT_TRUE(route_preferred(RouteKind::kProvider, 9, RouteKind::kNone, 0));
  EXPECT_FALSE(route_preferred(RouteKind::kNone, 0, RouteKind::kProvider, 9));
}

// Chain: 0 is provider of 1, 1 provider of 2. Routes to 2.
TEST(Routing, CustomerAndProviderRoutes) {
  AsGraph g(3);
  g.add_c2p(1, 0);
  g.add_c2p(2, 1);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(2);
  // 1 and 0 learn via customers.
  EXPECT_EQ(t.kind[1], RouteKind::kCustomer);
  EXPECT_EQ(t.length[1], 1);
  EXPECT_EQ(t.kind[0], RouteKind::kCustomer);
  EXPECT_EQ(t.length[0], 2);
  // Routes toward 0 from 2 go up through providers.
  const RoutingTable& t0 = eng.table(0);
  EXPECT_EQ(t0.kind[2], RouteKind::kProvider);
  EXPECT_EQ(t0.length[2], 2);
  EXPECT_EQ(eng.path(2, 0), (std::vector<AsId>{2, 1, 0}));
}

// Peer routes take exactly one peer hop and only off customer routes.
TEST(Routing, PeerRouteSingleHop) {
  // 0 -- 1 peers; 2 customer of 1; 3 customer of 0.
  AsGraph g(4);
  g.add_peer(0, 1);
  g.add_c2p(2, 1);
  g.add_c2p(3, 0);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(2);
  // 0 reaches 2 via its peer 1 (peer route, length 2).
  EXPECT_EQ(t.kind[0], RouteKind::kPeer);
  EXPECT_EQ(t.length[0], 2);
  // 3 reaches 2 via its provider 0 (provider route through the peer link).
  EXPECT_EQ(t.kind[3], RouteKind::kProvider);
  EXPECT_EQ(t.length[3], 3);
  EXPECT_EQ(eng.path(3, 2), (std::vector<AsId>{3, 0, 1, 2}));
}

// Valley-free: no route may traverse peer -> peer.
TEST(Routing, NoPeerPeerValley) {
  // 0 -- 1 -- 2 all peers in a line, no c2p at all.
  AsGraph g(3);
  g.add_peer(0, 1);
  g.add_peer(1, 2);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(2);
  EXPECT_EQ(t.kind[1], RouteKind::kPeer);  // direct peer: fine
  EXPECT_EQ(t.kind[0], RouteKind::kNone);  // would need two peer hops
  EXPECT_TRUE(eng.path(0, 2).empty());
}

// Customer routes are preferred even when longer.
TEST(Routing, CustomerPreferredOverShorterPeer) {
  // dst 3. AS 0 has a direct peer link to 3 (length 1) and a customer chain
  // 0 <- 1 <- 3 does not exist... build: 1 customer of 0, 3 customer of 1.
  AsGraph g(4);
  g.add_c2p(1, 0);
  g.add_c2p(3, 1);
  g.add_peer(0, 3);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(3);
  EXPECT_EQ(t.kind[0], RouteKind::kCustomer);
  EXPECT_EQ(t.length[0], 2);  // longer than the 1-hop peer route
  EXPECT_EQ(eng.path(0, 3), (std::vector<AsId>{0, 1, 3}));
}

// Among equal-preference routes, shortest path wins; ties break to lowest id.
TEST(Routing, ShortestThenLowestIdTieBreak) {
  // dst 4; providers 1 and 2 both provide to 4's provider... simpler:
  // 4 customer of both 1 and 2; 0 provider of 1 and 2; route 0 -> 4.
  AsGraph g(5);
  g.add_c2p(4, 1);
  g.add_c2p(4, 2);
  g.add_c2p(1, 0);
  g.add_c2p(2, 0);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(4);
  EXPECT_EQ(t.kind[0], RouteKind::kCustomer);
  EXPECT_EQ(t.length[0], 2);
  EXPECT_EQ(t.next_hop[0], 1);  // 1 < 2
}

TEST(Routing, UnreachableIsolated) {
  AsGraph g(3);
  g.add_c2p(1, 0);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(2);
  EXPECT_EQ(t.kind[0], RouteKind::kNone);
  EXPECT_FALSE(t.reachable(0));
  EXPECT_TRUE(eng.path(0, 2).empty());
  EXPECT_THROW(eng.table(7), std::out_of_range);
}

TEST(Routing, SelfRoute) {
  AsGraph g(2);
  g.add_c2p(1, 0);
  RoutingEngine eng(g);
  const RoutingTable& t = eng.table(1);
  EXPECT_EQ(t.length[1], 0);
  EXPECT_EQ(eng.path(1, 1), (std::vector<AsId>{1}));
}

TEST(Routing, CacheIsReused) {
  AsGraph g(2);
  g.add_c2p(1, 0);
  RoutingEngine eng(g);
  eng.table(0);
  eng.table(0);
  EXPECT_EQ(eng.cached_tables(), 1u);
}

// Provider routes chain down through multiple levels.
TEST(Routing, MultiLevelProviderDescent) {
  // Hierarchy: 0 top; 1,2 mid (customers of 0); 3 customer of 1; 4 customer
  // of 2. Route 3 -> 4 must go up via 1 to 0 then down via 2.
  AsGraph g(5);
  g.add_c2p(1, 0);
  g.add_c2p(2, 0);
  g.add_c2p(3, 1);
  g.add_c2p(4, 2);
  RoutingEngine eng(g);
  EXPECT_EQ(eng.path(3, 4), (std::vector<AsId>{3, 1, 0, 2, 4}));
  const RoutingTable& t = eng.table(4);
  EXPECT_EQ(t.kind[3], RouteKind::kProvider);
  EXPECT_EQ(t.length[3], 4);
}

// --- Fixpoint reference --------------------------------------------------
// The relationship-constrained path model of Dimitropoulos et al., computed
// the slow way: every AS repeatedly re-selects from the routes its
// neighbours export until no selection changes.  Customer routes (and the
// destination's own) go to everyone; peer and provider routes go only to
// customers.  Preference: customer > peer > provider, then shortest length,
// then lowest next-hop id.  It shares nothing with RoutingEngine but the
// graph's adjacency, and it reads that in no particular order.

struct RefRoute {
  RouteKind kind = RouteKind::kNone;
  int length = kNoRoute;
  AsId next_hop = topology::kInvalidAs;
  bool operator==(const RefRoute&) const = default;
};

bool ref_preferred(const RefRoute& a, const RefRoute& b) {
  if (a.kind != b.kind)
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  if (a.length != b.length) return a.length < b.length;
  return a.next_hop < b.next_hop;
}

std::vector<RefRoute> fixpoint_routes(const AsGraph& g, AsId dst) {
  const std::size_t n = g.size();
  std::vector<RefRoute> sel(n);
  sel[static_cast<std::size_t>(dst)] = {RouteKind::kCustomer, 0, dst};
  // Selections settle within a few passes of the hierarchy's depth.
  for (std::size_t round = 0; round <= 4 * n + 4; ++round) {
    std::vector<RefRoute> next = sel;
    for (std::size_t u = 0; u < n; ++u) {
      if (static_cast<AsId>(u) == dst) continue;
      RefRoute best;
      auto learn = [&](AsId v, RouteKind as, bool exported) {
        const RefRoute& r = sel[static_cast<std::size_t>(v)];
        if (r.kind == RouteKind::kNone || !exported) return;
        RefRoute cand{as, r.length + 1, v};
        if (ref_preferred(cand, best)) best = cand;
      };
      const AsId a = static_cast<AsId>(u);
      for (AsId v : g.customers(a))
        learn(v, RouteKind::kCustomer,
              sel[static_cast<std::size_t>(v)].kind == RouteKind::kCustomer);
      for (AsId v : g.peers(a))
        learn(v, RouteKind::kPeer,
              sel[static_cast<std::size_t>(v)].kind == RouteKind::kCustomer);
      for (AsId v : g.providers(a)) learn(v, RouteKind::kProvider, true);
      next[u] = best;
    }
    if (next == sel) return sel;
    sel = std::move(next);
  }
  ADD_FAILURE() << "no fixpoint toward dst " << dst;
  return sel;
}

bool has_provider(const AsGraph& g, AsId customer, AsId provider) {
  const auto& p = g.providers(customer);
  return std::find(p.begin(), p.end(), provider) != p.end();
}

// Gao-Rexford validity: uphill (c2p) edges, at most one peer edge, then
// downhill (p2c) edges.
bool valley_free(const AsGraph& g, const std::vector<AsId>& path) {
  bool descending = false;  // after a peer or a downhill edge
  for (std::size_t k = 1; k < path.size(); ++k) {
    const AsId a = path[k - 1], b = path[k];
    if (!g.has_edge(a, b)) return false;
    if (has_provider(g, a, b)) {
      if (descending) return false;
    } else if (has_provider(g, b, a)) {
      descending = true;
    } else {
      if (descending) return false;  // a second peer edge, or one after descent
      descending = true;
    }
  }
  return true;
}

/// Diffs every entry of every table against the reference and checks every
/// path; returns the number of (source, destination) pairs compared.
std::size_t expect_matches_fixpoint(const AsGraph& g, const std::string& what) {
  RoutingEngine eng(g);
  const auto n = static_cast<AsId>(g.size());
  std::size_t compared = 0, mismatches = 0;
  for (AsId dst = 0; dst < n; ++dst) {
    const std::vector<RefRoute> ref = fixpoint_routes(g, dst);
    const RoutingTable& t = eng.table(dst);
    for (AsId src = 0; src < n; ++src) {
      const auto s = static_cast<std::size_t>(src);
      const RefRoute got{t.kind[s], t.length[s], t.next_hop[s]};
      ++compared;
      if (got != ref[s] && ++mismatches <= 5)
        ADD_FAILURE() << what << ": src " << src << " dst " << dst
                      << " engine (" << static_cast<int>(got.kind) << ", "
                      << got.length << ", " << got.next_hop << ") reference ("
                      << static_cast<int>(ref[s].kind) << ", " << ref[s].length
                      << ", " << ref[s].next_hop << ")";
      const std::vector<AsId> p = eng.path(src, dst);
      if (!t.reachable(src)) {
        EXPECT_TRUE(p.empty()) << what;
        continue;
      }
      EXPECT_EQ(p.size(), static_cast<std::size_t>(t.length[s]) + 1) << what;
      EXPECT_TRUE(!p.empty() && p.front() == src && p.back() == dst) << what;
      EXPECT_TRUE(valley_free(g, p))
          << what << ": src " << src << " dst " << dst;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  return compared;
}

// Random graphs of 2-12 ASes: c2p edges point from a random rank order's
// later AS to an earlier one (so the hierarchy is acyclic), peers fill
// further pairs, and edges arrive in random order so adjacency order varies.
TEST(RoutingReference, RandomGraphsMatchFixpoint) {
  util::Rng rng(20241017);
  std::size_t compared = 0;
  for (int graph = 0; graph < 2500; ++graph) {
    const std::size_t n = 2 + rng.index(11);
    const double c2p = rng.uniform(0.1, 0.7);
    const double peer = rng.uniform(0.0, 0.5);
    std::vector<std::size_t> rank = rng.sample_indices(n, n);
    std::vector<std::pair<AsId, AsId>> pairs;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b)
        pairs.emplace_back(static_cast<AsId>(a), static_cast<AsId>(b));
    rng.shuffle(pairs);
    AsGraph g(n);
    for (auto [a, b] : pairs) {
      const double roll = rng.uniform();
      if (roll < c2p) {
        // The AS later in the rank order is the customer.
        if (rank[static_cast<std::size_t>(a)] > rank[static_cast<std::size_t>(b)])
          g.add_c2p(a, b);
        else
          g.add_c2p(b, a);
      } else if (roll < c2p + peer) {
        g.add_peer(a, b);
      }
    }
    compared += expect_matches_fixpoint(g, "graph " + std::to_string(graph));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(compared, 100000u);
}

TEST(RoutingReference, GeneratedSmallWorldMatchesFixpoint) {
  const topology::Internet net =
      topology::generate_internet(eval::small_world_config(42).gen);
  const AsGraph g = AsGraph::from_internet(net);
  EXPECT_EQ(expect_matches_fixpoint(g, "small seed 42"),
            net.num_ases() * net.num_ases());
}

}  // namespace
}  // namespace metas::bgp
