#include "bgp/routing.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::bgp {

namespace {

// Classifies the directed edge u -> v: +1 customer->provider (uphill),
// -1 provider->customer (downhill), 0 peer, INT_MIN no edge.
[[maybe_unused]] int edge_direction(const AsGraph& g, AsId u, AsId v) {
  const auto& provs = g.providers(u);
  if (std::find(provs.begin(), provs.end(), v) != provs.end()) return 1;
  const auto& custs = g.customers(u);
  if (std::find(custs.begin(), custs.end(), v) != custs.end()) return -1;
  const auto& prs = g.peers(u);
  if (std::find(prs.begin(), prs.end(), v) != prs.end()) return 0;
  return std::numeric_limits<int>::min();
}

// Gao-Rexford validity: a path is uphill (c2p) edges, at most one peer
// edge, then downhill (p2c) edges -- no valleys, no double peering.
[[maybe_unused]] bool is_valley_free(const AsGraph& g,
                                     const std::vector<AsId>& path) {
  // 0 = climbing, 1 = after the peer edge, 2 = descending.
  int stage = 0;
  for (std::size_t k = 1; k < path.size(); ++k) {
    int dir = edge_direction(g, path[k - 1], path[k]);
    if (dir == std::numeric_limits<int>::min()) return false;
    if (dir == 1) {
      if (stage != 0) return false;  // uphill after peer/downhill: a valley
    } else if (dir == 0) {
      if (stage != 0) return false;  // second peer edge or peer after descent
      stage = 1;
    } else {
      stage = 2;
    }
  }
  return true;
}

}  // namespace

bool route_preferred(RouteKind ka, int la, RouteKind kb, int lb) {
  if (ka == RouteKind::kNone) return false;
  if (kb == RouteKind::kNone) return true;
  if (ka != kb) return mac::enum_cast<int>(ka) < mac::enum_cast<int>(kb);
  return la < lb;
}

const RoutingTable& RoutingEngine::table(AsId dst) {
  auto it = cache_.find(dst);
  if (it != cache_.end()) {
    MAC_COUNT("bgp.table_cache_hits");
    return it->second;
  }
  MAC_COUNT("bgp.tables_computed");
  MAC_SPAN("bgp.compute_table");
  auto [ins, ok] = cache_.emplace(dst, compute(dst));
  return ins->second;
}

RoutingTable RoutingEngine::compute(AsId dst) const {
  const AsGraph& g = *graph_;
  const std::size_t n = g.size();
  if (dst < 0 || mac::checked_cast<std::size_t>(dst) >= n)
    throw std::out_of_range("RoutingEngine::compute: bad destination");
  auto at = [](AsId a) { return mac::checked_cast<std::size_t>(a); };

  RoutingTable t;
  t.dst = dst;
  t.kind.assign(n, RouteKind::kNone);
  t.length.assign(n, kNoRoute);
  t.next_hop.assign(n, topology::kInvalidAs);
  // Each phase offers (length, exporter) candidates and keeps the shortest,
  // then the lowest exporter id: a minimum no visit order can change.
  auto offer = [&t](std::size_t u, RouteKind kind, int len, AsId from) {
    if (len < t.length[u] || (len == t.length[u] && from < t.next_hop[u])) {
      t.kind[u] = kind;
      t.length[u] = len;
      t.next_hop[u] = from;
    }
  };

  // --- Phase 1: customer routes (BFS up customer->provider edges). ---
  // `reached` collects every AS holding one, dst first, level by level.
  t.kind[at(dst)] = RouteKind::kCustomer;
  t.length[at(dst)] = 0;
  t.next_hop[at(dst)] = dst;
  std::vector<AsId> reached{dst};
  std::size_t propagation_passes = 0;
  for (std::size_t begin = 0; begin < reached.size(); ++propagation_passes) {
    const std::size_t end = reached.size();
    for (std::size_t k = begin; k < end; ++k) {
      const AsId u = reached[k];
      const int len = t.length[at(u)] + 1;
      for (AsId p : g.providers(u)) {
        if (t.kind[at(p)] == RouteKind::kNone) reached.push_back(p);
        offer(at(p), RouteKind::kCustomer, len, u);
      }
    }
    begin = end;
  }
  // BFS levels of the customer-route flood: the per-table propagation depth.
  MAC_COUNT_N("bgp.propagation_passes", propagation_passes);

  // --- Phase 2: peer routes (one peer hop off a customer route). ---
  // Only a customer route is exported to peers, so only `reached` offers.
  for (AsId v : reached) {
    const int len = t.length[at(v)] + 1;
    for (AsId u : g.peers(v))
      if (t.kind[at(u)] != RouteKind::kCustomer)
        offer(at(u), RouteKind::kPeer, len, v);
  }

  // --- Phase 3: provider routes (shortest-first down provider->customer). ---
  // An AS exports its selected route to its customers at one hop more.
  // Customer and peer routes are final; ASes holding one seed the bucket of
  // their length.  Buckets run in increasing length, so an AS's first offer
  // is its shortest and it joins exactly one bucket, like phase 1's levels.
  std::vector<std::vector<AsId>> bucket;
  auto enqueue = [&bucket](int len, AsId u) {
    const auto b = mac::checked_cast<std::size_t>(len);
    if (bucket.size() <= b) bucket.resize(b + 1);
    bucket[b].push_back(u);
  };
  for (std::size_t u = 0; u < n; ++u)
    if (t.kind[u] != RouteKind::kNone)
      enqueue(t.length[u], mac::checked_cast<AsId>(u));
  for (std::size_t b = 0; b < bucket.size(); ++b) {
    const std::vector<AsId> level = std::move(bucket[b]);
    const int len = mac::checked_cast<int>(b) + 1;
    for (AsId u : level) {
      for (AsId w : g.customers(u)) {
        const RouteKind k = t.kind[at(w)];
        if (k == RouteKind::kCustomer || k == RouteKind::kPeer) continue;
        if (k == RouteKind::kNone) enqueue(len, w);
        offer(at(w), RouteKind::kProvider, len, u);
      }
    }
  }

  for (std::size_t u = 0; u < n; ++u)
    MAC_ENSURE(t.kind[u] == RouteKind::kNone ||
                   t.next_hop[u] != topology::kInvalidAs,
               "routed AS without next hop: u=", u);
  MAC_ENSURE(t.length[at(dst)] == 0,
             "dst=", dst, " self-length=", t.length[at(dst)]);
  return t;
}

std::vector<AsId> RoutingEngine::path(AsId src, AsId dst) {
  const RoutingTable& t = table(dst);
  MAC_COUNT("bgp.paths_resolved");
  std::vector<AsId> p;
  if (!t.reachable(src)) return p;
  AsId cur = src;
  p.push_back(cur);
  std::size_t guard = graph_->size() + 1;
  while (cur != dst) {
    if (p.size() > guard)
      throw std::logic_error("RoutingEngine::path: next-hop loop");
    cur = t.next_hop[mac::checked_cast<std::size_t>(cur)];
    p.push_back(cur);
  }
  MAC_ENSURE(mac::checked_cast<std::size_t>(t.length[mac::checked_cast<std::size_t>(src)]) + 1 ==
                 p.size(),
             "table length=", t.length[mac::checked_cast<std::size_t>(src)],
             " path hops=", p.size());
  MAC_ENSURE(is_valley_free(*graph_, p), "src=", src, " dst=", dst,
             " hops=", p.size());
  return p;
}

}  // namespace metas::bgp
