// Gao-Rexford route computation.
//
// Implements the standard export/selection model [58] the paper assumes for
// its hijack and flattening analyses:
//   export: customer routes go to everyone; peer/provider routes go only to
//           customers;
//   select: prefer routes learned from customers over peers over providers,
//           then shortest AS path, then lowest next-hop id (determinism).
//
// Routes to one destination for *all* sources are computed in a single
// three-phase pass (customer BFS up the c2p hierarchy, one peer hop, then a
// shortest-first relaxation down to customers from per-length buckets), and
// cached per destination for the engine's lifetime.
#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "bgp/as_graph.hpp"
#include "util/numeric.hpp"

namespace metas::bgp {

/// Route class in decreasing preference order.
enum class RouteKind : std::uint8_t { kCustomer, kPeer, kProvider, kNone };

constexpr int kNoRoute = std::numeric_limits<int>::max();

/// Per-source best route toward one destination.
struct RoutingTable {
  AsId dst = topology::kInvalidAs;
  std::vector<RouteKind> kind;   // best route class per source AS
  std::vector<int> length;       // AS hops on the best path (kNoRoute if none)
  std::vector<AsId> next_hop;    // deterministic best next hop toward dst

  bool reachable(AsId src) const {
    return kind[mac::checked_cast<std::size_t>(src)] != RouteKind::kNone;
  }
};

/// Returns true iff route (ka, la) is strictly preferred over (kb, lb).
bool route_preferred(RouteKind ka, int la, RouteKind kb, int lb);

/// Computes and caches per-destination routing tables over a fixed graph.
class RoutingEngine {
 public:
  explicit RoutingEngine(const AsGraph& graph) : graph_(&graph) {}

  /// Routing table toward `dst` (computed on first use, then cached).
  const RoutingTable& table(AsId dst);

  /// Best AS path src -> dst (inclusive of both ends); empty if unreachable.
  std::vector<AsId> path(AsId src, AsId dst);

  const AsGraph& graph() const { return *graph_; }
  /// Tables computed so far.  None is evicted: a full cache holds n tables
  /// of n entries at 9 bytes each.
  std::size_t cached_tables() const { return cache_.size(); }

 private:
  RoutingTable compute(AsId dst) const;
  const AsGraph* graph_;  // lint: allow(view-member) -- the Internet owns the graph; routing engines never outlive their topology
  std::unordered_map<AsId, RoutingTable> cache_;
};

}  // namespace metas::bgp
