#include "bgp/public_view.hpp"

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace metas::bgp {

LinkSet compute_public_view(RoutingEngine& engine,
                            const std::vector<AsId>& collectors) {
  LinkSet visible;
  const std::size_t n = engine.graph().size();
  for (AsId dst = 0; dst < mac::checked_cast<AsId>(n); ++dst) {
    const RoutingTable& t = engine.table(dst);
    for (AsId c : collectors) {
      if (!t.reachable(c)) continue;
      AsId cur = c;
      while (cur != dst) {
        AsId nh = t.next_hop[mac::checked_cast<std::size_t>(cur)];
        // Export-policy consistency: a selected route's next hop must itself
        // hold a route to the destination (otherwise the walk would derail).
        MAC_ASSERT(nh != topology::kInvalidAs && t.reachable(nh),
                   "cur=", cur, " nh=", nh, " dst=", dst);
        visible.add(cur, nh);
        cur = nh;
      }
    }
  }
  return visible;
}

std::vector<AsId> place_collectors(const topology::Internet& net,
                                   util::Rng& rng,
                                   double coverage_scale) {
  using topology::AsClass;
  std::vector<AsId> out;
  for (const auto& node : net.ases) {
    double p = 0.0;
    switch (node.cls) {
      case AsClass::kTier1: p = 0.85; break;
      case AsClass::kTier2: p = 0.35; break;
      case AsClass::kTransit: p = 0.12; break;
      case AsClass::kLargeIsp: p = 0.10; break;
      case AsClass::kHypergiant: p = 0.15; break;
      case AsClass::kContent: p = 0.04; break;
      case AsClass::kEnterprise: p = 0.02; break;
      case AsClass::kStub: p = 0.015; break;
    }
    // Collector density is skewed toward the first two continents
    // (Europe/North-America analogue in the generator).
    if (node.home_continent >= 2) p *= 0.4;
    MAC_ASSERT(p >= 0.0 && p <= 1.0, "p=", p, " as=", node.id);
    if (rng.bernoulli(p * coverage_scale)) out.push_back(node.id);
  }
  return out;
}

}  // namespace metas::bgp
