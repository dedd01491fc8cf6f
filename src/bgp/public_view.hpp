// The public BGP view: which links are visible from a set of collector ASes.
//
// A collector observes the best paths its host AS selects toward every
// destination; a link is publicly visible iff it lies on one of those paths.
// Because peer routes are only exported to customers, peering links are
// visible only from collectors at or below the peers -- the visibility bias
// ([118], §1) that leaves most of the topology hidden and motivates
// metAScritic.
#pragma once

#include <unordered_set>
#include <vector>

#include "bgp/routing.hpp"
#include "util/rng.hpp"

namespace metas::bgp {

/// Set of AS-level links (unordered pairs).
class LinkSet {
 public:
  void add(AsId a, AsId b) { links_.insert(topology::pair_key(a, b)); }
  bool contains(AsId a, AsId b) const {
    return links_.count(topology::pair_key(a, b)) != 0;
  }
  std::size_t size() const { return links_.size(); }
  const std::unordered_set<std::uint64_t>& raw() const { return links_; }

 private:
  std::unordered_set<std::uint64_t> links_;
};

/// Computes the links visible from `collector` ASes over the engine's graph.
/// Walks the best path from every collector to every destination AS, so it
/// reads (and, where missing, computes and keeps) every routing table.
LinkSet compute_public_view(RoutingEngine& engine,
                            const std::vector<AsId>& collectors);

/// Places BGP collectors: every Tier-1 hosts one with prob `tier1_prob`, and
/// other ASes host one with a class- and continent-dependent probability,
/// reproducing the real concentration of route collectors in well-connected
/// networks and regions (continents 0..1 modelled as well covered).
std::vector<AsId> place_collectors(const topology::Internet& net,
                                   util::Rng& rng,
                                   double coverage_scale = 1.0);

}  // namespace metas::bgp
