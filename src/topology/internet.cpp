#include "topology/internet.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "util/numeric.hpp"

namespace metas::topology {

std::string to_string(AsClass c) {
  switch (c) {
    case AsClass::kTier1: return "Tier1";
    case AsClass::kTier2: return "Tier2";
    case AsClass::kHypergiant: return "Hypergiant";
    case AsClass::kLargeIsp: return "LargeISP";
    case AsClass::kContent: return "Content";
    case AsClass::kEnterprise: return "Enterprise";
    case AsClass::kTransit: return "Transit";
    case AsClass::kStub: return "Stub";
  }
  return "?";
}

std::string to_string(PeeringPolicy p) {
  switch (p) {
    case PeeringPolicy::kOpen: return "Open";
    case PeeringPolicy::kSelective: return "Selective";
    case PeeringPolicy::kRestrictive: return "Restrictive";
    case PeeringPolicy::kNone: return "None";
  }
  return "?";
}

std::string to_string(TrafficProfile t) {
  switch (t) {
    case TrafficProfile::kHeavyInbound: return "HeavyInbound";
    case TrafficProfile::kMostlyInbound: return "MostlyInbound";
    case TrafficProfile::kBalanced: return "Balanced";
    case TrafficProfile::kMostlyOutbound: return "MostlyOutbound";
    case TrafficProfile::kHeavyOutbound: return "HeavyOutbound";
  }
  return "?";
}

std::string to_string(GeoScope g) {
  switch (g) {
    case GeoScope::kSameMetro: return "SameMetro";
    case GeoScope::kSameCountry: return "SameCountry";
    case GeoScope::kSameContinent: return "SameContinent";
    case GeoScope::kElsewhere: return "Elsewhere";
  }
  return "?";
}

GeoScope geo_scope(int country_a, int continent_a, int country_b,
                   int continent_b) {
  if (country_a == country_b) return GeoScope::kSameCountry;
  if (continent_a == continent_b) return GeoScope::kSameContinent;
  return GeoScope::kElsewhere;
}

bool LinkInfo::present_at(MetroId m) const {
  return std::binary_search(metros.begin(), metros.end(), m);
}

MetroTruth::MetroTruth(MetroId metro, std::vector<AsId> ases)
    : metro_(metro), ases_(std::move(ases)) {
  index_.reserve(ases_.size());
  for (std::size_t i = 0; i < ases_.size(); ++i)
    index_[ases_[i]] = mac::checked_cast<int>(i);
  // Referential integrity: the local index must be a bijection, so the metro
  // AS list cannot contain duplicates.
  MAC_ENSURE(index_.size() == ases_.size(), "metro=", metro_,
             " ases=", ases_.size(), " unique=", index_.size());
  cells_.assign(ases_.size() * ases_.size(), 0);
}

int MetroTruth::local_index(AsId as) const {
  auto it = index_.find(as);
  return it == index_.end() ? -1 : it->second;
}

void MetroTruth::set_link(std::size_t i, std::size_t j, bool v) {
  if (i >= ases_.size() || j >= ases_.size())
    throw std::out_of_range("MetroTruth::set_link");
  MAC_REQUIRE(i != j, "self-link at local index ", i, " metro=", metro_);
  cells_[i * ases_.size() + j] = v ? 1 : 0;
  cells_[j * ases_.size() + i] = v ? 1 : 0;
  // The peering matrix is symmetric by construction; both cells must agree.
  MAC_ENSURE(link(i, j) == link(j, i), "asymmetry at (", i, ",", j, ")");
}

std::size_t MetroTruth::link_count() const {
  std::size_t c = 0;
  for (std::size_t i = 0; i < ases_.size(); ++i)
    for (std::size_t j = i + 1; j < ases_.size(); ++j)
      if (link(i, j)) ++c;
  return c;
}

const LinkInfo* Internet::find_link(AsId a, AsId b) const {
  auto it = link_map.find(pair_key(a, b));
  return it == link_map.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> Internet::sorted_link_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(link_map.size());
  for (const auto& [key, li] : link_map)  // lint: allow(unordered-iter) -- key harvest only; sorted below before any consumer sees it
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool Internet::linked_at(AsId a, AsId b, MetroId m) const {
  const LinkInfo* l = find_link(a, b);
  return l != nullptr && l->present_at(m);
}

bool Internet::in_cone(AsId owner, AsId member) const {
  const auto& cone = cones[mac::checked_cast<std::size_t>(owner)];
  return std::binary_search(cone.begin(), cone.end(), member);
}

GeoScope Internet::metro_scope(MetroId a, MetroId b) const {
  if (a == b) return GeoScope::kSameMetro;
  const Metro& ma = metros[mac::checked_cast<std::size_t>(a)];
  const Metro& mb = metros[mac::checked_cast<std::size_t>(b)];
  return geo_scope(ma.country, ma.continent, mb.country, mb.continent);
}

void Internet::finalize_derived_state() {
  cones = compute_customer_cones(customers);
  for (auto& node : ases) {
    // Cones include the AS itself; an empty cone means the DAG walk lost it.
    MAC_ENSURE(in_cone(node.id, node.id), "as=", node.id);
    node.features.customer_cone =
        static_cast<double>(cones[mac::checked_cast<std::size_t>(node.id)].size());
    node.features.footprint_size = mac::checked_cast<int>(node.footprint.size());
  }
#if METASCRITIC_CONTRACTS
  // Metro referential integrity: every AS listed at a metro must carry that
  // metro in its footprint, and vice versa the footprint must be a real metro.
  for (const Metro& m : metros)
    for (AsId a : m.ases)
      MAC_ENSURE(a >= 0 && mac::checked_cast<std::size_t>(a) < ases.size(),
                 "metro=", m.id, " as=", a);
  for (const AsNode& node : ases)
    for (MetroId fm : node.footprint)
      MAC_ENSURE(fm >= 0 && mac::checked_cast<std::size_t>(fm) < metros.size(),
                 "as=", node.id, " footprint metro=", fm);
#endif
}

std::vector<std::vector<AsId>> compute_customer_cones(
    const std::vector<std::vector<AsId>>& customers) {
  const std::size_t n = customers.size();
  std::vector<std::vector<AsId>> cones(n);
  std::vector<int> state(n, 0);  // 0 = unvisited, 1 = in progress, 2 = done

  // Explicit captures (R15): the recursion handle plus the three tables,
  // all of which outlive the DFS because `visit` never escapes this frame.
  std::function<void(std::size_t)> visit =
      [&visit, &customers, &state, &cones](std::size_t i) {
    if (state[i] == 2) return;
    if (state[i] == 1)
      throw std::logic_error("compute_customer_cones: cycle in c2p graph");
    state[i] = 1;
    std::vector<AsId> cone{mac::checked_cast<AsId>(i)};
    for (AsId c : customers[i]) {
      auto ci = mac::checked_cast<std::size_t>(c);
      visit(ci);
      cone.insert(cone.end(), cones[ci].begin(), cones[ci].end());
    }
    std::sort(cone.begin(), cone.end());
    cone.erase(std::unique(cone.begin(), cone.end()), cone.end());
    cones[i] = std::move(cone);
    state[i] = 2;
  };
  for (std::size_t i = 0; i < n; ++i) visit(i);
  return cones;
}

}  // namespace metas::topology
