#include "traceroute/consistency.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::traceroute {

using topology::AsId;
using topology::GeoScope;
using topology::MetroId;
using topology::pair_key;

void ConsistencyTracker::ingest(const TraceObservations& obs) {
  for (const LinkObs& l : obs.links) {
    if (l.metro < 0) continue;
    const std::uint64_t key = pair_key(l.a, l.b);
    PairEvidence& ev = pair_data_[key];
    ev.direct.insert(l.metro);
    if (!ev.transit.empty()) mixed_.insert(key);
  }
  for (const TransitObs& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    const std::uint64_t key = pair_key(t.a, t.b);
    PairEvidence& ev = pair_data_[key];
    ev.transit.insert(m);
    if (!ev.direct.empty()) mixed_.insert(key);
  }
}

bool ConsistencyTracker::metros_close(MetroId a, MetroId b, GeoScope g) const {
  return mac::enum_cast<int>(net_->metro_scope(a, b)) <= mac::enum_cast<int>(g);
}

bool ConsistencyTracker::pair_inconsistent(AsId a, AsId b, GeoScope g) const {
  auto it = pair_data_.find(pair_key(a, b));
  if (it == pair_data_.end()) return false;
  const PairEvidence& ev = it->second;
  for (MetroId d : ev.direct)
    for (MetroId t : ev.transit)
      if (metros_close(d, t, g)) return true;
  return false;
}

namespace {

struct BadPair {
  int a, b;
};

/// Iteratively drops the AS involved in the most live inconsistent pairs
/// (ties: lowest universe index) until none is left; returns the survivors.
std::vector<bool> eliminate(const std::vector<BadPair>& bad, std::size_t n) {
  std::vector<bool> alive(n, true);
  std::vector<int> count(n, 0);
  for (const BadPair& p : bad) {
    ++count[mac::checked_cast<std::size_t>(p.a)];
    ++count[mac::checked_cast<std::size_t>(p.b)];
  }
  while (true) {
    int worst = -1, worst_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      if (count[i] > worst_count) {
        worst_count = count[i];
        worst = mac::checked_cast<int>(i);
      }
    }
    if (worst < 0 || worst_count == 0) break;
    alive[mac::checked_cast<std::size_t>(worst)] = false;
    for (const BadPair& p : bad) {
      if (p.a == worst && alive[mac::checked_cast<std::size_t>(p.b)])
        --count[mac::checked_cast<std::size_t>(p.b)];
      if (p.b == worst && alive[mac::checked_cast<std::size_t>(p.a)])
        --count[mac::checked_cast<std::size_t>(p.a)];
    }
    count[mac::checked_cast<std::size_t>(worst)] = 0;
  }
  return alive;
}

}  // namespace

ConsistencyTracker::ConsistentSets ConsistencyTracker::consistent_sets(
    const std::vector<AsId>& universe) const {
  // Universe index per AS id of the world, -1 when absent.  Pair keys are
  // read unsigned, so an AS outside the world never indexes the table.
  std::vector<int> pos(net_->num_ases(), -1);
  for (std::size_t i = 0; i < universe.size(); ++i)
    if (universe[i] >= 0 &&
        mac::checked_cast<std::size_t>(universe[i]) < pos.size())
      pos[mac::checked_cast<std::size_t>(universe[i])] = mac::checked_cast<int>(i);
  auto position = [&pos](std::uint64_t id) {
    return id < pos.size() ? pos[mac::checked_cast<std::size_t>(id)] : -1;
  };

  // A mixed pair is inconsistent at every granularity at least as coarse
  // as the closest (direct, transit) metro pair it holds.  mixed_ is
  // ordered, so the pairs come in ascending key order.
  struct Mixed {
    BadPair pair;
    GeoScope finest;
  };
  std::vector<Mixed> mixed;
  for (std::uint64_t key : mixed_) {
    const int a = position(key & 0xffffffffULL), b = position(key >> 32);
    if (a < 0 || b < 0) continue;
    const PairEvidence& ev = pair_data_.at(key);
    GeoScope finest = GeoScope::kElsewhere;
    for (MetroId d : ev.direct)
      for (MetroId t : ev.transit)
        finest = std::min(finest, net_->metro_scope(d, t));
    mixed.push_back({{a, b}, finest});
  }

  ConsistentSets sets;
  std::vector<BadPair> bad;
  for (std::size_t g = 0; g < sets.size(); ++g) {
    bad.clear();
    for (const Mixed& m : mixed)
      if (mac::enum_cast<std::size_t>(m.finest) <= g) bad.push_back(m.pair);
    sets[g] = eliminate(bad, universe.size());
  }
  return sets;
}

void WellPositionedTracker::ingest(const TraceResult& trace) {
  VpRecord& vp = vps_[trace.vp_id];
  ++vp.issued;
  for (const Hop& h : trace.hops) {
    if (!h.responsive || h.observed_ingress < 0) continue;
    vp.traversed.insert(key(h.as, h.observed_ingress));
  }
  // The probe's own AS at its own metro counts as traversed.
  if (!trace.hops.empty())
    vp.traversed.insert(key(trace.src_as, trace.src_metro));
}

bool WellPositionedTracker::well_positioned(int vp_id, AsId i, MetroId m) const {
  auto it = vps_.find(vp_id);
  if (it == vps_.end() || it->second.issued == 0) return true;  // never issued
  return it->second.traversed.count(key(i, m)) != 0;
}

std::size_t WellPositionedTracker::issued_by(int vp_id) const {
  auto it = vps_.find(vp_id);
  return it == vps_.end() ? 0 : it->second.issued;
}

bool ConsistencyTracker::metros_below(std::size_t count) const {
  return traceroute::metros_below(pair_data_, count);
}

template <class Self, class Ar>
void ConsistencyTracker::io(Self& s, Ar& ar) {
  ar(s.pair_data_);
}

void ConsistencyTracker::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void ConsistencyTracker::load(util::checkpoint::Decoder& dec) {
  mixed_.clear();
  io(*this, dec);
  for (const auto& [key, ev] : pair_data_)  // lint: allow(unordered-iter) -- rebuilds the derived mixed set after load; std::set orders it
    if (!ev.direct.empty() && !ev.transit.empty()) mixed_.insert(key);
}

template <class Self, class Ar>
void WellPositionedTracker::io(Self& s, Ar& ar) {
  ar(s.vps_);
}

void WellPositionedTracker::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void WellPositionedTracker::load(util::checkpoint::Decoder& dec) {
  io(*this, dec);
}

}  // namespace metas::traceroute
