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
    pair_data_[pair_key(l.a, l.b)].direct.insert(l.metro);
  }
  for (const TransitObs& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    pair_data_[pair_key(t.a, t.b)].transit.insert(m);
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

std::vector<bool> ConsistencyTracker::consistent_set(
    GeoScope g, const std::vector<AsId>& universe) const {
  // Collect inconsistent pairs restricted to the universe.
  std::unordered_map<AsId, int> pos;
  for (std::size_t i = 0; i < universe.size(); ++i)
    pos[universe[i]] = mac::checked_cast<int>(i);

  // Sorted-key traversal (R10): the greedy elimination below breaks count
  // ties by universe index, so it is order-independent today -- ordered
  // traversal keeps that property structural rather than incidental.
  std::vector<std::uint64_t> keys;
  keys.reserve(pair_data_.size());
  for (const auto& [key, ev] : pair_data_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before any consumer sees it
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  struct Pair { int a, b; };
  std::vector<Pair> bad;
  for (std::uint64_t key : keys) {
    const PairEvidence& ev = pair_data_.at(key);
    AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    AsId b = mac::checked_cast<AsId>(key >> 32);
    auto ia = pos.find(a);
    auto ib = pos.find(b);
    if (ia == pos.end() || ib == pos.end()) continue;
    bool inconsistent = false;
    for (MetroId d : ev.direct) {
      for (MetroId t : ev.transit)
        if (metros_close(d, t, g)) { inconsistent = true; break; }
      if (inconsistent) break;
    }
    if (inconsistent) bad.push_back({ia->second, ib->second});
  }

  std::vector<bool> alive(universe.size(), true);
  std::vector<int> count(universe.size(), 0);
  for (const Pair& p : bad) {
    ++count[mac::checked_cast<std::size_t>(p.a)];
    ++count[mac::checked_cast<std::size_t>(p.b)];
  }
  // Iteratively drop the AS involved in the most live inconsistent pairs.
  while (true) {
    int worst = -1, worst_count = 0;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (!alive[i]) continue;
      if (count[i] > worst_count) {
        worst_count = count[i];
        worst = mac::checked_cast<int>(i);
      }
    }
    if (worst < 0 || worst_count == 0) break;
    alive[mac::checked_cast<std::size_t>(worst)] = false;
    for (const Pair& p : bad) {
      if (p.a == worst && alive[mac::checked_cast<std::size_t>(p.b)])
        --count[mac::checked_cast<std::size_t>(p.b)];
      if (p.b == worst && alive[mac::checked_cast<std::size_t>(p.a)])
        --count[mac::checked_cast<std::size_t>(p.a)];
    }
    count[mac::checked_cast<std::size_t>(worst)] = 0;
  }
  return alive;
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

template <class Self, class Ar>
void ConsistencyTracker::io(Self& s, Ar& ar) {
  ar(s.pair_data_);
}

void ConsistencyTracker::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void ConsistencyTracker::load(util::checkpoint::Decoder& dec) {
  io(*this, dec);
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
