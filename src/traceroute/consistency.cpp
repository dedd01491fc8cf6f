#include "traceroute/consistency.hpp"

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::traceroute {

using topology::AsId;
using topology::MetroId;

void WellPositionedTracker::ingest(const TraceResult& trace) {
  auto& traversed = vps_[trace.vp_id];
  for (const Hop& h : trace.hops) {
    if (!h.responsive || h.observed_ingress < 0) continue;
    traversed.insert(key(h.as, h.observed_ingress));
  }
  // The probe's own AS at its own metro counts as traversed.
  if (!trace.hops.empty()) traversed.insert(key(trace.src_as, trace.src_metro));
}

bool WellPositionedTracker::well_positioned(int vp_id, AsId i, MetroId m) const {
  auto it = vps_.find(vp_id);
  if (it == vps_.end()) return true;  // never issued
  return it->second.count(key(i, m)) != 0;
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
