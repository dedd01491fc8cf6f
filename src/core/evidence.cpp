#include "core/evidence.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using topology::GeoScope;
using topology::pair_key;

void EvidenceStore::ingest(const traceroute::TraceResult& trace,
                           const traceroute::TraceObservations& obs,
                           const traceroute::WellPositionedTracker& wp) {
  for (const auto& l : obs.links) {
    if (l.metro < 0) continue;
    pairs_[pair_key(l.a, l.b)].direct.insert(l.metro);
  }
  for (const auto& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    if (!wp.well_positioned(trace.vp_id, t.a, m)) continue;
    pairs_[pair_key(t.a, t.b)].transit.insert(m);
  }
}

const PairEvidence* EvidenceStore::find(AsId a, AsId b) const {
  auto it = pairs_.find(pair_key(a, b));
  return it == pairs_.end() ? nullptr : &it->second;
}

bool EvidenceStore::direct_at(AsId a, AsId b, MetroId m) const {
  const PairEvidence* ev = find(a, b);
  return ev != nullptr && ev->direct.count(m) != 0;
}

bool EvidenceStore::transit_at(AsId a, AsId b, MetroId m) const {
  const PairEvidence* ev = find(a, b);
  return ev != nullptr && ev->transit.count(m) != 0;
}

std::vector<std::uint64_t> EvidenceStore::sorted_keys(
    const MetroContext* within) const {
  std::vector<std::uint64_t> keys;
  if (within == nullptr) keys.reserve(pairs_.size());
  for (const auto& [key, ev] : pairs_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before any consumer sees it
    if (within == nullptr || within->has_pair(key)) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <class Self, class Ar>
void EvidenceStore::io(Self& s, Ar& ar) {
  ar(s.pairs_);
}

void EvidenceStore::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void EvidenceStore::load(util::checkpoint::Decoder& dec) { io(*this, dec); }

EstimatedMatrix build_estimated_matrix(
    const MetroContext& ctx, const EvidenceStore& evidence,
    const traceroute::ConsistencyTracker& consistency) {
  const auto& net = ctx.net();
  const MetroId m = ctx.metro();
  EstimatedMatrix e(ctx.size());

  // Per-granularity consistent-AS sets, computed once over the universe.
  const auto consistent = consistency.consistent_sets(ctx.ases());

  // Sorted-key traversal (R10) over the metro's own pairs: e.set writes are
  // per-pair independent, but ordered traversal keeps the fill
  // deterministic by construction.
  for (std::uint64_t key : evidence.sorted_keys(&ctx)) {
    const PairEvidence& ev = evidence.all().at(key);
    AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    AsId b = mac::checked_cast<AsId>(key >> 32);
    int ia = ctx.local(a), ib = ctx.local(b);
    if (ia == ib) continue;

    // Positive: the geographically closest direct observation wins.
    if (!ev.direct.empty()) {
      GeoScope best = GeoScope::kElsewhere;
      for (MetroId dm : ev.direct)
        best = std::min(best, net.metro_scope(m, dm));
      e.set(mac::checked_cast<std::size_t>(ia), mac::checked_cast<std::size_t>(ib),
            positive_rating(best));
    }

    // Negative: the finest transit scope at which both ASes still route
    // consistently; inconsistent ASes yield no non-existence evidence.
    if (!ev.transit.empty()) {
      std::vector<GeoScope> scopes;
      scopes.reserve(ev.transit.size());
      for (MetroId tm : ev.transit) scopes.push_back(net.metro_scope(m, tm));
      std::sort(scopes.begin(), scopes.end());
      for (GeoScope g : scopes) {
        auto gi = mac::enum_cast<std::size_t>(g);
        if (consistent[gi][mac::checked_cast<std::size_t>(ia)] &&
            consistent[gi][mac::checked_cast<std::size_t>(ib)]) {
          e.set(mac::checked_cast<std::size_t>(ia), mac::checked_cast<std::size_t>(ib),
                negative_rating(g));
          break;
        }
      }
    }
  }
  return e;
}

}  // namespace metas::core
