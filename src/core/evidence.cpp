#include "core/evidence.hpp"

#include <algorithm>
#include <array>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using topology::GeoScope;
using topology::pair_key;

namespace {

/// True if some record carries E_m evidence (direct or transit).
bool has_em_evidence(const PairEvidence& ev) {
  return std::any_of(ev.begin(), ev.end(), [](const MetroEvidence& r) {
    return r.direct || r.transit;
  });
}

/// True if the pair holds both direct evidence and a crossing: the only
/// pairs that can be inconsistent.
bool is_mixed(const PairEvidence& ev) {
  return has_direct(ev) &&
         std::any_of(ev.begin(), ev.end(),
                     [](const MetroEvidence& r) { return r.crossing; });
}

}  // namespace

void EvidenceStore::ingest(const traceroute::TraceResult& trace,
                           const traceroute::TraceObservations& obs,
                           const traceroute::WellPositionedTracker& wp) {
  // Flags the pair's record at metro `m`, inserted in metro order, then
  // lists the pair in evidenced_ on its first E_m evidence and in mixed_.
  auto note = [this](std::uint64_t key, MetroId m, auto flag) {
    PairEvidence& ev = pairs_[key];
    const bool had = has_em_evidence(ev);
    auto it = std::find_if(ev.begin(), ev.end(),
                           [m](const MetroEvidence& r) { return r.metro >= m; });
    if (it == ev.end() || it->metro != m) it = ev.insert(it, MetroEvidence{m});
    flag(*it);
    if (!had && has_em_evidence(ev)) evidenced_.emplace_back(key, &ev);
    if (is_mixed(ev)) mixed_.insert(key);
  };
  for (const auto& l : obs.links)
    if (l.metro >= 0)
      note(pair_key(l.a, l.b), l.metro,
           [](MetroEvidence& r) { r.direct = true; });
  for (const auto& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    const bool vetted = wp.well_positioned(trace.vp_id, t.a, m);
    note(pair_key(t.a, t.b), m, [vetted](MetroEvidence& r) {
      r.crossing = true;
      r.transit = r.transit || vetted;
    });
  }
}

const PairEvidence* EvidenceStore::find(AsId a, AsId b) const {
  auto it = pairs_.find(pair_key(a, b));
  return it == pairs_.end() ? nullptr : &it->second;
}

bool EvidenceStore::direct_at(AsId a, AsId b, MetroId m) const {
  const PairEvidence* ev = find(a, b);
  return ev != nullptr && std::any_of(ev->begin(), ev->end(), [m](auto& r) {
           return r.metro == m && r.direct;
         });
}

bool EvidenceStore::transit_at(AsId a, AsId b, MetroId m) const {
  const PairEvidence* ev = find(a, b);
  return ev != nullptr && std::any_of(ev->begin(), ev->end(), [m](auto& r) {
           return r.metro == m && r.transit;
         });
}

std::vector<std::pair<std::uint64_t, const PairEvidence*>>
EvidenceStore::sorted_pairs(const MetroContext& within) const {
  std::vector<std::pair<std::uint64_t, const PairEvidence*>> out;
  for (const auto& [key, ev] : evidenced_)
    if (within.has_pair(key)) out.emplace_back(key, ev);
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return x.first < y.first;
  });
  return out;
}

std::vector<std::uint64_t> EvidenceStore::sorted_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs_.size());
  for (const auto& [key, ev] : pairs_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before any consumer sees it
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool EvidenceStore::pair_inconsistent(const topology::Internet& net, AsId a,
                                      AsId b, GeoScope g) const {
  const PairEvidence* ev = find(a, b);
  if (ev == nullptr) return false;
  for (const MetroEvidence& d : *ev)
    for (const MetroEvidence& t : *ev)
      if (d.direct && t.crossing &&
          mac::enum_cast<int>(net.metro_scope(d.metro, t.metro)) <=
              mac::enum_cast<int>(g))
        return true;
  return false;
}

namespace {

struct BadPair {
  int a, b;
};

/// Iteratively drops the AS involved in the most live inconsistent pairs
/// (ties: lowest local index) until none is left; returns the survivors.
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

ConsistentSets EvidenceStore::consistent_sets(const MetroContext& ctx) const {
  // A mixed pair is inconsistent at every granularity at least as coarse
  // as the closest (direct, crossing) metro pair it holds.  mixed_ is
  // ordered, so the pairs come in ascending key order.  has_pair() reads
  // a key's halves unsigned, so an AS outside the world is never local.
  struct Mixed {
    BadPair pair;
    GeoScope finest;
  };
  const auto& net = ctx.net();
  std::vector<Mixed> mixed;
  for (std::uint64_t key : mixed_) {
    if (!ctx.has_pair(key)) continue;
    const PairEvidence& ev = pairs_.at(key);
    GeoScope finest = GeoScope::kElsewhere;
    for (const MetroEvidence& d : ev)
      for (const MetroEvidence& t : ev)
        if (d.direct && t.crossing)
          finest = std::min(finest, net.metro_scope(d.metro, t.metro));
    mixed.push_back({{ctx.local(mac::checked_cast<AsId>(key & 0xffffffffULL)),
                      ctx.local(mac::checked_cast<AsId>(key >> 32))},
                     finest});
  }

  ConsistentSets sets;
  std::vector<BadPair> bad;
  for (std::size_t g = 0; g < sets.size(); ++g) {
    bad.clear();
    for (const Mixed& m : mixed)
      if (mac::enum_cast<std::size_t>(m.finest) <= g) bad.push_back(m.pair);
    sets[g] = eliminate(bad, ctx.size());
  }
  return sets;
}

bool EvidenceStore::metros_valid(std::size_t count) const {
  for (const auto& [key, ev] : pairs_) {  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
    MetroId last = -1;
    for (const MetroEvidence& r : ev) {
      if (r.metro <= last || mac::checked_cast<std::size_t>(r.metro) >= count)
        return false;
      last = r.metro;
    }
  }
  return true;
}

template <class Self, class Ar>
void EvidenceStore::io(Self& s, Ar& ar) {
  ar(s.pairs_);
}

void EvidenceStore::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void EvidenceStore::load(util::checkpoint::Decoder& dec) {
  evidenced_.clear();
  mixed_.clear();
  io(*this, dec);
  for (const auto& [key, ev] : pairs_) {  // lint: allow(unordered-iter) -- rebuilds the derived lists; sorted_pairs sorts, std::set orders
    if (has_em_evidence(ev)) evidenced_.emplace_back(key, &ev);
    if (is_mixed(ev)) mixed_.insert(key);
  }
}

namespace {

constexpr std::array<GeoScope, topology::kNumGeoScopes> kFinestFirst = {
    GeoScope::kSameMetro, GeoScope::kSameCountry, GeoScope::kSameContinent,
    GeoScope::kElsewhere};

/// The per-pair rule of E_m (§3.4), written into the empty (ia, ib) entry.
/// A full build and a delta refresh both apply it; a refresh clears the
/// entry first, since EstimatedMatrix::set merges onto a filled one.
void fill_pair(EstimatedMatrix& e, const MetroContext& ctx, std::size_t ia,
               std::size_t ib, const PairEvidence& ev,
               const ConsistentSets& consistent) {
  const auto& net = ctx.net();
  const MetroId m = ctx.metro();

  // Positive: the geographically closest direct observation wins.
  // Negative: the finest transit scope at which both ASes still route
  // consistently; inconsistent ASes yield no non-existence evidence.
  bool direct = false;
  GeoScope best = GeoScope::kElsewhere;
  unsigned crossed = 0;  // bit g: a transit crossing at scope g
  for (const MetroEvidence& r : ev) {
    const GeoScope scope = net.metro_scope(m, r.metro);
    if (r.direct) {
      direct = true;
      best = std::min(best, scope);
    }
    if (r.transit) crossed |= 1u << mac::enum_cast<unsigned>(scope);
  }
  if (direct) e.set(ia, ib, positive_rating(best));
  for (GeoScope g : kFinestFirst) {
    const auto gi = mac::enum_cast<std::size_t>(g);
    if (((crossed >> gi) & 1u) != 0 && consistent[gi][ia] &&
        consistent[gi][ib]) {
      e.set(ia, ib, negative_rating(g));
      break;
    }
  }
}

}  // namespace

EstimatedMatrix build_estimated_matrix(const MetroContext& ctx,
                                       const EvidenceStore& evidence,
                                       const ConsistentSets& consistent) {
  EstimatedMatrix e(ctx.size());
  // Sorted-key traversal (R10) over the metro's own pairs: each key owns
  // its entry, but ordered traversal keeps the fill deterministic by
  // construction.
  for (const auto& [key, ev] : evidence.sorted_pairs(ctx)) {
    const int ia = ctx.local(mac::checked_cast<AsId>(key & 0xffffffffULL));
    const int ib = ctx.local(mac::checked_cast<AsId>(key >> 32));
    if (ia == ib) continue;
    fill_pair(e, ctx, mac::checked_cast<std::size_t>(ia),
              mac::checked_cast<std::size_t>(ib), *ev, consistent);
  }
  return e;
}

void refresh_estimated_pairs(EstimatedMatrix& e, const MetroContext& ctx,
                             const EvidenceStore& evidence,
                             const ConsistentSets& consistent,
                             const std::vector<std::uint64_t>& keys) {
  for (std::uint64_t key : keys) {
    if (!ctx.has_pair(key)) continue;
    const AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    const AsId b = mac::checked_cast<AsId>(key >> 32);
    const auto ia = mac::checked_cast<std::size_t>(ctx.local(a));
    const auto ib = mac::checked_cast<std::size_t>(ctx.local(b));
    if (ia == ib) continue;
    e.clear(ia, ib);
    if (const PairEvidence* ev = evidence.find(a, b))
      fill_pair(e, ctx, ia, ib, *ev, consistent);
  }
}

}  // namespace metas::core
