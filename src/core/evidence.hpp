// Global evidence store: every direct-link and transit observation collected
// across all traceroutes, one record per AS pair, from which the per-metro
// estimated matrix E_m (§3.4) and the consistent-routing sets (Appx. D.5)
// are both derived.
//
// A pair's record lists the metros it was seen at, each with three flags:
// a witnessed interconnection, a transit crossing (the input of the
// consistency analysis), and a crossing seen from a well-positioned vantage
// point (negative E_m evidence).  The negative fill additionally requires
// both ASes to route consistently at the relevant granularity at E_m build
// time.
//
// An AS routes consistently toward a peer at a granularity if observations
// never mix direct interconnections and transit crossings within that
// granularity.  ASes participating in inconsistent pairs are eliminated
// iteratively (highest inconsistency count first) until the remaining
// submatrix is consistent.  Only those ASes support non-existence
// inference: a crossing fills a negative at the finest scope where both
// ASes route consistently.  Positive evidence transfers whatever the
// consistent sets say: a direct observation anywhere fills its pair with
// its closest scope's rating (+1 at the metro, +0.7 in the country, +0.4
// on the continent, +0.1 elsewhere).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/estimated_matrix.hpp"
#include "core/metro_context.hpp"
#include "traceroute/consistency.hpp"
#include "traceroute/observations.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::core {

/// What one AS pair showed at one metro.
struct MetroEvidence {
  MetroId metro = -1;
  bool direct = false;    // a witnessed interconnection
  bool crossing = false;  // a transit crossing
  bool transit = false;   // a crossing seen from a well-positioned VP

  /// Checkpoint field list (util/checkpoint.hpp).
  template <class Self, class Ar>
  static void io(Self& r, Ar& ar) {
    ar(r.metro, r.direct, r.crossing, r.transit);
  }
};

/// Accumulated evidence about one AS pair: one record per metro, in
/// ascending metro order.
using PairEvidence = std::vector<MetroEvidence>;

/// True if the pair has a witnessed interconnection at some metro.
inline bool has_direct(const PairEvidence& ev) {
  return std::any_of(ev.begin(), ev.end(),
                     [](const MetroEvidence& r) { return r.direct; });
}

/// Membership flags per granularity, indexed by GeoScope: flag i says
/// whether the metro's local AS i routes consistently at that granularity
/// (true = usable for transfer / non-existence inference).
using ConsistentSets = std::array<std::vector<bool>, topology::kNumGeoScopes>;

class EvidenceStore {
 public:
  EvidenceStore() = default;
  // The derived list points into the map: a copy's list would point into
  // the original.
  EvidenceStore(const EvidenceStore&) = delete;
  EvidenceStore& operator=(const EvidenceStore&) = delete;

  /// Ingests the observations of one traceroute.  Every geolocated
  /// crossing flags its metro's record as a crossing, and also as transit
  /// if `wp` says the issuing vantage point was well positioned for the
  /// near-side AS at the crossing metro.
  void ingest(const traceroute::TraceResult& trace,
              const traceroute::TraceObservations& obs,
              const traceroute::WellPositionedTracker& wp);

  const PairEvidence* find(AsId a, AsId b) const;
  std::size_t pairs() const { return pairs_.size(); }

  /// True if the pair has direct evidence at exactly this metro.
  bool direct_at(AsId a, AsId b, MetroId m) const;
  /// True if the pair has (well-positioned) transit evidence at this metro.
  bool transit_at(AsId a, AsId b, MetroId m) const;

  const std::unordered_map<std::uint64_t, PairEvidence>& all() const {
    return pairs_;
  }

  /// Pair keys in ascending order: the sanctioned way to traverse `all()`,
  /// so no consumer depends on unordered iteration order (tools/lint.py
  /// R10).
  std::vector<std::uint64_t> sorted_keys() const;
  /// The pairs with both ends at `within` and E_m evidence (a direct or a
  /// well-positioned transit metro), in ascending key order, each with its
  /// evidence, so no caller looks a key up twice.  O(E + K log K) for E
  /// pairs with E_m evidence and K kept; pairs with only crossings are not
  /// visited.  Cache the result when looping.
  std::vector<std::pair<std::uint64_t, const PairEvidence*>> sorted_pairs(
      const MetroContext& within) const;

  /// True if the pair mixes direct evidence and a crossing within `g`
  /// (i.e., a direct metro and a crossing metro that are `g`-close).
  bool pair_inconsistent(const topology::Internet& net, AsId a, AsId b,
                         topology::GeoScope g) const;

  /// For every granularity, iteratively eliminates the metro's ASes with
  /// the most inconsistent pairs at that granularity.  One pass over the
  /// mixed pairs (direct evidence and a crossing both present) inside the
  /// metro finds each pair's finest inconsistent scope.
  ConsistentSets consistent_sets(const MetroContext& ctx) const;

  /// True if every pair's records name ascending, distinct metros in
  /// [0, count): one record per (pair, metro).  Decoded evidence is
  /// checked with it before any id reaches Internet::metro_scope, an
  /// unchecked index into `metros`.
  bool metros_valid(std::size_t count) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  /// load() rebuilds the derived pair lists.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  std::unordered_map<std::uint64_t, PairEvidence> pairs_;
  // Derived, not serialized.  The pairs with E_m evidence, each with its
  // record, in the order they gained it: the list a full E_m build scans.
  std::vector<std::pair<std::uint64_t, const PairEvidence*>> evidenced_;
  // Keys of the pairs holding both direct evidence and a crossing -- the
  // only pairs that can be inconsistent.
  std::set<std::uint64_t> mixed_;
};

/// Derives E_m for a metro from global evidence (§3.4), under the metro's
/// consistent sets (EvidenceStore::consistent_sets):
///  - positive fill: best geographic scope of any direct observation;
///  - negative fill: closest transit scope, only when both ASes are routing
///    consistently at that granularity.
/// When both exist the larger magnitude wins, the positive on a tie.
EstimatedMatrix build_estimated_matrix(const MetroContext& ctx,
                                       const EvidenceStore& evidence,
                                       const ConsistentSets& consistent);

/// Brings `e`, a build of this metro under the same consistent sets, up to
/// date after new evidence for the pairs `keys` (pair_key()s, in any order;
/// keys outside the metro are skipped).  Each such entry is cleared and
/// re-derived by the rule build_estimated_matrix applies, so the result
/// equals a full build whenever every pair whose evidence changed is listed.
void refresh_estimated_pairs(EstimatedMatrix& e, const MetroContext& ctx,
                             const EvidenceStore& evidence,
                             const ConsistentSets& consistent,
                             const std::vector<std::uint64_t>& keys);

}  // namespace metas::core
