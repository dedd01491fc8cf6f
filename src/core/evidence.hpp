// Global evidence store: every direct-link and transit observation collected
// across all traceroutes, from which the per-metro estimated matrix E_m is
// derived with geographic transferability (§3.4).
//
// Transit observations are only retained when they come from a
// well-positioned vantage point; the negative fill additionally requires
// both ASes to route consistently at the relevant granularity at E_m build
// time.
#pragma once

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

/// Accumulated evidence about one AS pair.
struct PairEvidence {
  std::set<MetroId> direct;    // metros with a witnessed interconnection
  std::set<MetroId> transit;   // metros with a well-positioned transit crossing

  /// Checkpoint field list (util/checkpoint.hpp).
  template <class Self, class Ar>
  static void io(Self& ev, Ar& ar) { ar(ev.direct, ev.transit); }
};

class EvidenceStore {
 public:
  /// Ingests the observations of one traceroute. Transit observations are
  /// kept only if `wp` says the issuing vantage point was well positioned for
  /// the near-side AS at the crossing metro.
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
  /// The pairs with both ends at `within`, in ascending key order, each
  /// with its evidence, so no caller looks a key up twice.  O(P + K log K)
  /// for K kept pairs; cache the result when looping.
  std::vector<std::pair<std::uint64_t, const PairEvidence*>> sorted_pairs(
      const MetroContext& within) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  std::unordered_map<std::uint64_t, PairEvidence> pairs_;
};

using ConsistentSets = traceroute::ConsistencyTracker::ConsistentSets;

/// Derives E_m for a metro from global evidence (§3.4):
///  - positive fill: best geographic scope of any direct observation;
///  - negative fill: closest transit scope, only when both ASes are routing
///    consistently at that granularity.
/// When both exist the larger magnitude wins, the positive on a tie.
EstimatedMatrix build_estimated_matrix(
    const MetroContext& ctx, const EvidenceStore& evidence,
    const traceroute::ConsistencyTracker& consistency);
/// Same, from the metro's consistent sets computed by the caller.
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
