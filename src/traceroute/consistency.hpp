// Consistent-routing detection and well-positioned-vantage-point tracking
// (§3.4, Appx. D.5).
//
// An AS routes consistently toward a peer at a granularity if observations
// never mix direct interconnections and transit crossings within that
// granularity.  ASes participating in inconsistent pairs are eliminated
// iteratively (highest inconsistency count first) until the remaining
// submatrix is consistent -- only those ASes support non-existence inference
// and geographic transferability.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/internet.hpp"
#include "traceroute/observations.hpp"
#include "util/numeric.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::traceroute {

/// True if every metro id in the direct and transit sets of a pair map
/// lies in [0, count).  Decoded evidence is checked with it before any id
/// reaches Internet::metro_scope, an unchecked index into `metros`.
template <class PairMap>
bool metros_below(const PairMap& pairs, std::size_t count) {
  auto below = [count](const std::set<topology::MetroId>& ids) {
    return ids.empty() ||
           (*ids.begin() >= 0 &&
            mac::checked_cast<std::size_t>(*ids.rbegin()) < count);
  };
  for (const auto& [key, ev] : pairs)  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
    if (!below(ev.direct) || !below(ev.transit)) return false;
  return true;
}

class ConsistencyTracker {
 public:
  explicit ConsistencyTracker(const topology::Internet& net) : net_(&net) {}

  /// Records observations from one traceroute.
  void ingest(const TraceObservations& obs);

  /// True if the pair mixes direct and transit evidence within `g`
  /// (i.e., a direct metro and a transit metro that are `g`-close).
  bool pair_inconsistent(topology::AsId a, topology::AsId b,
                         topology::GeoScope g) const;

  /// Membership flags per granularity, indexed by GeoScope: flag i says
  /// whether `universe[i]` routes consistently at that granularity (true =
  /// usable for transfer / non-existence inference).
  using ConsistentSets =
      std::array<std::vector<bool>, topology::kNumGeoScopes>;

  /// For every granularity, iteratively eliminates the universe ASes with
  /// the most inconsistent pairs at that granularity.  One pass over the
  /// mixed pairs (direct and transit evidence both present) inside the
  /// universe finds each pair's finest inconsistent scope.
  ConsistentSets consistent_sets(
      const std::vector<topology::AsId>& universe) const;

  std::size_t pairs_tracked() const { return pair_data_.size(); }

  /// True if every metro id in the tracked evidence lies in [0, count).
  bool metros_below(std::size_t count) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  /// load() rebuilds the derived mixed-pair set.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  struct PairEvidence {
    std::set<topology::MetroId> direct;
    std::set<topology::MetroId> transit;

    template <class Self, class Ar>
    static void io(Self& ev, Ar& ar) { ar(ev.direct, ev.transit); }
  };
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  bool metros_close(topology::MetroId a, topology::MetroId b,
                    topology::GeoScope g) const;

  const topology::Internet* net_;  // lint: allow(view-member) -- the World owns the Internet and every checker scoped inside a run of it
  std::unordered_map<std::uint64_t, PairEvidence> pair_data_;
  // Derived, not serialized: keys of the pairs holding both direct and
  // transit evidence -- the only pairs that can be inconsistent.
  std::set<std::uint64_t> mixed_;
};

/// Tracks which (AS, metro) interfaces each vantage point has traversed.
/// A VP is well positioned for (i, m) if it has never issued a measurement or
/// has previously crossed AS i at metro m (§3.4).
class WellPositionedTracker {
 public:
  /// Records a completed traceroute (responsive hops only).
  void ingest(const TraceResult& trace);

  bool well_positioned(int vp_id, topology::AsId i, topology::MetroId m) const;
  std::size_t issued_by(int vp_id) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  // Per VP: measurements issued and the (AS, metro) interfaces traversed.
  struct VpRecord {
    std::size_t issued = 0;
    std::unordered_set<std::uint64_t> traversed;

    template <class Self, class Ar>
    static void io(Self& r, Ar& ar) { ar(r.issued, r.traversed); }
  };
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  static std::uint64_t key(topology::AsId as, topology::MetroId m) {
    return (mac::checked_cast<std::uint64_t>(mac::checked_cast<std::uint32_t>(as)) << 16) |
           mac::checked_cast<std::uint16_t>(m);
  }
  std::unordered_map<int, VpRecord> vps_;
};

}  // namespace metas::traceroute
