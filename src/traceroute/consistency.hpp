// Well-positioned-vantage-point tracking (§3.4).  The consistent-routing
// analysis reads the pair records of core::EvidenceStore.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "traceroute/engine.hpp"
#include "util/numeric.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::traceroute {

/// Tracks which (AS, metro) interfaces each vantage point has traversed.
/// A VP is well positioned for (i, m) if it has never issued a measurement or
/// has previously crossed AS i at metro m (§3.4).
class WellPositionedTracker {
 public:
  /// Records a completed traceroute (responsive hops only).
  void ingest(const TraceResult& trace);

  bool well_positioned(int vp_id, topology::AsId i, topology::MetroId m) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  static std::uint64_t key(topology::AsId as, topology::MetroId m) {
    return (mac::checked_cast<std::uint64_t>(mac::checked_cast<std::uint32_t>(as)) << 16) |
           mac::checked_cast<std::uint16_t>(m);
  }
  // Per VP that issued a measurement: the (AS, metro) interfaces it
  // traversed.  A VP without an entry never issued one.
  std::unordered_map<int, std::unordered_set<std::uint64_t>> vps_;
};

}  // namespace metas::traceroute
