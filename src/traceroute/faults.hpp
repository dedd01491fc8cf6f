// Deterministic fault injection for the measurement plane.
//
// The simulated substrate is otherwise perfectly reliable, but the real one
// is not: RIPE-Atlas probes churn and disconnect, platforms rate-limit, and
// probes time out in flight.  The injector reproduces those *infrastructure*
// faults -- as opposed to the observational noise the traceroute engine
// already models -- on a deterministic probe clock (one tick per probe
// attempt).  Every draw comes from the injector's own seeded RNGs, keyed on
// the profile seed and the VP/metro identity, so an inert profile (kNone)
// leaves all existing RNG streams untouched and the simulation bit-identical
// to a fault-free build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "topology/internet.hpp"
#include "util/rng.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::traceroute {

/// Infrastructure verdict for one probe attempt.
enum class ProbeStatus : std::uint8_t {
  kOk = 0,       // probe launched and completed
  kLost,         // launched but timed out in flight (budget spent)
  kVpDown,       // VP disconnected: transient outage, churn, or metro incident
  kRateLimited,  // platform refused the probe (token bucket empty)
};

const char* to_string(ProbeStatus s);

/// Fault intensities.  VP/metro state probabilities are per probe-clock
/// tick; probe loss is per launched attempt.  The default is the inert
/// profile: every intensity zero, `enabled()` false, and current behaviour
/// preserved bit-for-bit.
struct FaultProfile {
  // Transient outages: a two-state (up/down) Markov chain per VP.
  double outage_start = 0.0;  // P(up -> down) per tick
  double outage_end = 0.25;   // P(down -> up) per tick
  // Permanent churn: a live VP dies for good and never answers again.
  double death = 0.0;  // per tick
  // Probe loss / timeout after launch.
  double loss = 0.0;  // per attempt
  // Per-VP token-bucket rate limiting (capacity 0 disables the bucket).
  double bucket_capacity = 0.0;  // max tokens; one probe costs one token
  double bucket_refill = 0.0;    // tokens regained per tick
  // Correlated metro-level incidents (power / fiber events) that take down
  // every VP hosted at the metro at once.
  double incident_start = 0.0;  // per tick
  double incident_end = 0.2;    // per tick
  std::uint64_t seed = 0xFA57;

  /// True when any fault mechanism is active.
  bool enabled() const;

  static FaultProfile none();   // inert: the bit-exact legacy behaviour
  static FaultProfile flaky();  // moderate: ~10% VP downtime, 5% probe loss
  static FaultProfile storm();  // aggressive: correlated outages + throttling
};

/// Parses a named profile ("none" | "flaky" | "storm").  Returns false and
/// leaves `out` untouched on unknown names.
bool parse_fault_profile(const std::string& name, FaultProfile& out);

/// Seeded fault state machine shared by all probes of one world.
///
/// Per-VP and per-metro chains each own an RNG derived from (profile seed,
/// entity id), so the sampled fault timeline of one VP does not depend on
/// how often *other* VPs are probed.  State is advanced lazily to the
/// current tick when an entity is next queried.
class FaultInjector {
 public:
  explicit FaultInjector(FaultProfile profile);

  /// Advances the probe clock one tick and rolls the infrastructure dice for
  /// an attempt from VP `vp_id` hosted at `vp_metro`.  kOk and kLost mean
  /// the probe launched (measurement budget spent); kVpDown and kRateLimited
  /// mean it never left the platform.  Inert profiles return kOk without
  /// advancing the clock or drawing randomness.
  ProbeStatus pre_probe(int vp_id, topology::MetroId vp_metro);

  /// True once the VP has churned out permanently.
  bool dead(int vp_id) const;

  bool enabled() const { return enabled_; }
  const FaultProfile& profile() const { return profile_; }

  /// Probe-clock ticks elapsed (== fault-checked probe attempts).
  std::uint64_t clock() const { return tick_; }
  /// VPs that died permanently so far.
  std::size_t dead_vps() const;

  /// Checkpoint serialization of the injector's mutable state (clock,
  /// per-entity chains, RNG stream positions).  The profile itself comes
  /// from configuration and is not part of the snapshot.  load() throws
  /// CheckpointError on a chain no run reaches: advanced past the clock,
  /// or a VP's tokens outside [0, bucket_capacity].
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  // Default-constructible (seed 0) so a checkpoint load can build one
  // before restoring its stream position.
  struct VpState {
    util::Rng rng;
    std::uint64_t last_tick = 0;
    bool down = false;
    bool dead = false;
    double tokens = 0.0;
    explicit VpState(std::uint64_t seed = 0) : rng(seed) {}

    template <class Self, class Ar>
    static void io(Self& s, Ar& ar) {
      ar(s.rng, s.last_tick, s.down, s.dead, s.tokens);
    }
  };
  struct MetroState {
    util::Rng rng;
    std::uint64_t last_tick = 0;
    bool incident = false;
    explicit MetroState(std::uint64_t seed = 0) : rng(seed) {}

    template <class Self, class Ar>
    static void io(Self& s, Ar& ar) { ar(s.rng, s.last_tick, s.incident); }
  };

  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  VpState& vp_state(int vp_id);
  MetroState& metro_state(topology::MetroId m);
  void advance_vp(VpState& s);
  void advance_metro(MetroState& s);

  FaultProfile profile_;
  bool enabled_ = false;
  std::uint64_t tick_ = 0;
  std::unordered_map<int, VpState> vps_;
  std::unordered_map<int, MetroState> metros_;
  util::Rng loss_rng_;
};

}  // namespace metas::traceroute
