// Measurement plane: owns the vantage points, targets, global evidence and
// trackers, and executes both public-archive and targeted traceroutes.
//
// One MeasurementSystem spans the whole Internet (evidence transfers across
// metros, §3.4); per-metro schedulers drive it through run_targeted().
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/evidence.hpp"
#include "core/metro_context.hpp"
#include "traceroute/engine.hpp"
#include "traceroute/strategy.hpp"

namespace metas::core {

/// Result of one targeted measurement attempt.
struct MeasurementOutcome {
  bool ran = false;             // at least one probe was launched
  bool informative = false;     // revealed (non-)existence of the target link
  bool revealed_direct = false;
  bool revealed_transit = false;
  /// Infrastructure verdict of the last attempt (kOk without fault injection).
  traceroute::ProbeStatus status = traceroute::ProbeStatus::kOk;
  int attempts = 0;   // probe attempts, including failovers
  int launched = 0;   // attempts that actually left the platform (budget)
  int faulted = 0;    // attempts that hit an infrastructure fault
  /// Candidates existed but every attempt was eaten by the infrastructure:
  /// the measurement says nothing about the link and must not be treated as
  /// an uninformative strategy outcome.
  bool infra_failure = false;
};

/// Failover / backoff / quarantine policy of the measurement plane.  All
/// durations are targeted-measurement ticks (one per run_targeted call), a
/// clock that keeps advancing even while probes are blocked, so backoffs
/// always expire; nothing here reads wall-clock time.
struct ResilienceConfig {
  /// Off: no failover, backoff or quarantine, and the scheduler treats
  /// infrastructure failures like uninformative results.
  bool enabled = true;
  /// Total probe attempts per targeted measurement (first try + failovers).
  int max_attempts = 4;
  /// Consecutive faulted attempts before a VP is quarantined.
  int quarantine_threshold = 3;
  /// Backoff after a rate-limited attempt, doubling per consecutive strike.
  std::uint64_t backoff_base = 32;
  std::uint64_t backoff_cap = 8192;
};

class MeasurementSystem {
 public:
  MeasurementSystem(const topology::Internet& net,
                    traceroute::TracerouteEngine& engine,
                    std::vector<traceroute::VantagePoint> vps,
                    std::vector<traceroute::ProbeTarget> targets,
                    std::uint64_t seed);

  /// Simulates the public RIPE-Atlas/Ark archives: `count` traceroutes from
  /// random vantage points to random targets, processed like any other.
  void run_public_archives(std::size_t count);

  /// Issues one targeted traceroute for link (i, j) at metro m using the
  /// given vantage-point and target categories. `swapped` means the probe
  /// sits near j and the target is in i.
  MeasurementOutcome run_targeted(AsId i, AsId j, MetroId m, int vp_cat,
                                  int tgt_cat, bool swapped);

  /// Number of vantage points in each VP category for (i, m) -- availability
  /// input to the probability matrix. Returns a kVpCategories-sized array.
  std::vector<int> vp_category_counts(AsId i, MetroId m) const;
  /// Same for targets of (j, m); kTargetCategories-sized.
  std::vector<int> target_category_counts(AsId j, MetroId m) const;

  /// Derives the current estimated matrix for a metro from global evidence.
  EstimatedMatrix build_matrix(const MetroContext& ctx) const;

  const EvidenceStore& evidence() const { return evidence_; }
  const traceroute::ConsistencyTracker& consistency() const { return consistency_; }
  const traceroute::WellPositionedTracker& well_positioned() const { return wp_; }
  std::size_t traceroutes_issued() const { return engine_->issued(); }
  const std::vector<traceroute::VantagePoint>& vps() const { return vps_; }

  void set_resilience(const ResilienceConfig& rc) { resilience_ = rc; }
  const ResilienceConfig& resilience() const { return resilience_; }

  /// VPs currently sidelined (quarantine or rate-limit backoff).
  std::size_t quarantined_vps() const;
  /// VPs that churned out permanently (0 without fault injection).
  std::size_t dead_vps() const;

  /// VP score for detecting links of AS i: Laplace-smoothed success fraction
  /// of its previous measurements targeting i (§3.3.2 "choosing specific
  /// vantage points").
  double vp_score(int vp_id, AsId i) const;

  /// Checkpoint serialization of all mutable measurement-plane state
  /// (evidence, trackers, VP statistics/health, the RNG stream position and
  /// the health clock).  The Internet, engine wiring, VP/target inventories
  /// and resilience policy are configuration, reconstructed on resume.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  void process_trace(const traceroute::TraceResult& trace,
                     traceroute::TraceObservations& obs_out);

  /// False when the VP is dead, quarantined, or backing off.  Always true
  /// without an active fault injector.
  bool vp_usable(int vp_id) const;
  void note_vp_ok(int vp_id);
  void note_vp_fault(int vp_id, traceroute::ProbeStatus status);

  const topology::Internet* net_;  // lint: allow(view-member) -- the World owns the Internet for the whole simulation
  traceroute::TracerouteEngine* engine_;  // lint: allow(view-member) -- the World owns the engine alongside the Internet it probes
  std::vector<traceroute::VantagePoint> vps_;
  std::vector<traceroute::ProbeTarget> targets_;
  std::vector<std::vector<std::size_t>> targets_by_as_;  // indices into targets_
  util::Rng rng_;

  EvidenceStore evidence_;
  traceroute::ConsistencyTracker consistency_;
  traceroute::WellPositionedTracker wp_;
  traceroute::PublicRelationships rels_;

  // (vp_id, as) -> {attempts, confirmed}
  std::unordered_map<std::uint64_t, std::pair<int, int>> vp_stats_;

  ResilienceConfig resilience_;
  // Targeted-measurement clock: one tick per run_targeted call.  Backoff and
  // quarantine expiry are measured against this clock (not the injector's
  // probe clock, which freezes when nothing launches).
  std::uint64_t health_clock_ = 0;
  // Infrastructure health per VP: consecutive faulted attempts and the
  // health-clock tick until which the VP is sidelined.
  struct VpHealth {
    int strikes = 0;
    std::uint64_t blocked_until = 0;
  };
  std::unordered_map<int, VpHealth> vp_health_;
};

}  // namespace metas::core
