// Measurement plane: owns the vantage points, targets, global evidence and
// trackers, and executes both public-archive and targeted traceroutes.
//
// One MeasurementSystem spans the whole Internet (evidence transfers across
// metros, §3.4); per-metro schedulers drive it through run_targeted().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/evidence.hpp"
#include "core/metro_context.hpp"
#include "traceroute/engine.hpp"
#include "traceroute/strategy.hpp"

namespace metas::core {

/// Result of one targeted measurement attempt.
struct MeasurementOutcome {
  bool revealed_direct = false;   // the link's existence
  bool revealed_transit = false;  // its non-existence
  /// Infrastructure verdict of the last attempt (kOk without fault injection).
  traceroute::ProbeStatus status = traceroute::ProbeStatus::kOk;
  int attempts = 0;   // probe attempts, including failovers
  int launched = 0;   // attempts that actually left the platform (budget)
  int faulted = 0;    // attempts that hit an infrastructure fault
  /// Candidates existed but every attempt was eaten by the infrastructure:
  /// the measurement says nothing about the link and must not be treated as
  /// an uninformative strategy outcome.
  bool infra_failure = false;
  bool ran() const { return launched > 0; }
  bool informative() const { return revealed_direct || revealed_transit; }
};

inline constexpr int kMaxProbeAttempts = 4;  // first try + failovers

class MeasurementSystem;

/// One metro's targeted-traceroute candidates (§3.3.2), which the world
/// alone fixes: per local AS, its VPs of each VP category in inventory
/// order, and the targets of each target category in its customer cone in
/// cone order, then inventory order -- the orders run_targeted draws from.
class CandidateIndex {
 public:
  CandidateIndex(const MetroContext& ctx, const MeasurementSystem& ms);

  MetroId metro() const { return metro_; }
  /// Inventory indices of local AS i's candidates in category c.
  std::span<const std::uint32_t> vps(std::size_t i, int c) const {
    return vps_.at(i * traceroute::kVpCategories +
                   mac::checked_cast<std::size_t>(c));
  }
  std::span<const std::uint32_t> targets(std::size_t i, int c) const {
    return targets_.at(i * traceroute::kTargetCategories +
                       mac::checked_cast<std::size_t>(c));
  }

 private:
  // Group g = i * categories + c spans items[begin[g], begin[g + 1]).
  struct Groups {
    std::vector<std::uint32_t> items, begin{0};
    std::span<const std::uint32_t> at(std::size_t g) const {
      return std::span(items).subspan(begin.at(g), begin.at(g + 1) - begin[g]);
    }
  };
  MetroId metro_;
  Groups vps_, targets_;
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

  /// Issues one targeted traceroute for the link of local entry (i, j) of
  /// ctx's metro using the given vantage-point and target categories.
  /// `swapped` means the probe sits near j and the target is in i.
  MeasurementOutcome run_targeted(const MetroContext& ctx, int i, int j,
                                  int vp_cat, int tgt_cat, bool swapped);

  /// ctx's candidate index, derived state like the E_m view: built on the
  /// first call and rebuilt for another metro, which ends the reference.
  const CandidateIndex& candidates(const MetroContext& ctx);

  /// Derives the current estimated matrix for a metro from global evidence:
  /// one full build, every call.
  EstimatedMatrix build_matrix(const MetroContext& ctx) const;

  /// The metro's current E_m, equal to build_matrix(ctx), from one view
  /// kept current by delta (DESIGN.md §14).  The view is returned as is
  /// when no trace was processed since the last call; rebuilt in full when
  /// there is none (first call, after take_matrix() or load()), for another
  /// metro, or when the metro's consistent sets moved; otherwise only the
  /// pairs observed since the last call are re-derived.
  /// The reference stays valid and unchanged until the next matrix(),
  /// take_matrix() or load().
  const EstimatedMatrix& matrix(const MetroContext& ctx);
  /// matrix(ctx), moved out of the view, which is dropped: a metro's last
  /// read keeps no second n x n copy alive.
  EstimatedMatrix take_matrix(const MetroContext& ctx);

  const EvidenceStore& evidence() const { return evidence_; }
  std::size_t traceroutes_issued() const { return engine_->issued(); }

  /// Resilience off: no failover, backoff or quarantine, and the scheduler
  /// treats infrastructure failures like uninformative results.
  void set_resilience(bool on) { resilience_ = on; }
  bool resilience() const { return resilience_; }

  /// VPs currently sidelined (quarantine or rate-limit backoff).
  std::size_t quarantined_vps() const;
  /// VPs that churned out permanently (0 without fault injection).
  std::size_t dead_vps() const;

  /// VP score for detecting links of AS i: Laplace-smoothed success fraction
  /// of its previous measurements targeting i (§3.3.2 "choosing specific
  /// vantage points").
  double vp_score(int vp_id, AsId i) const;

  /// Checkpoint serialization of all mutable measurement-plane state
  /// (evidence, the well-positioned tracker, VP statistics/health, the RNG
  /// stream position and the health clock).  The Internet, engine wiring,
  /// VP/target inventories and the resilience flag are configuration,
  /// reconstructed on resume.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  friend class CandidateIndex;  // reads the inventories
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  /// Ingests a completed trace's observations into the evidence store
  /// and, while a view exists, records their pair keys for it.  The
  /// caller updates the well-positioned tracker after its own checks,
  /// which must see the state before this trace.
  traceroute::TraceObservations process_trace(
      const traceroute::TraceResult& trace);

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
  traceroute::WellPositionedTracker wp_;
  traceroute::PublicRelationships rels_;

  // (vp_id, as) -> {attempts, confirmed}
  std::unordered_map<std::uint64_t, std::pair<int, int>> vp_stats_;

  bool resilience_ = true;
  // Targeted-measurement clock: one tick per run_targeted call.  Backoff and
  // quarantine expiry are measured against this clock (not the injector's
  // probe clock, which freezes when nothing launches).
  std::uint64_t health_clock_ = 0;
  // Infrastructure health per VP: consecutive faulted attempts and the
  // health-clock tick until which the VP is sidelined.
  struct VpHealth {
    int strikes = 0;
    std::uint64_t blocked_until = 0;

    template <class Self, class Ar>
    static void io(Self& h, Ar& ar) { ar(h.strikes, h.blocked_until); }
  };
  std::unordered_map<int, VpHealth> vp_health_;

  // The E_m view behind matrix(): derived state, never serialized, dropped
  // by take_matrix() and load().  `consistent` holds the sets `e` was derived under, and
  // observed_ the pair keys of every observation processed since.
  struct MatrixView {
    MetroId metro = -1;
    ConsistentSets consistent;
    EstimatedMatrix e;
  };
  std::optional<MatrixView> view_;
  std::vector<std::uint64_t> observed_;
  std::optional<CandidateIndex> candidates_;  // see candidates()
};

}  // namespace metas::core
