// End-to-end metAScritic pipeline for one metro (§3.5):
//   1. derive E_m from the evidence already collected (public archives),
//   2. search the effective rank (§3.2), bringing every row up to each
//      candidate rank with targeted measurement batches before scoring it,
//   3. final hybrid ALS completion at the estimated rank,
//   4. pick the decision threshold lambda maximizing F-score on a held-out
//      slice of E_m.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/rank_estimator.hpp"
#include "core/scheduler.hpp"

namespace metas::core {

struct PipelineConfig {
  SchedulerConfig scheduler;
  RankEstimatorConfig rank;  // rank.als also fits the final completion
  std::uint64_t seed = 23;
};

struct PipelineResult {
  int estimated_rank = 1;
  EstimatedMatrix estimated;   // E_m after all measurements
  linalg::Matrix ratings;      // completed ratings C_m in [-1, 1]
  double threshold = 0.0;      // chosen lambda
  std::size_t targeted_traceroutes = 0;
  RankEstimateResult rank_detail;
  std::vector<IssuedRecord> measurement_log;
  /// How gracefully the measurement campaign degraded under infrastructure
  /// faults (inert numbers when no faults are injected) and under
  /// cancellation / deadline expiry (the crash-safety fields).
  DegradationReport degradation;
};

/// Optional crash-safety controls for one pipeline run.  The defaults are
/// inert: no control polling, no checkpoint callbacks, no resume -- and a
/// run with default options is byte-identical to the pre-checkpoint code.
struct PipelineRunOptions {
  /// Cooperative stop control (SIGINT/SIGTERM token and/or deadline budget)
  /// polled between rank candidates, measurement batches and ALS sweeps.
  const util::RunControl* control = nullptr;  // lint: allow(view-member) -- optional caller-owned stop control; outlives the run() call
  /// Invoked at every rank boundary with the serialized resumable phase
  /// state (rank search + scheduler; decode_phase rebuilds the rest).  The
  /// caller wraps the blob with its own state and persists it atomically.
  std::function<void(const std::string& phase_blob)> checkpoint;
  /// A phase blob from a previous run's `checkpoint` callback; the rank
  /// search continues from that boundary, draw-for-draw identical to an
  /// uninterrupted run.  The surrounding MeasurementSystem / engine / fault
  /// state must already be restored by the caller.  run() throws
  /// CheckpointError when the blob does not decode to a state this metro
  /// and config can reach.
  const std::string* resume_blob = nullptr;  // lint: allow(view-member) -- caller-owned blob read once at run() entry
};

class MetascriticPipeline {
 public:
  MetascriticPipeline(const MetroContext& ctx, MeasurementSystem& ms,
                      StrategyPriors* priors, PipelineConfig cfg)
      : ctx_(&ctx), ms_(&ms), priors_(priors), cfg_(cfg) {}

  /// Runs measurement + completion and returns the completed metro.  With
  /// default options this is the legacy uninterruptible behaviour; see
  /// PipelineRunOptions for checkpoint/cancel/resume hooks.
  PipelineResult run(const PipelineRunOptions& opts = {});

  /// Throws CheckpointError unless run() would resume from `blob`: the
  /// same decode and checks, into scratch state, measuring nothing.
  void check_resume(const std::string& blob) const;

 private:
  const MetroContext* ctx_;  // lint: allow(view-member) -- caller owns the context; a pipeline is a one-shot driver inside its scope
  MeasurementSystem* ms_;  // lint: allow(view-member) -- caller owns the measurement system alongside ctx_ for the pipeline's run
  StrategyPriors* priors_;  // lint: allow(view-member) -- may be null; caller-owned cross-metro state updated with this metro's counts
  PipelineConfig cfg_;
};

/// Decodes a phase blob into `search` and `scheduler`, both fresh and the
/// scheduler built on a fresh P_m: the scheduler replays its records into
/// P_m, and the search replays its (rank, MSE) history through
/// RankSearch::accept.  Throws CheckpointError on trailing bytes or unless
/// a run under `cfg` reaches the search: ranks 1..k in order, k <= max_rank,
/// none after the search finished, and every MSE finite and non-negative.
void decode_phase(const std::string& blob, const RankEstimatorConfig& cfg,
                  RankSearch& search, MeasurementScheduler& scheduler);

/// Picks the lambda in [-1, 1] maximizing F-score of sign agreement between
/// completed ratings and a sample of E_m entries (positive label: value > 0).
double tune_threshold(const AlsCompleter& completer,
                      const std::vector<RatingEntry>& labelled);

}  // namespace metas::core
