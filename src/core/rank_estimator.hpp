// Iterative effective-rank estimation (§3.2).
//
// Starting from rank 1, each iteration (i) asks the scheduler to bring every
// row of E_m up to the candidate rank, (ii) holds out a few entries per row,
// (iii) completes the matrix at the candidate rank, and (iv) scores the MSE
// on the held-out entries of rows that have more entries than the candidate
// rank.  The estimate is the rank with the lowest MSE once several
// iterations stop improving.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/als.hpp"
#include "core/scheduler.hpp"

namespace metas::core {

struct RankEstimatorConfig {
  int max_rank = 48;
  int patience = 3;            // non-improving iterations before stopping
  double min_improvement = 1e-4;   // absolute MSE improvement floor
  double rel_improvement = 0.02;   // and a 2% relative improvement floor
  int holdout_per_row = 3;     // entries removed per row for validation
  int holdout_repeats = 2;     // averaged splits per rank (damps MSE noise)
  std::size_t budget_per_iteration = 4000;  // traceroutes per rank step
  AlsConfig als;               // rank is overridden each iteration
  std::uint64_t seed = 17;
};

struct RankEstimateResult {
  int best_rank = 1;
  double best_mse = 0.0;
  std::vector<std::pair<int, double>> history;  // (rank, holdout MSE)
  std::size_t traceroutes_used = 0;
  /// True when a cooperative stop cut the loop before its natural end.
  bool truncated = false;
};

/// Mid-loop snapshot of the rank-estimation iteration, captured at every
/// rank boundary.  Restoring it and re-running `RankEstimator::run` with
/// the same config and measurement state continues the loop exactly where
/// it stopped, draw-for-draw.
struct RankLoopState {
  int next_rank = 1;       // candidate the loop evaluates next
  double best = 1e30;      // best holdout MSE so far (1e30 = none yet)
  int no_improve = 0;      // consecutive non-improving iterations
  bool finished = false;   // loop already ended; `partial` is final
  util::Rng rng{0};        // holdout RNG stream position
  RankEstimateResult partial;

  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);
};

/// Optional controls for a resumable / cancellable estimation run.  The
/// default options reproduce the legacy behaviour exactly.
struct RankRunOptions {
  const util::RunControl* control = nullptr;  // lint: allow(view-member) -- optional stop control owned by the pipeline's caller; may be null
  /// Invoked after every completed rank iteration with the state a resume
  /// at that boundary needs (the pipeline's checkpoint hook).  An iteration
  /// whose measurement campaign a stop may have cut short is not completed:
  /// the loop ends as truncated before scoring it.
  std::function<void(const RankLoopState&)> on_iteration;
  const RankLoopState* resume = nullptr;  // lint: allow(view-member) -- caller-owned snapshot read once at run() entry
};

class RankEstimator {
 public:
  RankEstimator(const MetroContext& ctx, const FeatureMatrix& features,
                RankEstimatorConfig cfg)
      : ctx_(&ctx), features_(&features), cfg_(cfg) {}

  /// Runs the estimation loop, driving `scheduler` for targeted
  /// measurements. Pass a nullptr scheduler to estimate on a static matrix
  /// (the post-hoc hyperparameter mode used by the baselines in §4.2).
  /// `opts` adds cooperative cancellation, per-iteration checkpoint hooks
  /// and mid-loop resume; the defaults change nothing.
  RankEstimateResult run(MeasurementScheduler* scheduler,
                         MeasurementSystem& ms,
                         const RankRunOptions& opts = {});

  /// Scores candidate ranks on a fixed matrix without new measurements:
  /// the post-hoc tuning mode of §4.2 for baseline strategies.
  RankEstimateResult run_static(const EstimatedMatrix& e);

 private:
  double holdout_mse(const EstimatedMatrix& e, int rank,
                     util::Rng& rng) const;
  double holdout_mse_once(const EstimatedMatrix& e, int rank,
                          util::Rng& rng) const;
  /// The §3.2 acceptance rule, shared by both loops: records the
  /// candidate's holdout MSE and accepts it when it beats `best` by
  /// max(min_improvement, rel_improvement * best); the first candidate is
  /// always accepted.  Returns true once `patience` candidates in a row
  /// missed, when the loop stops.
  bool record_candidate(int rank, double mse, double& best, int& no_improve,
                        RankEstimateResult& res) const;

  const MetroContext* ctx_;  // lint: allow(view-member) -- caller-owned context; estimators are transient within one metro run
  const FeatureMatrix* features_;  // lint: allow(view-member) -- caller-owned factor matrix; read-only for the estimator's short life
  RankEstimatorConfig cfg_;
};

}  // namespace metas::core
