// Iterative effective-rank estimation (§3.2).
//
// Starting from rank 1, each candidate rank is scored on E_m: a few entries
// per row are held out, the matrix is completed at the candidate rank, and
// the MSE is taken on the held-out entries of rows that have more entries
// than the candidate rank.  The estimate is the rank with the lowest MSE
// once several candidates stop improving.  The measured search (the
// pipeline brings every row up to the candidate rank before each step) and
// the post-hoc search on a fixed matrix (§4.2) advance the same RankSearch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/als.hpp"
#include "util/rng.hpp"

namespace metas::core {

struct RankEstimatorConfig {
  int max_rank = 48;
  int patience = 3;            // non-improving iterations before stopping
  double min_improvement = 1e-4;   // absolute MSE improvement floor
  double rel_improvement = 0.02;   // and a 2% relative improvement floor
  std::size_t budget_per_iteration = 4000;  // traceroutes per rank step
  AlsConfig als;               // rank is overridden each iteration
  std::uint64_t seed = 17;
};

struct RankEstimateResult {
  int best_rank = 1;
  double best_mse = 0.0;
  std::vector<std::pair<int, double>> history;  // (rank, holdout MSE)
  /// True when a cooperative stop cut the search before its natural end.
  bool truncated = false;
};

/// The live state of one §3.2 search, seeded with the config's `seed`.
/// `RankEstimator::step` advances it one candidate at a time.  A
/// checkpoint stores only the holdout RNG and the (rank, MSE) history:
/// every other field is what `accept` made of that history, so a decoder
/// replays it through `accept` and the search continues draw-for-draw.
struct RankSearch {
  explicit RankSearch(std::uint64_t seed = 0) : rng(seed) {}

  int next_rank = 1;       // candidate the search scores next
  double best = 1e30;      // best holdout MSE so far (1e30 = none yet)
  int no_improve = 0;      // consecutive candidates that missed
  bool finished = false;   // the search ended; `result` is final
  util::Rng rng;           // holdout RNG stream position
  RankEstimateResult result;

  /// Records candidate `next_rank`'s holdout MSE and applies the §3.2
  /// acceptance rule: the first candidate is always accepted, a later one
  /// must beat the best MSE by max(min_improvement, rel_improvement *
  /// best).  The search finishes after `patience` misses in a row or at
  /// `max_rank`.
  void accept(double mse, const RankEstimatorConfig& cfg);

  /// Checkpoint field list (util/checkpoint.hpp): the phase blob's lead.
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar) {
    ar(s.rng, s.result.history);
  }
};

class RankEstimator {
 public:
  RankEstimator(const MetroContext& ctx, const FeatureMatrix& features,
                RankEstimatorConfig cfg)
      : ctx_(&ctx), features_(&features), cfg_(cfg) {}

  /// Scores `search.next_rank` on `e` and hands the MSE to
  /// `RankSearch::accept`.  Returns the candidate's holdout MSE.
  double step(RankSearch& search, const EstimatedMatrix& e) const;

  /// Scores candidate ranks on a fixed matrix without new measurements:
  /// the post-hoc tuning mode of §4.2 for baseline strategies.
  RankEstimateResult run_static(const EstimatedMatrix& e) const;

 private:
  double holdout_mse(const EstimatedMatrix& e, int rank,
                     util::Rng& rng) const;
  double holdout_mse_once(const EstimatedMatrix& e, int rank,
                          util::Rng& rng) const;

  const MetroContext* ctx_;  // lint: allow(view-member) -- caller-owned context; estimators are transient within one metro run
  const FeatureMatrix* features_;  // lint: allow(view-member) -- caller-owned factor matrix; read-only for the estimator's short life
  RankEstimatorConfig cfg_;
};

}  // namespace metas::core
