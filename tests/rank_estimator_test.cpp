// Rank-estimation tests (§3.2): recovering a planted effective rank from a
// partially observed matrix (the controlled experiment of Appx. E.5).
#include "core/rank_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "test_world.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace metas::core {
namespace {

// Builds an EstimatedMatrix whose entries are a random sample of a planted
// *continuous* rank-k matrix plus small noise -- the construction of the
// paper's controlled experiment (Appx. E.5).
EstimatedMatrix planted_sample(std::size_t n, std::size_t k, double frac,
                               util::Rng& rng) {
  double scale = 1.0 / std::sqrt(static_cast<double>(k));
  std::vector<std::vector<double>> x(n, std::vector<double>(k));
  for (auto& row : x)
    for (double& v : row) v = rng.normal(0.0, scale);
  EstimatedMatrix e(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() > frac) continue;
      double s = rng.normal(0.0, 0.01);
      for (std::size_t d = 0; d < k; ++d) s += x[i][d] * x[j][d];
      e.set(i, j, std::clamp(s, -1.0, 1.0));
    }
  }
  return e;
}

TEST(RankEstimator, StaticModeFindsPlantedRankBallpark) {
  util::Rng rng(42);
  const std::size_t planted = 4;
  EstimatedMatrix e = planted_sample(60, planted, 0.6, rng);

  MetroContext ctx = testing::shared_focus_context();
  // Use an empty feature matrix: the planted structure has no side info.
  FeatureMatrix feats;
  RankEstimatorConfig cfg;
  cfg.max_rank = 16;
  cfg.patience = 4;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;  // continuous planted values
  cfg.als.balance_classes = false;
  RankEstimator est(ctx, feats, cfg);
  RankEstimateResult res = est.run_static(e);
  EXPECT_GE(res.best_rank, 2);
  EXPECT_LE(res.best_rank, 10);
  ASSERT_FALSE(res.history.empty());
  // History is (rank, mse) ascending in rank.
  for (std::size_t h = 1; h < res.history.size(); ++h)
    EXPECT_EQ(res.history[h].first, res.history[h - 1].first + 1);
  // Best MSE is near the minimum of the recorded history (the acceptance
  // rule requires a relative improvement, so small later dips may not be
  // adopted).
  double best = 1e30;
  for (auto [r, m] : res.history) best = std::min(best, m);
  EXPECT_LE(res.best_mse, best * (1.0 + cfg.rel_improvement) + cfg.min_improvement);
}

TEST(RankEstimator, HigherPlantedRankGivesHigherEstimate) {
  util::Rng rng(43);
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats;
  RankEstimatorConfig cfg;
  cfg.max_rank = 20;
  cfg.patience = 4;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;
  cfg.als.balance_classes = false;
  cfg.seed = 5;
  RankEstimator est(ctx, feats, cfg);

  EstimatedMatrix low = planted_sample(60, 2, 0.7, rng);
  EstimatedMatrix high = planted_sample(60, 10, 0.7, rng);
  int r_low = est.run_static(low).best_rank;
  int r_high = est.run_static(high).best_rank;
  EXPECT_LT(r_low, r_high);
}

TEST(RankEstimator, StopsEarlyWithPatience) {
  util::Rng rng(44);
  EstimatedMatrix e = planted_sample(40, 2, 0.7, rng);
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats;
  RankEstimatorConfig cfg;
  cfg.max_rank = 30;
  cfg.patience = 2;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;
  cfg.als.balance_classes = false;
  RankEstimator est(ctx, feats, cfg);
  RankEstimateResult res = est.run_static(e);
  // With a rank-2 matrix the loop must stop well before max_rank.
  EXPECT_LT(static_cast<int>(res.history.size()), cfg.max_rank);
}

TEST(RankEstimator, DrivenModeIssuesMeasurements) {
  auto& w = testing::shared_world();
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats = encode_features(ctx);
  ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  SchedulerConfig scfg;
  scfg.batch_size = 60;
  scfg.seed = 3;
  MeasurementScheduler sched(ctx, *w.ms, pm, scfg);
  RankEstimatorConfig cfg;
  cfg.max_rank = 6;
  cfg.patience = 2;
  cfg.budget_per_iteration = 200;
  RankEstimator est(ctx, feats, cfg);
  // The pipeline's loop, without its stop polls and checkpoints: bring
  // every row up to the candidate rank, then score the candidate.
  RankSearch search(cfg.seed);
  while (!search.finished) {
    sched.fill_rows_to(search.next_rank, cfg.budget_per_iteration);
    est.step(search, w.ms->matrix(ctx));
  }
  int spent = 0;
  for (const IssuedRecord& r : sched.history()) spent += r.spent;
  EXPECT_GT(spent, 0);
  EXPECT_FALSE(sched.history().empty());
  EXPECT_GE(search.result.best_rank, 1);
  EXPECT_FALSE(search.result.history.empty());
}

RankEstimatorConfig planted_config() {
  RankEstimatorConfig cfg;
  cfg.max_rank = 12;
  cfg.patience = 3;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;
  cfg.als.balance_classes = false;
  return cfg;
}

std::string encoded(const RankSearch& search) {
  util::checkpoint::Encoder enc;
  enc(search);
  return enc.take();
}

std::string encoded(const util::Rng& rng) {
  util::checkpoint::Encoder enc;
  enc(rng);
  return enc.take();
}

/// `search` written into a phase blob beside a fresh scheduler and read
/// back by decode_phase, as a resume reads it.
RankSearch resumed(const RankSearch& search, const RankEstimatorConfig& cfg) {
  eval::World& w = testing::shared_world();
  const MetroContext ctx = testing::shared_focus_context();
  ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  MeasurementScheduler sched(ctx, *w.ms, pm, {});
  util::checkpoint::Encoder enc;
  enc(search, sched);
  RankSearch out;
  decode_phase(enc.data(), cfg, out, sched);
  return out;
}

// A checkpoint stores the search between two candidates: its RNG and its
// (rank, MSE) history.  Decoded into a fresh RankSearch, the search must
// finish exactly as the uninterrupted one does, whichever boundaries it
// crossed.
TEST(RankEstimator, ResumedSearchMatchesAnUninterruptedOne) {
  util::Rng rng(45);
  const EstimatedMatrix e = planted_sample(40, 3, 0.7, rng);
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats;
  const RankEstimatorConfig cfg = planted_config();
  const RankEstimator est(ctx, feats, cfg);

  const RankEstimateResult want = est.run_static(e);
  RankSearch uninterrupted(cfg.seed);
  while (!uninterrupted.finished) {
    // Each candidate draws its holdout splits further down one stream, so
    // the position a checkpoint carries moves with every step.
    const std::string before = encoded(uninterrupted.rng);
    est.step(uninterrupted, e);
    EXPECT_NE(encoded(uninterrupted.rng), before)
        << "rank " << uninterrupted.next_rank - 1;
  }
  ASSERT_GE(want.history.size(), 3u);

  for (std::size_t k = 1; k <= want.history.size(); ++k) {
    SCOPED_TRACE("checkpoint every " + std::to_string(k) + " steps");
    RankSearch search(cfg.seed);
    while (!search.finished) {
      for (std::size_t s = 0; s < k && !search.finished; ++s)
        est.step(search, e);
      RankSearch loaded = resumed(search, cfg);
      ASSERT_EQ(encoded(loaded), encoded(search));
      ASSERT_EQ(loaded.next_rank, search.next_rank);
      ASSERT_EQ(loaded.no_improve, search.no_improve);
      ASSERT_EQ(loaded.finished, search.finished);
      search = std::move(loaded);
    }
    EXPECT_EQ(encoded(search), encoded(uninterrupted));
    const RankEstimateResult& got = search.result;
    EXPECT_EQ(got.best_rank, want.best_rank);
    EXPECT_EQ(got.best_mse, want.best_mse);  // bit for bit
    EXPECT_EQ(got.history, want.history);
    EXPECT_EQ(got.truncated, want.truncated);
  }
}

struct Replayed {
  int best_rank = 0;
  double best_mse = 0.0;
  int stop_rank = 0;  // 0 = the rule never stopped
};

// The §3.2 acceptance rule, written out on its own: the first candidate is
// accepted; a later one is accepted when it beats the best MSE by
// max(min_improvement, rel_improvement * best); the search stops after
// `patience` misses in a row or at max_rank.
Replayed replay(const std::vector<std::pair<int, double>>& history,
                const RankEstimatorConfig& cfg) {
  Replayed r;
  int misses = 0;
  for (std::size_t k = 0; k < history.size(); ++k) {
    const auto [rank, mse] = history[k];
    const double margin =
        std::max(cfg.min_improvement, cfg.rel_improvement * r.best_mse);
    if (k == 0 || mse < r.best_mse - margin) {
      r.best_rank = rank;
      r.best_mse = mse;
      misses = 0;
    } else {
      ++misses;
    }
    if (misses == cfg.patience || rank == cfg.max_rank) {
      r.stop_rank = rank;
      break;
    }
  }
  return r;
}

TEST(RankEstimator, AcceptanceRuleMatchesAReplay) {
  util::Rng rng(46);
  const EstimatedMatrix planted = planted_sample(40, 3, 0.7, rng);
  // One entry per row leaves nothing to hold out, so every candidate
  // scores the same MSE: a tie, which is a miss.
  EstimatedMatrix ties(40);
  for (std::size_t i = 0; i + 1 < 40; i += 2) ties.set(i, i + 1, 0.5);
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats;

  struct Case {
    const char* what;
    const EstimatedMatrix* e;
    int patience;
    double rel_improvement;
    double min_improvement;
    int max_rank;
  };
  const std::vector<Case> cases = {
      {"patience 1", &planted, 1, 0.02, 1e-4, 12},
      {"patience 2", &planted, 2, 0.02, 1e-4, 12},
      {"patience 4", &planted, 4, 0.02, 1e-4, 12},
      {"no relative floor", &planted, 2, 0.0, 1e-4, 12},
      {"max_rank before patience", &planted, 4, 0.02, 1e-4, 3},
      {"ties", &ties, 2, 0.0, 0.0, 12},
  };
  bool max_rank_stopped = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    RankEstimatorConfig cfg = planted_config();
    cfg.patience = c.patience;
    cfg.rel_improvement = c.rel_improvement;
    cfg.min_improvement = c.min_improvement;
    cfg.max_rank = c.max_rank;
    const RankEstimateResult got =
        RankEstimator(ctx, feats, cfg).run_static(*c.e);
    ASSERT_FALSE(got.history.empty());
    const Replayed want = replay(got.history, cfg);
    EXPECT_EQ(got.best_rank, want.best_rank);
    EXPECT_EQ(got.best_mse, want.best_mse);
    EXPECT_EQ(got.history.back().first, want.stop_rank);
    if (want.stop_rank == c.max_rank) max_rank_stopped = true;
  }
  EXPECT_TRUE(max_rank_stopped) << "no case ended at max_rank";
}

}  // namespace
}  // namespace metas::core
