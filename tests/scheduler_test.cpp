// Measurement-scheduler tests: batches, policies, exploration limits,
// give-up behaviour.
#include "core/scheduler.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "traceroute/faults.hpp"
#include "util/rng.hpp"

namespace metas::core {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_unique<MetroContext>(testing::shared_focus_context());
    pm_ = std::make_unique<ProbabilityMatrix>(
        *ctx_, *testing::shared_world().ms, nullptr);
  }
  SchedulerConfig cfg_with(SelectionPolicy p, int batch = 40) {
    SchedulerConfig cfg;
    cfg.policy = p;
    cfg.batch_size = batch;
    cfg.seed = 77;
    return cfg;
  }
  std::unique_ptr<MetroContext> ctx_;
  std::unique_ptr<ProbabilityMatrix> pm_;
};

TEST_F(SchedulerTest, BatchIssuesMeasurementsAndLogsHistory) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kMetascritic));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  std::size_t before = w.ms->traceroutes_issued();
  BatchResult got = sched.run_batch(e, 5);
  EXPECT_GT(got.selected, 0u);
  EXPECT_EQ(sched.history().size(), got.selected);
  EXPECT_LE(got.launched, got.selected);
  EXPECT_GE(w.ms->traceroutes_issued(), before);
  for (const auto& rec : sched.history()) {
    EXPECT_GE(rec.i, 0);
    EXPECT_GE(rec.j, 0);
    EXPECT_NE(rec.i, rec.j);
    EXPECT_GE(rec.estimated_prob, 0.0);
    EXPECT_LE(rec.estimated_prob, 1.0);
  }
}

TEST_F(SchedulerTest, FillRowsStopsWhenSatisfied) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kMetascritic, 60));
  // Target 1: the archives almost certainly filled one entry per row already
  // for most rows, so this should finish with few or no measurements.
  std::size_t issued = sched.fill_rows_to(1, 500);
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  std::size_t deficient = 0;
  for (std::size_t i = 0; i < ctx_->size(); ++i)
    if (e.row_filled(i) < 1 && !sched.given_up()[i]) ++deficient;
  EXPECT_EQ(deficient, 0u);
  EXPECT_LE(issued, 500u);
}

TEST_F(SchedulerTest, BudgetIsRespected) {
  auto& w = testing::shared_world();
  SchedulerConfig cfg = cfg_with(SelectionPolicy::kMetascritic, 25);
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_, cfg);
  std::size_t issued = sched.fill_rows_to(30, 50);
  EXPECT_LE(issued, 50u + static_cast<std::size_t>(cfg.batch_size));
}

TEST_F(SchedulerTest, RandomPolicyRuns) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kRandom));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  EXPECT_GT(sched.run_batch(e, 10).selected, 0u);
}

TEST_F(SchedulerTest, GreedyPolicyPicksHighProbabilityEntriesFirst) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kGreedy, 30));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  ASSERT_GT(sched.run_batch(e, 10).selected, 0u);
  // Recorded estimated probabilities are non-increasing-ish: check the
  // first pick is at least as probable as the last.
  const auto& h = sched.history();
  ASSERT_GE(h.size(), 2u);
  EXPECT_GE(h.front().estimated_prob + 1e-9, h.back().estimated_prob);
}

TEST_F(SchedulerTest, OnlyExplorePolicyMarksExploration) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kOnlyExplore, 20));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  BatchResult got = sched.run_batch(e, 10);
  // Exploration is limited to one per row per batch, so the count is
  // bounded by half the universe.
  EXPECT_LE(got.selected, ctx_->size() / 2 + 1);
}

TEST_F(SchedulerTest, ExplorationNeverRepeatsAnEntry) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kOnlyExplore, 15));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  sched.run_batch(e, 10);
  sched.run_batch(e, 10);
  std::set<std::pair<int, int>> seen;
  for (const auto& rec : sched.history()) {
    auto key = std::minmax(rec.i, rec.j);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "entry explored twice: " << rec.i << "," << rec.j;
  }
}

TEST_F(SchedulerTest, MeasurementsImproveCoverage) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kMetascritic, 120));
  EstimatedMatrix before = w.ms->build_matrix(*ctx_);
  sched.fill_rows_to(8, 600);
  EstimatedMatrix after = w.ms->build_matrix(*ctx_);
  EXPECT_GE(after.total_filled(), before.total_filled());
}

// ---- Invariants over random configs and every fault profile -----------

/// Config k of a seeded sweep.  Every policy appears three times, and the
/// range ends are forced: epsilon 0 and 1 (under kMetascritic), batch_size 1
/// and 300, row_fail_limit 1 and 8, exploit_min_prob 0 and 0.5.
SchedulerConfig sweep_config(int k) {
  constexpr std::array kPolicies = {
      SelectionPolicy::kMetascritic, SelectionPolicy::kOnlyExploit,
      SelectionPolicy::kOnlyExplore, SelectionPolicy::kRandom,
      SelectionPolicy::kGreedy,      SelectionPolicy::kIxpMapped};
  util::Rng rng(900 + static_cast<std::uint64_t>(k));
  SchedulerConfig c;
  c.policy = kPolicies[static_cast<std::size_t>(k) % kPolicies.size()];
  c.epsilon = k == 0 ? 0.0 : k == 6 ? 1.0 : rng.uniform();
  c.batch_size = k == 1 ? 1 : k == 7 ? 300 : rng.uniform_int(1, 300);
  c.row_fail_limit = k == 2 ? 1 : k == 8 ? 8 : rng.uniform_int(1, 8);
  c.exploit_min_prob = k == 3 ? 0.0 : k == 9 ? 0.5 : rng.uniform(0.0, 0.5);
  c.seed = 500 + static_cast<std::uint64_t>(k);
  return c;
}

/// Checks one scheduler: a fill_rows_to campaign, then `batches` direct
/// run_batch calls continuing it.
void check_invariants(eval::World& w, const MetroContext& ctx,
                      const SchedulerConfig& cfg, int target,
                      std::size_t budget, int batches) {
  ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  MeasurementScheduler sched(ctx, *w.ms, pm, cfg);
  const std::size_t n = ctx.size();

  // fill_rows_to's MAC_ENSURE, which Release compiles out: the batch that
  // crosses the budget line finishes, each pick failing over at most
  // max_attempts times.
  const std::size_t issued = sched.fill_rows_to(target, budget);
  EXPECT_LT(issued, budget + static_cast<std::size_t>(cfg.batch_size) *
                                 static_cast<std::size_t>(std::max(
                                     1, w.ms->resilience().max_attempts)));

  // A given-up row gets no later exploit pick in the campaign.  Random and
  // greedy picks are not the exploit arm and do not consult given_up().
  const bool exploit_arm = cfg.policy != SelectionPolicy::kRandom &&
                           cfg.policy != SelectionPolicy::kGreedy;
  std::vector<bool> given_up = sched.given_up();
  for (int b = 0; b < batches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::size_t from = sched.history().size();
    sched.run_batch(w.ms->matrix(ctx), target);
    std::vector<int> explored_rows(n, 0);
    for (std::size_t r = from; r < sched.history().size(); ++r) {
      const IssuedRecord& rec = sched.history()[r];
      const auto i = static_cast<std::size_t>(rec.i);
      const auto j = static_cast<std::size_t>(rec.j);
      if (rec.exploration) {
        EXPECT_EQ(explored_rows[i]++, 0) << "row " << i << " explored twice";
        EXPECT_EQ(explored_rows[j]++, 0) << "row " << j << " explored twice";
      } else if (exploit_arm) {
        EXPECT_FALSE(given_up[i]) << "given-up row " << i << " exploited";
      }
    }
    given_up = sched.given_up();
  }

  std::set<std::pair<int, int>> explored;
  for (const IssuedRecord& rec : sched.history()) {
    if (rec.exploration) {
      EXPECT_TRUE(explored.insert(std::minmax(rec.i, rec.j)).second)
          << "entry (" << rec.i << ", " << rec.j << ") explored twice";
    }
  }
}

TEST(SchedulerInvariantTest, RandomConfigsUnderEveryFaultProfile) {
  for (const char* profile : {"none", "flaky", "storm"}) {
    SCOPED_TRACE(profile);
    auto wc = eval::small_world_config(31);
    wc.compute_public_view = false;
    ASSERT_TRUE(traceroute::parse_fault_profile(profile, wc.faults));
    eval::World w = eval::build_world(wc);
    for (int k = 0; k < 18; ++k) {
      const SchedulerConfig cfg = sweep_config(k);
      SCOPED_TRACE("config " + std::to_string(k) + ": policy " +
                   std::to_string(static_cast<int>(cfg.policy)) + ", batch " +
                   std::to_string(cfg.batch_size) + ", epsilon " +
                   std::to_string(cfg.epsilon));
      const MetroContext ctx(
          w.net, w.focus_metros[static_cast<std::size_t>(k) %
                                w.focus_metros.size()]);
      util::Rng rng(40 + static_cast<std::uint64_t>(k));
      check_invariants(w, ctx, cfg, rng.uniform_int(1, 6),
                       static_cast<std::size_t>(rng.uniform_int(20, 300)), 3);
    }
  }
}

}  // namespace
}  // namespace metas::core
