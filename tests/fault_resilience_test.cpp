// End-to-end resilience tests: determinism under injected faults, inert-
// profile bit-compatibility through the whole pipeline, infra-failure
// accounting in the scheduler, and row-fill recovery under the moderate
// fault profile.
#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.hpp"
#include "core/scheduler.hpp"
#include "eval/world.hpp"
#include "test_world.hpp"

namespace metas {
namespace {

core::PipelineResult run_pipeline(eval::World& w) {
  core::MetroContext ctx(w.net, w.focus_metros.front());
  core::PipelineConfig pc;
  pc.scheduler.batch_size = 60;
  core::MetascriticPipeline pipeline(ctx, *w.ms, nullptr, pc);
  return pipeline.run();
}

void expect_bit_identical(const core::PipelineResult& r1,
                          const core::PipelineResult& r2) {
  EXPECT_EQ(r1.estimated_rank, r2.estimated_rank);
  EXPECT_EQ(r1.threshold, r2.threshold);
  EXPECT_EQ(r1.targeted_traceroutes, r2.targeted_traceroutes);
  const core::EstimatedMatrix& e1 = r1.estimated;
  const core::EstimatedMatrix& e2 = r2.estimated;
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i)
    for (std::size_t j = 0; j < e1.size(); ++j) {
      ASSERT_EQ(e1.filled(i, j), e2.filled(i, j)) << i << "," << j;
      if (e1.filled(i, j)) {
        ASSERT_EQ(e1.value(i, j), e2.value(i, j)) << i << "," << j;
      }
    }
  ASSERT_EQ(r1.ratings.rows(), r2.ratings.rows());
  for (std::size_t i = 0; i < r1.ratings.rows(); ++i)
    for (std::size_t j = 0; j < r1.ratings.cols(); ++j)
      ASSERT_EQ(r1.ratings(i, j), r2.ratings(i, j)) << i << "," << j;
}

// Budget identity: fill_rows_to's return value must equal the per-record
// spend recorded in the history.
std::size_t history_spend(const core::MeasurementScheduler& sched) {
  std::size_t total = 0;
  for (const core::IssuedRecord& rec : sched.history())
    total += static_cast<std::size_t>(rec.spent);
  return total;
}

TEST(FaultResilienceTest, SameSeedSameResultsUnderFaults) {
  auto cfg = eval::small_world_config(777);
  cfg.public_archive_traces = 4000;
  cfg.faults = traceroute::FaultProfile::flaky();

  eval::World w1 = eval::build_world(cfg);
  eval::World w2 = eval::build_world(cfg);
  core::PipelineResult r1 = run_pipeline(w1);
  core::PipelineResult r2 = run_pipeline(w2);
  expect_bit_identical(r1, r2);
  // The fault plane actually fired in both runs.
  ASSERT_NE(w1.faults, nullptr);
  EXPECT_GT(w1.faults->faults_injected(), 0u);
  EXPECT_EQ(w1.faults->faults_injected(), w2.faults->faults_injected());
}

TEST(FaultResilienceTest, NoneProfileMatchesSeedPipeline) {
  auto cfg = eval::small_world_config(31337);
  cfg.public_archive_traces = 4000;

  // w1: no injector at all (the pre-fault-layer configuration).
  eval::World w1 = eval::build_world(cfg);
  ASSERT_EQ(w1.faults, nullptr);
  // w2: an inert injector explicitly attached.
  eval::World w2 = eval::build_world(cfg);
  traceroute::FaultInjector inert(traceroute::FaultProfile::none());
  w2.engine->set_fault_injector(&inert);

  core::PipelineResult r1 = run_pipeline(w1);
  core::PipelineResult r2 = run_pipeline(w2);
  expect_bit_identical(r1, r2);
  EXPECT_EQ(inert.clock(), 0u);
}

TEST(FaultResilienceTest, InfraFailuresNeverGiveUpRows) {
  // Total probe loss: every attempt launches and times out.  Measurements
  // are infra failures, never uninformative strategy outcomes, so no row may
  // be given up because of them.
  auto cfg = eval::small_world_config(2024);
  cfg.public_archive_traces = 1500;
  cfg.faults.loss = 1.0;
  eval::World w = eval::build_world(cfg);

  core::MetroContext ctx(w.net, w.focus_metros.front());
  core::ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  core::SchedulerConfig sc;
  sc.seed = 5;
  sc.batch_size = 40;
  sc.row_fail_limit = 1;  // hair trigger: any strategy failure gives up a row
  core::MeasurementScheduler sched(ctx, *w.ms, pm, sc);
  std::size_t issued = sched.fill_rows_to(3, 400);

  ASSERT_FALSE(sched.history().empty());
  std::size_t infra_records = 0;
  for (const core::IssuedRecord& rec : sched.history()) {
    // Every probe that launched was lost, so any record that attempted
    // anything must be an infra failure; none may claim information.
    if (rec.attempts > 0) {
      EXPECT_TRUE(rec.infra_failure);
    }
    EXPECT_FALSE(rec.informative);
    if (rec.infra_failure) ++infra_records;
  }
  EXPECT_GT(infra_records, 0u);
  EXPECT_EQ(issued, history_spend(sched));

  const core::DegradationReport& d = sched.degradation();
  EXPECT_EQ(d.infra_failures, infra_records);
  EXPECT_GT(d.probes_faulted, 0u);
  EXPECT_GT(d.requeues, 0u);

  // Give-ups may only come from legacy strategy outcomes (a pick with no
  // usable strategy, or a selection collision -- records with zero attempts
  // and no infra flag), never from an infra failure: for every given-up row
  // there must be such a non-infra record, and no infra record may have
  // pushed the row's fail streak.
  const int n = static_cast<int>(ctx.size());
  for (int i = 0; i < n; ++i) {
    if (!sched.given_up()[static_cast<std::size_t>(i)]) continue;
    bool has_legacy_failure = false;
    for (const core::IssuedRecord& rec : sched.history()) {
      if (rec.i != i || rec.exploration) continue;
      if (!rec.infra_failure && !rec.informative) has_legacy_failure = true;
    }
    EXPECT_TRUE(has_legacy_failure)
        << "row " << i << " given up without any non-infra failure";
  }
}

TEST(FaultResilienceTest, ResilienceRecoversRowFill) {
  const int target = 4;
  const std::size_t budget = 2500;
  auto fill_with = [&](traceroute::FaultProfile faults, bool resilient) {
    auto cfg = eval::small_world_config(555);
    cfg.public_archive_traces = 6000;
    cfg.faults = faults;
    cfg.resilience.enabled = resilient;
    eval::World w = eval::build_world(cfg);
    core::MetroContext ctx(w.net, w.focus_metros.front());
    core::ProbabilityMatrix pm(ctx, *w.ms, nullptr);
    core::SchedulerConfig sc;
    sc.seed = 9;
    sc.batch_size = 80;
    core::MeasurementScheduler sched(ctx, *w.ms, pm, sc);
    std::size_t issued = sched.fill_rows_to(target, budget);
    EXPECT_EQ(issued, history_spend(sched));
    // The world's flag alone must switch the scheduler's requeue path off.
    if (!resilient) {
      EXPECT_EQ(sched.degradation().requeues, 0u);
    }
    return sched.degradation().fill_fraction;
  };

  double baseline = fill_with(traceroute::FaultProfile::none(), true);
  double resilient = fill_with(traceroute::FaultProfile::flaky(), true);
  double degraded = fill_with(traceroute::FaultProfile::flaky(), false);

  ASSERT_GT(baseline, 0.0);
  // Acceptance criterion: the moderate profile with resilience on retains at
  // least 90% of the fault-free row fill.
  EXPECT_GE(resilient, 0.9 * baseline)
      << "baseline=" << baseline << " resilient=" << resilient;
  // The ablated path has no failover/requeue and should do no better.
  EXPECT_GE(resilient + 0.05, degraded)
      << "resilient=" << resilient << " degraded=" << degraded;
}

TEST(FaultResilienceTest, ExplorationFlagRecorded) {
  auto& w = metas::testing::shared_world();
  core::MetroContext ctx = metas::testing::shared_focus_context();
  core::ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  core::SchedulerConfig sc;
  sc.policy = core::SelectionPolicy::kOnlyExplore;
  sc.batch_size = 20;
  sc.seed = 3;
  core::MeasurementScheduler sched(ctx, *w.ms, pm, sc);
  core::EstimatedMatrix e = w.ms->build_matrix(ctx);
  sched.run_batch(e, 8);
  ASSERT_FALSE(sched.history().empty());
  for (const core::IssuedRecord& rec : sched.history())
    EXPECT_TRUE(rec.exploration);

  core::SchedulerConfig sx = sc;
  sx.policy = core::SelectionPolicy::kOnlyExploit;
  core::MeasurementScheduler exploit(ctx, *w.ms, pm, sx);
  exploit.run_batch(e, 8);
  for (const core::IssuedRecord& rec : exploit.history())
    EXPECT_FALSE(rec.exploration);
}

}  // namespace
}  // namespace metas
