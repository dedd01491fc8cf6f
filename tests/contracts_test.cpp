// Contract-layer tests: the MAC_* macros themselves (formatting, death on
// violation) and the load-bearing contracts they guard across the modules.
//
// Death tests only fire when contracts are compiled in; in Release builds
// (METASCRITIC_CONTRACTS == 0) they are skipped.  The asan-ubsan preset
// builds Debug with contracts forced on, so CI exercises every death path.
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/estimated_matrix.hpp"
#include "core/probability.hpp"
#include "core/scheduler.hpp"
#include "eval/world.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "topology/internet.hpp"
#include "test_world.hpp"

namespace metas {
namespace {

TEST(FormatContext, EmptyWhenNoParts) {
  EXPECT_EQ(util::contracts::format_context(), "");
}

TEST(FormatContext, StreamsMixedParts) {
  EXPECT_EQ(util::contracts::format_context("i=", 3, " p=", 0.5), "i=3 p=0.5");
}

TEST(ContractMacros, PassingContractsAreSilent) {
  MAC_REQUIRE(1 + 1 == 2, "arithmetic broke");
  MAC_ENSURE(true);
  MAC_ASSERT(42 > 0, "answer=", 42);
  SUCCEED();
}

#if METASCRITIC_CONTRACTS

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, RequireFailureAbortsWithDiagnostic) {
  EXPECT_DEATH(MAC_REQUIRE(false, "ctx=", 7),
               "MAC_REQUIRE.*contracts_test.*ctx=7");
}

TEST(ContractDeathTest, UnreachableAborts) {
  EXPECT_DEATH(MAC_UNREACHABLE("fell off a switch"), "MAC_UNREACHABLE");
}

TEST(ContractDeathTest, MatrixOutOfBoundsAccess) {
  linalg::Matrix m(2, 2);
  EXPECT_DEATH(static_cast<void>(m(5, 0)), "MAC_ASSERT");
  EXPECT_DEATH(static_cast<void>(m(0, 2)), "MAC_ASSERT");
}

TEST(ContractDeathTest, EigenRequiresSymmetry) {
  linalg::Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = -1.0;  // grossly asymmetric
  EXPECT_DEATH(linalg::eigen_symmetric(a), "MAC_REQUIRE");
}

TEST(ContractDeathTest, SolveRejectsNegativeLambda) {
  linalg::Matrix g(2, 2);
  g(0, 0) = g(1, 1) = 1.0;
  EXPECT_DEATH(linalg::cholesky_in_place(g.data(), 2, -0.5), "MAC_REQUIRE");
}

TEST(ContractDeathTest, EstimatedMatrixRejectsOutOfRangeValue) {
  core::EstimatedMatrix e(4);
  EXPECT_DEATH(e.set(0, 1, 2.0), "MAC_REQUIRE");
  EXPECT_DEATH(e.set(0, 1, std::numeric_limits<double>::quiet_NaN()),
               "MAC_REQUIRE");
}

TEST(ContractDeathTest, MetroTruthOutOfBoundsAndSelfLink) {
  topology::MetroTruth t(0, {10, 11, 12});
  EXPECT_DEATH(static_cast<void>(t.link(3, 0)), "MAC_ASSERT");
  EXPECT_DEATH(t.set_link(1, 1, true), "MAC_REQUIRE");
}

TEST(ContractDeathTest, FocusMetrosRequirePositiveCount) {
  topology::GeneratorConfig g;
  g.num_focus_metros = 0;
  EXPECT_DEATH(eval::focus_metro_ids(g), "MAC_REQUIRE");
}

// The scheduler / probability contracts need a real metro context; reuse the
// shared world so the death-test children fork with it already built.
class CoreContractDeathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = std::make_unique<core::MetroContext>(
        metas::testing::shared_focus_context());
  }
  static void TearDownTestSuite() { ctx_.reset(); }
  static std::unique_ptr<core::MetroContext> ctx_;
};

std::unique_ptr<core::MetroContext> CoreContractDeathTest::ctx_;

TEST_F(CoreContractDeathTest, RecordedProbabilityMustBeInUnitRange) {
  auto& w = metas::testing::shared_world();
  core::ProbabilityMatrix pm(*ctx_, *w.ms, nullptr);
  core::StrategyChoice choice = pm.choose(0, 1);
  choice.probability = 2.0;
  EXPECT_DEATH(pm.record(0, 1, choice, true), "MAC_REQUIRE");
}

TEST_F(CoreContractDeathTest, SchedulerConfigMustBeValid) {
  auto& w = metas::testing::shared_world();
  core::ProbabilityMatrix pm(*ctx_, *w.ms, nullptr);
  core::SchedulerConfig bad;
  bad.batch_size = 0;
  EXPECT_DEATH(core::MeasurementScheduler(*ctx_, *w.ms, pm, bad),
               "MAC_REQUIRE");
  bad = {};
  bad.epsilon = 1.5;
  EXPECT_DEATH(core::MeasurementScheduler(*ctx_, *w.ms, pm, bad),
               "MAC_REQUIRE");
}

TEST_F(CoreContractDeathTest, FillRowsRequiresPositiveTarget) {
  auto& w = metas::testing::shared_world();
  core::ProbabilityMatrix pm(*ctx_, *w.ms, nullptr);
  core::MeasurementScheduler sched(*ctx_, *w.ms, pm, core::SchedulerConfig{});
  EXPECT_DEATH(sched.fill_rows_to(0, 10), "MAC_REQUIRE");
}

#else  // !METASCRITIC_CONTRACTS

TEST(ContractDeathTest, SkippedWithoutContracts) {
  GTEST_SKIP() << "contracts compiled out (METASCRITIC_CONTRACTS=0); "
                  "death tests run under the debug/asan-ubsan presets";
}

#endif  // METASCRITIC_CONTRACTS

}  // namespace
}  // namespace metas
