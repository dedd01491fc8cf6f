// Probability-matrix (P_m) tests: availability, Beta updates, penalties,
// and hierarchical priors.
#include "core/probability.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "util/rng.hpp"

namespace metas::core {
namespace {

class ProbabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_unique<MetroContext>(testing::shared_focus_context());
    pm_ = std::make_unique<ProbabilityMatrix>(*ctx_, *testing::shared_world().ms,
                                              nullptr);
  }
  std::unique_ptr<MetroContext> ctx_;
  std::unique_ptr<ProbabilityMatrix> pm_;
};

TEST_F(ProbabilityTest, InitialStrategyProbsAreUniformPrior) {
  for (int s = 0; s < traceroute::kNumStrategies; ++s)
    EXPECT_NEAR(pm_->strategy_prob(s), 1.0 / 3.0, 1e-9);
}

TEST_F(ProbabilityTest, ChooseReturnsAvailableStrategy) {
  StrategyChoice c = pm_->choose(0, 1);
  EXPECT_GE(c.vp_cat, 0);
  EXPECT_GE(c.tgt_cat, 0);
  EXPECT_GT(c.probability, 0.0);
  EXPECT_LE(c.probability, 1.0);
}

TEST_F(ProbabilityTest, SuccessRaisesFailureLowersStrategyProb) {
  StrategyChoice c = pm_->choose(0, 1);
  int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
  double before = pm_->strategy_prob(s);
  pm_->record(0, 1, c, true);
  EXPECT_GT(pm_->strategy_prob(s), before);
  double after_success = pm_->strategy_prob(s);
  pm_->record(0, 1, c, false);
  EXPECT_LT(pm_->strategy_prob(s), after_success);
}

TEST_F(ProbabilityTest, RepeatedFailurePenalizesLink) {
  double p0 = pm_->entry_prob(2, 3);
  // Hammer the same link with failures. entry_prob is the max over all
  // available strategies, so the drop only shows once every tied
  // alternative has been tried and penalized (at most 144 strategies in
  // two orientations).
  for (int k = 0; k < 300; ++k) pm_->record(2, 3, pm_->choose(2, 3), false);
  double p1 = pm_->entry_prob(2, 3);
  EXPECT_LT(p1, p0);
}

TEST_F(ProbabilityTest, EntryProbIsSymmetricInOrientationChoice) {
  // choose() considers both orientations, so it never returns a worse
  // probability than either single orientation.
  StrategyChoice c = pm_->choose(1, 2);
  EXPECT_GT(c.probability, 0.0);
  StrategyChoice r = pm_->choose(2, 1);
  EXPECT_NEAR(c.probability, r.probability, 1e-12);
}

TEST_F(ProbabilityTest, PriorsTransferAcrossMetros) {
  // Record a clear pattern, export, and check a fresh matrix starts biased.
  StrategyChoice c = pm_->choose(0, 1);
  int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
  for (int k = 0; k < 30; ++k) pm_->record(0, 1, c, true);

  StrategyPriors pool;
  pm_->export_priors(pool);
  EXPECT_EQ(pool.metros_observed, 1);
  EXPECT_GT(pool.alpha[static_cast<std::size_t>(s)], 20.0);

  ProbabilityMatrix warm(*ctx_, *testing::shared_world().ms, &pool);
  ProbabilityMatrix cold(*ctx_, *testing::shared_world().ms, nullptr);
  EXPECT_GT(warm.strategy_prob(s), cold.strategy_prob(s));
}

TEST_F(ProbabilityTest, PriorStrengthIsCapped) {
  StrategyChoice c = pm_->choose(0, 1);
  int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
  for (int k = 0; k < 500; ++k) pm_->record(0, 1, c, true);
  StrategyPriors pool;
  pm_->export_priors(pool);
  ProbabilityMatrix warm(*ctx_, *testing::shared_world().ms, &pool);
  // Even with 500 pooled successes, the warm prior stays a prior: a run of
  // failures can still pull the estimate down.
  double before = warm.strategy_prob(s);
  StrategyChoice fixed = c;
  for (int k = 0; k < 40; ++k) warm.record(0, 1, fixed, false);
  EXPECT_LT(warm.strategy_prob(s), before * 0.8);
}

TEST_F(ProbabilityTest, IxpMappedRestrictionNarrowsChoices) {
  pm_->restrict_to_ixp_mapped();
  StrategyChoice c = pm_->choose(0, 1);
  if (c.vp_cat >= 0) {
    auto st = traceroute::strategy_from_index(
        traceroute::strategy_index(c.vp_cat, c.tgt_cat));
    EXPECT_NE(st.vp_topo, traceroute::VpTopo::kOutside);
    EXPECT_NE(st.tgt_topo, traceroute::TargetTopo::kInCone);
  }
}

// ---- P_m against an independent reference --------------------------------

/// The P_m formula of §3.3.2 with its own copy of the Beta counters, the
/// strategy mask and the link penalties; availability counts are the sizes
/// of the measurement plane's candidate lists, which
/// SchedulerReferenceTest.CandidateIndexMatchesAFullScan checks against a
/// full categorization scan.
class ReferencePm {
 public:
  using Counts = std::vector<std::vector<int>>;  // per local AS, per category

  ReferencePm(const MetroContext& ctx, MeasurementSystem& ms) {
    const CandidateIndex& index = ms.candidates(ctx);
    Counts vp(ctx.size()), tgt(ctx.size());
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      for (int c = 0; c < traceroute::kVpCategories; ++c)
        vp[i].push_back(static_cast<int>(index.vps(i, c).size()));
      for (int c = 0; c < traceroute::kTargetCategories; ++c)
        tgt[i].push_back(static_cast<int>(index.targets(i, c).size()));
    }
    *this = ReferencePm(std::move(vp), std::move(tgt));
  }
  ReferencePm(Counts vp, Counts tgt) : vp_(std::move(vp)), tgt_(std::move(tgt)) {
    alpha_.fill(kPriorAlpha);
    beta_.fill(kPriorBeta);
    allowed_.fill(true);
  }

  void record(int i, int j, const StrategyChoice& c, bool informative) {
    if (c.vp_cat < 0 || c.tgt_cat < 0) return;
    const int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
    if (informative) {
      alpha_[static_cast<std::size_t>(s)] += 1.0;
      return;
    }
    beta_[static_cast<std::size_t>(s)] += 1.0;
    auto key = c.swapped ? std::tuple{j, i, s} : std::tuple{i, j, s};
    auto [it, inserted] = penalties_.emplace(key, 1.0);
    it->second *= kPenaltyFactor;
  }

  void restrict_to_ixp_mapped() {
    using traceroute::VpTopo;
    for (int s = 0; s < traceroute::kNumStrategies; ++s) {
      const auto st = traceroute::strategy_from_index(s);
      allowed_[static_cast<std::size_t>(s)] =
          (st.vp_topo == VpTopo::kInAs || st.vp_topo == VpTopo::kInCone) &&
          (st.vp_geo == topology::GeoScope::kSameMetro ||
           st.vp_geo == topology::GeoScope::kSameCountry) &&
          st.tgt_topo != traceroute::TargetTopo::kInCone;
    }
  }

  StrategyChoice choose(int i, int j) const {
    StrategyChoice a = dir(i, j), b = dir(j, i);
    b.swapped = true;
    return a.probability >= b.probability ? a : b;
  }

 private:
  StrategyChoice dir(int near, int far) const {
    const auto& vc = vp_[static_cast<std::size_t>(near)];
    const auto& tc = tgt_[static_cast<std::size_t>(far)];
    StrategyChoice best;
    for (int v = 0; v < traceroute::kVpCategories; ++v) {
      for (int t = 0; t < traceroute::kTargetCategories; ++t) {
        const int nv = vc[static_cast<std::size_t>(v)];
        const int nt = tc[static_cast<std::size_t>(t)];
        const int s = traceroute::strategy_index(v, t);
        const auto si = static_cast<std::size_t>(s);
        if (nv == 0 || nt == 0 || !allowed_[si]) continue;
        double p = alpha_[si] / (alpha_[si] + beta_[si]);
        double pool = static_cast<double>(nv) * static_cast<double>(nt);
        p *= 1.0 + 0.08 * std::min(3.0, std::log10(pool + 1.0));
        auto pen = penalties_.find({near, far, s});
        if (pen != penalties_.end()) p *= pen->second;
        if (p > best.probability) {
          best.probability = p;
          best.vp_cat = v;
          best.tgt_cat = t;
        }
      }
    }
    best.probability = std::min(best.probability, 1.0);
    return best;
  }

  Counts vp_, tgt_;
  std::array<double, traceroute::kNumStrategies> alpha_{}, beta_{};
  std::array<bool, traceroute::kNumStrategies> allowed_{};
  std::map<std::tuple<int, int, int>, double> penalties_;
};

void expect_matches_reference(const ProbabilityMatrix& pm,
                              const ReferencePm& ref, int n) {
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const StrategyChoice got = pm.choose(i, j), want = ref.choose(i, j);
      if (got.vp_cat == want.vp_cat && got.tgt_cat == want.tgt_cat &&
          got.swapped == want.swapped &&
          std::bit_cast<std::uint64_t>(got.probability) ==
              std::bit_cast<std::uint64_t>(want.probability))
        continue;
      if (mismatches++ == 0)
        ADD_FAILURE() << "choose(" << i << ", " << j << ") = {" << got.vp_cat
                      << ", " << got.tgt_cat << ", " << got.swapped << ", "
                      << got.probability << "}, reference {" << want.vp_cat
                      << ", " << want.tgt_cat << ", " << want.swapped << ", "
                      << want.probability << "}";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// One outcome record_outcomes applied: entry, choice, informative.
using Outcome = std::tuple<int, int, StrategyChoice, bool>;

/// A seeded run of outcomes: half on the currently best strategy, half on
/// a random category pair, so penalties pile up on many strategies.  A
/// best choice without a strategy measured nothing and is skipped.
/// Returns the outcomes recorded, in order.
std::vector<Outcome> record_outcomes(ProbabilityMatrix& pm, ReferencePm& ref,
                                     int n, std::uint64_t seed, int count) {
  util::Rng rng(seed);
  std::vector<Outcome> recorded;
  for (int k = 0; k < count; ++k) {
    const int i = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    int j = static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)));
    if (j >= i) ++j;
    StrategyChoice c = pm.choose(i, j);
    if (rng.bernoulli(0.5)) {
      c.vp_cat = static_cast<int>(rng.index(traceroute::kVpCategories));
      c.tgt_cat = static_cast<int>(rng.index(traceroute::kTargetCategories));
      c.swapped = rng.bernoulli(0.5);
    }
    const bool informative = rng.bernoulli(0.3);
    if (c.vp_cat < 0) continue;
    pm.record(i, j, c, informative);
    ref.record(i, j, c, informative);
    recorded.emplace_back(i, j, c, informative);
  }
  return recorded;
}

TEST(ProbabilityReferenceTest, ChooseMatchesReferenceFormulaBitForBit) {
  const MetroContext ctx = testing::shared_focus_context();
  MeasurementSystem& ms = *testing::shared_world().ms;
  const int n = static_cast<int>(ctx.size());
  ProbabilityMatrix pm(ctx, ms, nullptr);
  ReferencePm ref(ctx, ms);
  expect_matches_reference(pm, ref, n);
  const std::vector<Outcome> outcomes = record_outcomes(pm, ref, n, 7, 4000);
  expect_matches_reference(pm, ref, n);

  // A resume rebuilds P_m by recording the same outcomes into a fresh one.
  ProbabilityMatrix loaded(ctx, ms, nullptr);
  for (const auto& [i, j, c, informative] : outcomes)
    loaded.record(i, j, c, informative);
  expect_matches_reference(loaded, ref, n);
  record_outcomes(loaded, ref, n, 8, 1000);
  expect_matches_reference(loaded, ref, n);

  loaded.restrict_to_ixp_mapped();
  ref.restrict_to_ixp_mapped();
  expect_matches_reference(loaded, ref, n);
  record_outcomes(loaded, ref, n, 9, 1000);
  expect_matches_reference(loaded, ref, n);
}

// An exploit scan skips entry (i, j) when bound(row_bound(i), j) cannot beat
// the best P so far, which is exact only while the bound is at least
// entry_prob(i, j).  Penalties on random entries, informative records
// raising random strategies, and the IXP-mapped mask must all keep it so.
// The bound is also zero exactly where the entry has no usable strategy:
// it scores the same allowed strategies entry_prob does.
TEST(ProbabilityReferenceTest, RowBoundCoversEveryEntry) {
  const MetroContext ctx = testing::shared_focus_context();
  MeasurementSystem& ms = *testing::shared_world().ms;
  const int n = static_cast<int>(ctx.size());
  auto expect_covered = [&](const ProbabilityMatrix& pm) {
    int uncovered = 0, mismatched_zero = 0;
    for (int i = 0; i < n; ++i) {
      const ProbabilityMatrix::RowBound bound = pm.row_bound(i);
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const double p = pm.entry_prob(i, j), b = pm.bound(bound, j);
        if (!(b >= p) && uncovered++ == 0)
          ADD_FAILURE() << "bound(" << j << ") = " << b << " under entry_prob("
                        << i << ", " << j << ") = " << p;
        if ((b > 0.0) != (p > 0.0) && mismatched_zero++ == 0)
          ADD_FAILURE() << "bound(" << j << ") = " << b
                        << " against entry_prob(" << i << ", " << j
                        << ") = " << p;
      }
    }
    EXPECT_EQ(uncovered, 0);
    EXPECT_EQ(mismatched_zero, 0);
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ProbabilityMatrix pm(ctx, ms, nullptr);
    ReferencePm ref(ctx, ms);
    expect_covered(pm);
    record_outcomes(pm, ref, n, seed, 3000);
    expect_covered(pm);
    if (seed == 5) {
      pm.restrict_to_ixp_mapped();
      expect_covered(pm);
      record_outcomes(pm, ref, n, seed + 100, 1000);
      expect_covered(pm);
    }
  }
}

// The candidate-pool factor is memoized per pool size; every size up to
// past the point where it saturates must reproduce the formula.  A
// measurement plane with one VP gives every AS one VP in one category, and
// the k-th stub of the metro (an AS whose cone is itself) base + k targets
// in one category, so entry (stub k, stub k') with k > k' scores the pool
// base + k.
TEST(ProbabilityReferenceTest, EveryPoolSizeMatchesTheFormula) {
  eval::World& w = testing::shared_world();
  const MetroContext ctx = testing::shared_focus_context();
  std::vector<AsId> stubs;
  for (std::size_t i = 0; i < ctx.size(); ++i)
    if (w.net.cones[static_cast<std::size_t>(ctx.as_at(i))].size() == 1)
      stubs.push_back(ctx.as_at(i));
  ASSERT_GE(stubs.size(), 2u);
  traceroute::VantagePoint vp;
  vp.id = 0;
  vp.as = ctx.as_at(0);
  vp.metro = ctx.metro();
  for (std::size_t base = 0; base <= 1100; base += stubs.size()) {
    std::vector<traceroute::ProbeTarget> targets;
    for (std::size_t k = 0; k < stubs.size(); ++k) {
      for (std::size_t t = 0; t < base + k; ++t) {
        traceroute::ProbeTarget tgt;
        tgt.id = static_cast<int>(targets.size());
        tgt.as = stubs[k];
        tgt.metro = ctx.metro();
        targets.push_back(tgt);
      }
    }
    MeasurementSystem ms(w.net, *w.engine, {vp}, std::move(targets), 0);
    ProbabilityMatrix pm(ctx, ms, nullptr);
    SCOPED_TRACE("target counts from " + std::to_string(base));
    expect_matches_reference(pm, ReferencePm(ctx, ms),
                             static_cast<int>(ctx.size()));
  }
}

}  // namespace
}  // namespace metas::core
