// Measurement-scheduler tests: batches, policies, exploration limits,
// give-up behaviour, and a plain reference scheduler the real one must
// match record for record.
#include "core/scheduler.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "traceroute/faults.hpp"
#include "traceroute/strategy.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

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
  // crosses the budget line finishes, each pick making at most
  // kMaxProbeAttempts attempts.
  const std::size_t issued = sched.fill_rows_to(target, budget);
  EXPECT_LT(issued, budget + static_cast<std::size_t>(cfg.batch_size) *
                                 static_cast<std::size_t>(kMaxProbeAttempts));

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

// ---- Reference scheduler -----------------------------------------------

/// The scheduler without any state derived from its history: explored and
/// attempted entries in ordered sets, an anti-diagonal sweep over all row
/// positions for every explore pick, and a full column scan on every
/// exploit pick.  Its P_m is the real ProbabilityMatrix, which
/// ProbabilityReferenceTest checks against the formula.
class ReferenceScheduler {
 public:
  ReferenceScheduler(const MetroContext& ctx, MeasurementSystem& ms,
                     ProbabilityMatrix& pm, SchedulerConfig cfg)
      : ctx_(ctx),
        ms_(ms),
        pm_(pm),
        cfg_(cfg),
        rng_(cfg.seed),
        fail_streak_(ctx.size(), 0),
        given_up_(ctx.size(), false) {
    if (cfg_.policy == SelectionPolicy::kOnlyExploit) cfg_.epsilon = 0.0;
    if (cfg_.policy == SelectionPolicy::kOnlyExplore) cfg_.epsilon = 1.0;
    if (cfg_.policy == SelectionPolicy::kIxpMapped) {
      pm_.restrict_to_ixp_mapped();
      cfg_.epsilon = 0.0;
    }
  }

  std::size_t fill_rows_to(int target, std::size_t budget) {
    std::size_t issued = 0;
    std::fill(fail_streak_.begin(), fail_streak_.end(), 0);
    std::fill(given_up_.begin(), given_up_.end(), false);
    int dry_batches = 0;
    while (issued < budget) {
      const EstimatedMatrix& e = ms_.matrix(ctx_);
      bool any_deficient = false;
      for (std::size_t i = 0; i < ctx_.size(); ++i)
        if (!given_up_[i] &&
            e.row_filled(i) < static_cast<std::size_t>(target))
          any_deficient = true;
      if (!any_deficient) break;
      BatchResult got = run_batch(e, target);
      issued += got.launched;
      if (got.selected == 0) break;
      if (got.launched == 0) {
        if (++dry_batches >= 16) break;
      } else {
        dry_batches = 0;
      }
    }
    finish_campaign(target);
    return issued;
  }

  BatchResult run_batch(const EstimatedMatrix& e, int target) {
    const std::size_t n = ctx_.size();
    std::vector<std::size_t> sim_filled(n);
    for (std::size_t i = 0; i < n; ++i) sim_filled[i] = e.row_filled(i);
    std::vector<char> batch_rows(n, 0);
    bool exploit_exhausted = false;
    BatchResult result;
    if (cfg_.policy == SelectionPolicy::kGreedy && greedy_order_.empty()) {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
          greedy_order_.emplace_back(
              pm_.entry_prob(static_cast<int>(i), static_cast<int>(j)),
              key(static_cast<int>(i), static_cast<int>(j)));
      std::sort(greedy_order_.begin(), greedy_order_.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
    }
    for (int slot = 0; slot < cfg_.batch_size; ++slot) {
      ++tick_;
      Pick pick;
      if (cfg_.policy == SelectionPolicy::kRandom) {
        pick = pick_random(e);
      } else if (cfg_.policy == SelectionPolicy::kGreedy) {
        pick = pick_greedy(e);
      } else if (rng_.bernoulli(cfg_.epsilon)) {
        pick = pick_explore(sim_filled, e, batch_rows);
      } else if (!exploit_exhausted) {
        pick = pick_exploit(sim_filled, e, target, exploit_exhausted);
      }
      if (pick.i < 0) continue;
      if (pick.exploration) {
        batch_rows[static_cast<std::size_t>(pick.i)] = 1;
        batch_rows[static_cast<std::size_t>(pick.j)] = 1;
        explored_.insert(key(pick.i, pick.j));
      }
      ++sim_filled[static_cast<std::size_t>(pick.i)];
      ++sim_filled[static_cast<std::size_t>(pick.j)];
      result.launched += execute(pick);
      ++result.selected;
    }
    return result;
  }

  std::vector<IssuedRecord> history;
  const std::vector<bool>& given_up() const { return given_up_; }

  /// The last campaign's fill statistics and VP states, with the counters
  /// summed over the whole history; every infrastructure failure is
  /// requeued while resilience is on.
  DegradationReport degradation() const {
    DegradationReport d = last_campaign_;
    for (const IssuedRecord& r : history) {
      d.probes_launched += static_cast<std::size_t>(r.launched);
      d.probes_faulted += static_cast<std::size_t>(r.faulted);
      d.retries += static_cast<std::size_t>(std::max(r.attempts - 1, 0));
      d.infra_failures += r.infra_failure ? 1 : 0;
    }
    d.requeues = ms_.resilience() ? d.infra_failures : 0;
    return d;
  }

 private:
  struct Pick {
    int i = -1, j = -1;
    bool exploration = false;
  };

  std::uint64_t key(int i, int j) const {
    return static_cast<std::uint64_t>(std::min(i, j)) * ctx_.size() +
           static_cast<std::uint64_t>(std::max(i, j));
  }

  bool under_backoff(int i, int j) const {
    auto it = requeued_.find(key(i, j));
    return it != requeued_.end() && it->second.first > tick_;
  }

  Pick pick_exploit(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e, int target, bool& no_row) {
    const std::size_t n = ctx_.size();
    int best_row = -1;
    std::size_t best_fill = std::numeric_limits<std::size_t>::max();
    int ties = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (given_up_[i]) continue;
      if (sim_filled[i] >= static_cast<std::size_t>(target)) continue;
      if (sim_filled[i] < best_fill) {
        best_fill = sim_filled[i];
        best_row = static_cast<int>(i);
        ties = 1;
      } else if (sim_filled[i] == best_fill &&
                 rng_.bernoulli(1.0 / ++ties)) {
        best_row = static_cast<int>(i);
      }
    }
    if (best_row < 0) {
      no_row = true;
      return {};
    }
    const auto row = static_cast<std::size_t>(best_row);
    int best_j = -1;
    double best_p = cfg_.exploit_min_prob;
    bool skipped_backoff = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == row || e.filled(row, j)) continue;
      if (under_backoff(best_row, static_cast<int>(j))) {
        skipped_backoff = true;
        continue;
      }
      double p = pm_.entry_prob(best_row, static_cast<int>(j));
      if (p > best_p) {
        best_p = p;
        best_j = static_cast<int>(j);
      }
    }
    if (best_j < 0) {
      if (!skipped_backoff) given_up_[row] = true;
      return {};
    }
    return {best_row, best_j, false};
  }

  Pick pick_explore(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e,
                    const std::vector<char>& batch_rows) {
    const std::size_t n = ctx_.size();
    std::vector<std::size_t> rows(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
      return sim_filled[a] < sim_filled[b];
    });
    for (std::size_t s = 1; s + 1 < 2 * n; ++s) {
      for (std::size_t a = s >= n ? s - n + 1 : 0; 2 * a < s; ++a) {
        std::size_t i = rows[a], j = rows[s - a];
        if (batch_rows[i] != 0 || batch_rows[j] != 0) continue;
        if (i > j) std::swap(i, j);
        const int ii = static_cast<int>(i), jj = static_cast<int>(j);
        if (e.filled(i, j) || explored_.count(key(ii, jj)) != 0) continue;
        if (under_backoff(ii, jj)) continue;
        if (pm_.entry_prob(ii, jj) > 0.0) return {ii, jj, true};
      }
    }
    return {};
  }

  Pick pick_random(const EstimatedMatrix& e) {
    const std::size_t n = ctx_.size();
    for (int tries = 0; tries < 64; ++tries) {
      int i = static_cast<int>(rng_.index(n));
      int j = static_cast<int>(rng_.index(n));
      if (i == j) continue;
      if (e.filled(static_cast<std::size_t>(i), static_cast<std::size_t>(j)))
        continue;
      if (under_backoff(i, j)) continue;
      if (!attempted_.insert(key(i, j)).second) continue;
      return {std::min(i, j), std::max(i, j), false};
    }
    return {};
  }

  Pick pick_greedy(const EstimatedMatrix& e) {
    const std::size_t n = ctx_.size();
    while (greedy_cursor_ < greedy_order_.size()) {
      const std::uint64_t k = greedy_order_[greedy_cursor_++].second;
      int i = static_cast<int>(k / n), j = static_cast<int>(k % n);
      if (e.filled(static_cast<std::size_t>(i), static_cast<std::size_t>(j)))
        continue;
      if (under_backoff(i, j)) continue;
      if (!attempted_.insert(k).second) continue;
      return {i, j, false};
    }
    return {};
  }

  std::size_t execute(const Pick& pick) {
    StrategyChoice choice = pm_.choose(pick.i, pick.j);
    IssuedRecord rec;
    rec.i = pick.i;
    rec.j = pick.j;
    rec.estimated_prob = choice.probability;
    rec.swapped = choice.swapped;
    rec.exploration = pick.exploration;
    if (choice.vp_cat < 0) {
      history.push_back(rec);
      return 0;
    }
    rec.strategy = traceroute::strategy_index(choice.vp_cat, choice.tgt_cat);
    MeasurementOutcome out =
        ms_.run_targeted(ctx_, pick.i, pick.j, choice.vp_cat, choice.tgt_cat,
                         choice.swapped);
    rec.found_existence = out.revealed_direct;
    rec.found_nonexistence = out.revealed_transit;
    rec.infra_failure = out.infra_failure;
    rec.attempts = out.attempts;
    rec.launched = out.launched;
    rec.faulted = out.faulted;
    std::size_t spent = static_cast<std::size_t>(out.launched);
    if (!out.ran() && !out.infra_failure) spent = 1;
    rec.spent = static_cast<int>(spent);
    history.push_back(rec);

    const bool requeue = out.infra_failure && ms_.resilience();
    if (requeue) {
      auto& [retry_at, fails] = requeued_[key(pick.i, pick.j)];
      const int doublings = std::min(fails, 7);
      ++fails;
      retry_at = tick_ + std::min<std::uint64_t>(
                             static_cast<std::uint64_t>(kRequeueBackoffBase)
                                 << doublings,
                             static_cast<std::uint64_t>(kRequeueBackoffCap));
      return spent;
    }
    requeued_.erase(key(pick.i, pick.j));
    pm_.record(pick.i, pick.j, choice, out.informative());
    const auto i = static_cast<std::size_t>(pick.i);
    if (out.informative()) {
      fail_streak_[i] = 0;
    } else if (!pick.exploration &&
               ++fail_streak_[i] >= cfg_.row_fail_limit) {
      given_up_[i] = true;
    }
    return spent;
  }

  void finish_campaign(int target) {
    const std::size_t n = ctx_.size();
    const EstimatedMatrix& e = ms_.matrix(ctx_);
    DegradationReport& d = last_campaign_;
    d.fill_target = target;
    d.rows = n;
    d.rows_at_target = 0;
    d.rows_given_up = 0;
    double fill = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto filled = static_cast<double>(e.row_filled(i));
      fill += std::min(1.0, filled / static_cast<double>(target));
      if (e.row_filled(i) >= static_cast<std::size_t>(target))
        ++d.rows_at_target;
      if (given_up_[i]) ++d.rows_given_up;
    }
    d.fill_fraction = n == 0 ? 0.0 : fill / static_cast<double>(n);
    d.quarantined_vps = ms_.quarantined_vps();
    d.dead_vps = ms_.dead_vps();
  }

  const MetroContext& ctx_;
  MeasurementSystem& ms_;
  ProbabilityMatrix& pm_;
  SchedulerConfig cfg_;
  util::Rng rng_;
  std::vector<int> fail_streak_;
  std::vector<bool> given_up_;
  std::set<std::uint64_t> explored_;
  std::set<std::uint64_t> attempted_;
  std::vector<std::pair<double, std::uint64_t>> greedy_order_;
  std::size_t greedy_cursor_ = 0;
  std::uint64_t tick_ = 0;
  std::map<std::uint64_t, std::pair<std::uint64_t, int>> requeued_;
  DegradationReport last_campaign_;
};

std::string record_bytes(const IssuedRecord& r) {
  util::checkpoint::Encoder enc;
  enc(r);
  return enc.take();
}

auto report_fields(const DegradationReport& d) {
  return std::tie(d.fill_target, d.rows, d.rows_at_target, d.rows_given_up,
                  d.fill_fraction, d.probes_launched, d.probes_faulted,
                  d.retries, d.infra_failures, d.requeues, d.quarantined_vps,
                  d.dead_vps);
}

void expect_same(const MeasurementScheduler& got,
                 const ReferenceScheduler& want) {
  const auto& a = got.history();
  const auto& b = want.history;
  EXPECT_EQ(a.size(), b.size()) << "history length";
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    if (record_bytes(a[k]) == record_bytes(b[k])) continue;
    ADD_FAILURE() << "history differs first at record " << k << ": ("
                  << a[k].i << ", " << a[k].j << ") against (" << b[k].i
                  << ", " << b[k].j << ")";
    break;
  }
  EXPECT_EQ(got.given_up(), want.given_up());
  EXPECT_TRUE(report_fields(got.degradation()) ==
              report_fields(want.degradation()))
      << "degradation report";
}

/// Two copies of one world: the scheduler runs on one, the reference on
/// the other, so each sees only its own measurements.
struct TwinWorlds {
  static eval::WorldConfig config(std::uint64_t seed, const char* profile) {
    auto wc = eval::small_world_config(seed);
    wc.compute_public_view = false;
    EXPECT_TRUE(traceroute::parse_fault_profile(profile, wc.faults));
    return wc;
  }
  TwinWorlds(std::uint64_t seed, const char* profile)
      : real(eval::build_world(config(seed, profile))),
        ref(eval::build_world(config(seed, profile))) {}

  eval::World real;
  eval::World ref;
};

/// Informative outcomes recorded outside any campaign, ten for every
/// strategy and then more until its success rate reaches `rate`: a P_m
/// rise that no measurement made.
void raise_every_strategy(ProbabilityMatrix& pm, double rate = 0.0) {
  for (int v = 0; v < traceroute::kVpCategories; ++v) {
    for (int t = 0; t < traceroute::kTargetCategories; ++t) {
      const StrategyChoice c{v, t, false, 0.5};
      for (int k = 0; k < 10; ++k) pm.record(0, 1, c, true);
      while (pm.strategy_prob(traceroute::strategy_index(v, t)) < rate)
        pm.record(0, 1, c, true);
    }
  }
}

/// Loads a measurement plane without evidence into both twins: the next
/// E_m read rebuilds a view with no entry filled, while P_m keeps what it
/// learned.
void load_empty_plane(TwinWorlds& tw) {
  for (eval::World* w : {&tw.real, &tw.ref}) {
    util::checkpoint::Encoder empty;
    MeasurementSystem(w->net, *w->engine, w->vps, w->targets, 0).save(empty);
    util::checkpoint::Decoder dec(empty.data());
    w->ms->load(dec);
  }
}

/// One scheduler and the reference side by side on the twins' metro `m`:
/// campaigns at the rank loop's rising targets; one after
/// load_empty_plane; one after a P_m rise that no measurement made; and
/// batches on two matrices the caller built.
void check_against_reference(TwinWorlds& tw, std::size_t m,
                             const SchedulerConfig& cfg) {
  const MetroContext ctx(tw.real.net, tw.real.focus_metros.at(m));
  const MetroContext rctx(tw.ref.net, tw.ref.focus_metros.at(m));
  ProbabilityMatrix pm(ctx, *tw.real.ms, nullptr);
  ProbabilityMatrix rpm(rctx, *tw.ref.ms, nullptr);
  MeasurementScheduler sched(ctx, *tw.real.ms, pm, cfg);
  ReferenceScheduler ref(rctx, *tw.ref.ms, rpm, cfg);
  auto campaign = [&](int target) {
    SCOPED_TRACE("campaign to " + std::to_string(target));
    EXPECT_EQ(sched.fill_rows_to(target, 600), ref.fill_rows_to(target, 600));
    expect_same(sched, ref);
  };

  for (int target = 1; target <= 6; ++target) campaign(target);
  load_empty_plane(tw);
  {
    SCOPED_TRACE("after a load");
    campaign(20);
  }
  raise_every_strategy(pm);
  raise_every_strategy(rpm);
  {
    SCOPED_TRACE("after a P_m rise");
    campaign(20);
  }
  {
    SCOPED_TRACE("batches on caller-built matrices");
    const EstimatedMatrix built = tw.real.ms->build_matrix(ctx);
    const EstimatedMatrix rbuilt = tw.ref.ms->build_matrix(rctx);
    const EstimatedMatrix blank(ctx.size());
    for (const auto& [e, re] : {std::pair{&built, &rbuilt},
                                std::pair{&blank, &blank}}) {
      const BatchResult a = sched.run_batch(*e, 20);
      const BatchResult b = ref.run_batch(*re, 20);
      EXPECT_EQ(a.selected, b.selected);
      EXPECT_EQ(a.launched, b.launched);
    }
    expect_same(sched, ref);
  }
}

SchedulerConfig reference_config(SelectionPolicy policy, std::uint64_t seed) {
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.batch_size = 100;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t bounded_entries() {
  return util::telemetry::Registry::instance()
      .counter("scheduler.exploit_entries_bounded")
      .value();
}

TEST(SchedulerReferenceTest, MetascriticMatchesUnderEveryFaultProfile) {
  const std::uint64_t bounded_before = bounded_entries();
  for (std::uint64_t seed : {3, 8, 21}) {
    for (const char* profile : {"none", "flaky", "storm"}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + profile);
      TwinWorlds tw(seed, profile);
      check_against_reference(
          tw, 0, reference_config(SelectionPolicy::kMetascritic, seed + 100));
    }
  }
  // Exploit scans skipped entries by their bound: the matches above cover
  // the skip.
  if (util::telemetry::compiled()) {
    EXPECT_GT(bounded_entries(), bounded_before);
  }
}

TEST(SchedulerReferenceTest, EveryOtherPolicyMatches) {
  TwinWorlds tw(5, "none");
  std::uint64_t k = 0;
  for (SelectionPolicy policy :
       {SelectionPolicy::kOnlyExploit, SelectionPolicy::kOnlyExplore,
        SelectionPolicy::kRandom, SelectionPolicy::kGreedy,
        SelectionPolicy::kIxpMapped}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    check_against_reference(tw, k % tw.real.focus_metros.size(),
                            reference_config(policy, 200 + k));
    ++k;
  }
}


// run_targeted draws its VP and target from the measurement plane's
// candidate lists, and P_m counts availability from their sizes.  Each
// list must be what a full categorization scan finds, in the scan's order:
// VPs in inventory order, targets in cone order and then inventory order.
// Every focus metro is visited, then the first again, so an index kept
// from another metro shows.
TEST(SchedulerReferenceTest, CandidateIndexMatchesAFullScan) {
  auto wc = eval::small_world_config(6);
  wc.compute_public_view = false;
  eval::World w = eval::build_world(wc);
  std::vector<MetroId> visits = w.focus_metros;
  ASSERT_GE(visits.size(), 2u);
  visits.push_back(w.focus_metros.front());
  for (const MetroId m : visits) {
    SCOPED_TRACE("metro " + std::to_string(m));
    const MetroContext ctx(w.net, m);
    const CandidateIndex& index = w.ms->candidates(ctx);
    EXPECT_EQ(index.metro(), m);
    int mismatches = 0;
    auto expect_list = [&](std::span<const std::uint32_t> got,
                           const std::vector<std::uint32_t>& want,
                           const std::string& what) {
      if (std::equal(got.begin(), got.end(), want.begin(), want.end())) return;
      if (mismatches++ == 0)
        ADD_FAILURE() << what << ": " << got.size() << " candidates, the scan "
                      << want.size();
    };
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      const AsId as = ctx.as_at(i);
      std::vector<std::pair<std::uint32_t, int>> vps, targets;
      for (std::size_t v = 0; v < w.vps.size(); ++v)
        vps.emplace_back(static_cast<std::uint32_t>(v),
                         traceroute::categorize_vp(w.net, w.vps[v], as, m));
      for (AsId member : w.net.cones[static_cast<std::size_t>(as)])
        for (std::size_t t = 0; t < w.targets.size(); ++t)
          if (w.targets[t].as == member)
            targets.emplace_back(
                static_cast<std::uint32_t>(t),
                traceroute::categorize_target(w.net, w.targets[t], as, m));
      auto of = [](const auto& scanned, int c) {
        std::vector<std::uint32_t> want;
        for (const auto& [index, category] : scanned)
          if (category == c) want.push_back(index);
        return want;
      };
      for (int c = 0; c < traceroute::kVpCategories; ++c)
        expect_list(index.vps(i, c), of(vps, c),
                    "AS " + std::to_string(as) + " VP category " +
                        std::to_string(c));
      for (int c = 0; c < traceroute::kTargetCategories; ++c)
        expect_list(index.targets(i, c), of(targets, c),
                    "AS " + std::to_string(as) + " target category " +
                        std::to_string(c));
    }
    EXPECT_EQ(mismatches, 0);
  }
}

/// Records into both P_m copies, for every available strategy of every
/// entry `e` leaves unfilled, in both orientations, two uninformative
/// outcomes and one informative one: each such penalty falls to
/// kPenaltyFactor^2 = 0.36, and every success rate stays at
/// (1 + m) / (3 + 3m) = 1/3 exactly.
void penalize_unfilled(ProbabilityMatrix& pm, ProbabilityMatrix& rpm,
                       const MetroContext& ctx, MeasurementSystem& ms,
                       const EstimatedMatrix& e) {
  const std::size_t n = e.size();
  const CandidateIndex& index = ms.candidates(ctx);
  for (std::size_t near = 0; near < n; ++near) {
    for (std::size_t far = 0; far < n; ++far) {
      if (near == far || e.filled(near, far)) continue;
      for (int v = 0; v < traceroute::kVpCategories; ++v) {
        for (int t = 0; t < traceroute::kTargetCategories; ++t) {
          if (index.vps(near, v).empty() || index.targets(far, t).empty())
            continue;
          const StrategyChoice c{v, t, false, 0.5};
          for (ProbabilityMatrix* p : {&pm, &rpm})
            for (bool informative : {false, false, true})
              p->record(static_cast<int>(near), static_cast<int>(far), c,
                        informative);
        }
      }
    }
  }
}

// A cold P_m puts every entry with an available strategy at 1/3 times a
// pool factor of 1 to 1.24.  With each unfilled entry penalized to 0.36
// (1/3 * 1.24 * 0.36 < 0.15), a floor of 0.25 lies above every unfilled
// entry and below every filled one that has a strategy, so a campaign to
// target n measures nothing and finds every row hopeless.  A rebuild that
// unfills the filled entries, a P_m rise (to success rates of 3/4, which
// lifts every penalized entry to at least 0.27), or a batch on a blank
// matrix the caller built must then send such a row back to its column
// scan.
TEST(SchedulerReferenceTest, HopelessRowsReopen) {
  enum class Reopen { kRebuild, kRise, kCallerMatrix };
  TwinWorlds tw(4, "none");
  SchedulerConfig cfg = reference_config(SelectionPolicy::kOnlyExploit, 300);
  cfg.exploit_min_prob = 0.25;
  for (const Reopen how :
       {Reopen::kRebuild, Reopen::kRise, Reopen::kCallerMatrix}) {
    const auto m = static_cast<std::size_t>(how);
    SCOPED_TRACE("case " + std::to_string(m));
    const MetroContext ctx(tw.real.net, tw.real.focus_metros.at(m));
    const MetroContext rctx(tw.ref.net, tw.ref.focus_metros.at(m));
    ProbabilityMatrix pm(ctx, *tw.real.ms, nullptr);
    ProbabilityMatrix rpm(rctx, *tw.ref.ms, nullptr);
    penalize_unfilled(pm, rpm, ctx, *tw.real.ms, tw.real.ms->matrix(ctx));
    MeasurementScheduler sched(ctx, *tw.real.ms, pm, cfg);
    ReferenceScheduler ref(rctx, *tw.ref.ms, rpm, cfg);
    const int all = static_cast<int>(ctx.size());

    EXPECT_EQ(sched.fill_rows_to(all, 600), 0u);
    EXPECT_EQ(ref.fill_rows_to(all, 600), 0u);
    expect_same(sched, ref);
    EXPECT_TRUE(sched.history().empty());
    EXPECT_EQ(std::count(sched.given_up().begin(), sched.given_up().end(),
                         true),
              all);

    if (how == Reopen::kCallerMatrix) {
      // Rows with a filled entry meet target 1: this campaign lifts their
      // give-ups and measures nothing.
      EXPECT_EQ(sched.fill_rows_to(1, 600), 0u);
      EXPECT_EQ(ref.fill_rows_to(1, 600), 0u);
      const EstimatedMatrix blank(ctx.size());
      EXPECT_EQ(sched.run_batch(blank, all).selected,
                ref.run_batch(blank, all).selected);
    } else {
      if (how == Reopen::kRebuild) {
        load_empty_plane(tw);
      } else {
        raise_every_strategy(pm, 0.75);
        raise_every_strategy(rpm, 0.75);
      }
      EXPECT_EQ(sched.fill_rows_to(all, 600), ref.fill_rows_to(all, 600));
    }
    expect_same(sched, ref);
    EXPECT_FALSE(sched.history().empty());
  }
}

}  // namespace
}  // namespace metas::core
