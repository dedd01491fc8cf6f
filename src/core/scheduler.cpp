#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace metas::core {

namespace {
std::uint64_t entry_key(int i, int j, std::size_t n) {
  auto lo = mac::checked_cast<std::uint64_t>(std::min(i, j));
  auto hi = mac::checked_cast<std::uint64_t>(std::max(i, j));
  return lo * n + hi;
}
}  // namespace

MeasurementScheduler::MeasurementScheduler(const MetroContext& ctx,
                                           MeasurementSystem& ms,
                                           ProbabilityMatrix& pm,
                                           SchedulerConfig cfg)
    : ctx_(&ctx),
      ms_(&ms),
      pm_(&pm),
      cfg_(cfg),
      rng_(cfg.seed),
      fail_streak_(ctx.size(), 0),
      given_up_(ctx.size(), false),
      picked_(ctx.size() * ctx.size(), 0) {
  MAC_REQUIRE(cfg.batch_size > 0, "batch_size=", cfg.batch_size);
  MAC_REQUIRE(cfg.epsilon >= 0.0 && cfg.epsilon <= 1.0,
              "epsilon=", cfg.epsilon);
  MAC_REQUIRE(cfg.row_fail_limit > 0, "row_fail_limit=", cfg.row_fail_limit);
  MAC_REQUIRE(cfg.exploit_min_prob >= 0.0 && cfg.exploit_min_prob <= 1.0,
              "exploit_min_prob=", cfg.exploit_min_prob);
  if (cfg_.policy == SelectionPolicy::kOnlyExploit) cfg_.epsilon = 0.0;
  if (cfg_.policy == SelectionPolicy::kOnlyExplore) cfg_.epsilon = 1.0;
  if (cfg_.policy == SelectionPolicy::kIxpMapped) {
    pm_->restrict_to_ixp_mapped();
    cfg_.epsilon = 0.0;
  }
}

std::size_t MeasurementScheduler::fill_rows_to(
    int target, std::size_t budget, const util::RunControl* control) {
  MAC_REQUIRE(target >= 1, "target=", target);
  MAC_SPAN("scheduler.fill_rows_to");
  MAC_COUNT("scheduler.campaigns_run");
  std::size_t issued = 0;
  std::fill(fail_streak_.begin(), fail_streak_.end(), 0);
  std::fill(given_up_.begin(), given_up_.end(), false);
  // A batch can select picks yet launch nothing (every entry requeued, or
  // the infrastructure blocking every attempt before launch).  A bounded
  // number of such dry batches lets backoff windows expire; beyond that the
  // campaign degrades gracefully instead of spinning.
  constexpr int kMaxDryBatches = 16;
  int dry_batches = 0;
  while (issued < budget) {
    // Cooperative stop: poll between batches so a cancellation or deadline
    // expiry finishes the current batch and degrades gracefully instead of
    // abandoning in-flight accounting.
    if (control != nullptr && control->stop_requested()) {
      MAC_COUNT("scheduler.campaigns_stopped_early");
      break;
    }
    const EstimatedMatrix& e = ms_->matrix(*ctx_);
    bool any_deficient = false;
    for (std::size_t i = 0; i < ctx_->size(); ++i) {
      if (given_up_[i]) continue;
      if (e.row_filled(i) < mac::checked_cast<std::size_t>(target)) {
        any_deficient = true;
        break;
      }
    }
    if (!any_deficient) break;
    BatchResult got = run_batch(e, target);
    issued += got.launched;
    if (got.selected == 0) break;  // nothing selectable anymore
    if (got.launched == 0) {
      if (++dry_batches >= kMaxDryBatches) break;
    } else {
      dry_batches = 0;
    }
  }
  finish_campaign(target);
  // Budget accounting: overshoot is bounded by one batch worth of picks,
  // each of which may fail over a bounded number of times (the batch that
  // crosses the budget line is not truncated mid-flight).
  MAC_ENSURE(issued < budget + mac::checked_cast<std::size_t>(cfg_.batch_size) *
                                   mac::checked_cast<std::size_t>(
                                       kMaxProbeAttempts),
             "issued=", issued, " budget=", budget,
             " batch_size=", cfg_.batch_size);
  return issued;
}

bool MeasurementScheduler::under_backoff(int i, int j) const {
  if (requeued_.empty()) return false;
  auto it = requeued_.find(entry_key(i, j, ctx_->size()));
  return it != requeued_.end() && it->second.first > sched_tick_;
}

void MeasurementScheduler::finish_campaign(int target) {
  const std::size_t n = ctx_->size();
  const EstimatedMatrix& e = ms_->matrix(*ctx_);
  degradation_.fill_target = target;
  degradation_.rows = n;
  degradation_.rows_at_target = 0;
  degradation_.rows_given_up = 0;
  double fill = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    auto filled = static_cast<double>(e.row_filled(i));
    fill += std::min(1.0, filled / static_cast<double>(target));
    if (e.row_filled(i) >= mac::checked_cast<std::size_t>(target))
      ++degradation_.rows_at_target;
    if (given_up_[i]) ++degradation_.rows_given_up;
  }
  degradation_.fill_fraction = n == 0 ? 0.0 : fill / static_cast<double>(n);
  // Quarantine/death are current measurement-system state, not cumulative
  // event counts -- they stay direct reads.
  degradation_.quarantined_vps = ms_->quarantined_vps();
  degradation_.dead_vps = ms_->dead_vps();
  MAC_COUNT_N("scheduler.rows_given_up", degradation_.rows_given_up);
  MAC_GAUGE_SET("scheduler.fill_fraction", degradation_.fill_fraction);
  // Counter *sample*: the gauge keeps only the last value, the trace keeps
  // the fill trajectory across campaigns (a Perfetto counter track).
  MAC_TRACE_COUNTER("scheduler.fill_fraction", degradation_.fill_fraction);
}

DegradationReport MeasurementScheduler::degradation() const {
  DegradationReport d = degradation_;
  for (const IssuedRecord& r : history_) {
    d.probes_launched += mac::checked_cast<std::size_t>(r.launched);
    d.probes_faulted += mac::checked_cast<std::size_t>(r.faulted);
    d.retries += mac::checked_cast<std::size_t>(std::max(r.attempts - 1, 0));
    d.infra_failures += r.infra_failure ? 1u : 0u;
  }
  // execute() requeues every infrastructure failure while resilience is on.
  d.requeues = ms_->resilience() ? d.infra_failures : 0;
  return d;
}

BatchResult MeasurementScheduler::run_batch(const EstimatedMatrix& e,
                                            int target) {
  const std::size_t n = ctx_->size();
  // Optimistic per-batch fill counts: selected measurements are assumed
  // successful while composing the batch (§3.3.1).
  std::vector<std::size_t> sim_filled(n);
  for (std::size_t i = 0; i < n; ++i) sim_filled[i] = e.row_filled(i);

  std::vector<char> batch_explored_rows(n, 0);
  // A search that finds nothing draws no random number, and finds nothing
  // for the rest of the batch, so its arm is skipped from then on: the
  // exploit arm once no row qualifies, the explore arm once it finds no
  // pair while no entry waits out a backoff (DESIGN.md §14).
  bool exploit_exhausted = false;
  bool explore_exhausted = false;
  BatchResult result;
  MAC_COUNT("scheduler.batches_run");

  if (cfg_.policy == SelectionPolicy::kGreedy && greedy_order_.empty()) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        greedy_order_.emplace_back(
            pm_->entry_prob(mac::checked_cast<int>(i), mac::checked_cast<int>(j)),
            entry_key(mac::checked_cast<int>(i), mac::checked_cast<int>(j), n));
    std::sort(greedy_order_.begin(), greedy_order_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
  }

  for (int slot = 0; slot < cfg_.batch_size; ++slot) {
    ++sched_tick_;  // the deterministic clock backoff windows count in
    Pick pick;
    switch (cfg_.policy) {
      case SelectionPolicy::kRandom:
        pick = pick_random(e);
        break;
      case SelectionPolicy::kGreedy:
        pick = pick_greedy(e);
        break;
      case SelectionPolicy::kMetascritic:
      case SelectionPolicy::kOnlyExploit:
      case SelectionPolicy::kOnlyExplore:
      case SelectionPolicy::kIxpMapped:
        if (rng_.bernoulli(cfg_.epsilon)) {
          if (!explore_exhausted) {
            pick = pick_explore(sim_filled, e, batch_explored_rows);
            explore_exhausted = pick.i < 0 && requeued_.empty();
          }
        } else if (!exploit_exhausted) {
          pick = pick_exploit(sim_filled, e, target, exploit_exhausted);
        }
        break;
    }
    if (pick.i < 0) continue;
    MAC_COUNT("scheduler.picks_selected");
    if (pick.exploration) {
      MAC_COUNT("scheduler.picks_exploration");
      batch_explored_rows[mac::checked_cast<std::size_t>(pick.i)] = 1;
      batch_explored_rows[mac::checked_cast<std::size_t>(pick.j)] = 1;
      picked_[entry_key(pick.i, pick.j, n)] = 1;
    }
    sim_filled[mac::checked_cast<std::size_t>(pick.i)]++;
    sim_filled[mac::checked_cast<std::size_t>(pick.j)]++;
    result.launched += execute(pick);
    ++result.selected;
  }
  return result;
}

MeasurementScheduler::Pick MeasurementScheduler::pick_exploit(
    const std::vector<std::size_t>& sim_filled, const EstimatedMatrix& e,
    int target, bool& no_row) {
  const std::size_t n = ctx_->size();
  // Deficient row with the fewest filled entries but at least one entry with
  // P above the threshold; ties broken at random.
  int best_row = -1;
  std::size_t best_fill = std::numeric_limits<std::size_t>::max();
  int ties = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (given_up_[i]) continue;
    if (sim_filled[i] >= mac::checked_cast<std::size_t>(target)) continue;
    if (sim_filled[i] < best_fill) {
      best_fill = sim_filled[i];
      best_row = mac::checked_cast<int>(i);
      ties = 1;
    } else if (sim_filled[i] == best_fill && rng_.bernoulli(1.0 / ++ties)) {
      best_row = mac::checked_cast<int>(i);
    }
  }
  if (best_row < 0) {
    no_row = true;
    return {};
  }
  const auto row = mac::checked_cast<std::size_t>(best_row);
  // Unfilled entry in that row with the highest P, skipping entries waiting
  // out an infrastructure backoff.  An entry whose bound cannot beat the
  // best so far is not scored: its P could not pass `p > best_p` either
  // (DESIGN.md §14).
  const ProbabilityMatrix::RowBound bound = pm_->row_bound(best_row);
  int best_j = -1;
  double best_p = cfg_.exploit_min_prob;
  bool skipped_backoff = false;
  std::size_t bounded = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == row) continue;
    if (e.filled(row, j)) continue;
    const int jj = mac::checked_cast<int>(j);
    if (under_backoff(best_row, jj)) {
      skipped_backoff = true;
      continue;
    }
    if (pm_->bound(bound, jj) <= best_p) {
      ++bounded;
      continue;
    }
    double p = pm_->entry_prob(best_row, jj);
    if (p > best_p) {
      best_p = p;
      best_j = jj;
    }
  }
  MAC_COUNT_N("scheduler.exploit_entries_bounded", bounded);
  if (skipped_backoff) MAC_COUNT("scheduler.backoff_waits");
  if (best_j < 0) {
    // No measurable entry above the floor.  If entries were only skipped
    // because of backoff the row is not hopeless -- it becomes exploitable
    // again once the infrastructure recovers -- so only give up when the
    // row is genuinely unmeasurable.
    if (!skipped_backoff) given_up_[row] = true;
    return {};
  }
  return {best_row, best_j, false};
}

MeasurementScheduler::Pick MeasurementScheduler::pick_explore(
    const std::vector<std::size_t>& sim_filled, const EstimatedMatrix& e,
    const std::vector<char>& batch_rows) {
  const std::size_t n = ctx_->size();
  // Entry (i, j) minimizing filled(i)+filled(j) with a usable traceroute,
  // at most one exploration per row per batch and one per entry ever.
  // Rows are sorted by fill, and the pick is the usable pair of positions
  // a < b with the least a + b, then the least a.  Only rows not explored
  // in this batch take part.  A row-major search finds that pair: each a
  // stops at its first usable b, or once a + b reaches the best sum so
  // far, and the search ends once no later a can go below it
  // (DESIGN.md §14).
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return sim_filled[a] < sim_filled[b];
  });
  std::vector<std::size_t> open;  // positions of the rows still open
  for (std::size_t a = 0; a < n; ++a)
    if (batch_rows[rows[a]] == 0) open.push_back(a);
  Pick best;
  std::size_t best_sum = 2 * n;
  std::size_t visited = 0;
  for (std::size_t x = 0; x + 1 < open.size(); ++x) {
    const std::size_t a = open[x];
    if (a + open[x + 1] >= best_sum) break;
    for (std::size_t y = x + 1; y < open.size(); ++y) {
      const std::size_t b = open[y];
      if (a + b >= best_sum) break;
      ++visited;
      const std::size_t i = std::min(rows[a], rows[b]);
      const std::size_t j = std::max(rows[a], rows[b]);
      if (e.filled(i, j) || picked_[i * n + j] != 0) continue;
      const int ii = mac::checked_cast<int>(i);
      const int jj = mac::checked_cast<int>(j);
      if (under_backoff(ii, jj) || pm_->entry_prob(ii, jj) <= 0.0) continue;
      best = {ii, jj, true};
      best_sum = a + b;
      break;
    }
  }
  MAC_COUNT_N("scheduler.explore_pairs_visited", visited);
  return best;
}

MeasurementScheduler::Pick MeasurementScheduler::pick_random(
    const EstimatedMatrix& e) {
  const std::size_t n = ctx_->size();
  for (int tries = 0; tries < 64; ++tries) {
    int i = mac::checked_cast<int>(rng_.index(n));
    int j = mac::checked_cast<int>(rng_.index(n));
    if (i == j) continue;
    if (e.filled(mac::checked_cast<std::size_t>(i), mac::checked_cast<std::size_t>(j)))
      continue;
    if (under_backoff(i, j)) continue;
    char& picked = picked_[entry_key(i, j, n)];
    if (picked != 0) continue;
    picked = 1;
    return {std::min(i, j), std::max(i, j), false};
  }
  return {};
}

MeasurementScheduler::Pick MeasurementScheduler::pick_greedy(
    const EstimatedMatrix& e) {
  const std::size_t n = ctx_->size();
  while (greedy_cursor_ < greedy_order_.size()) {
    auto [p, key] = greedy_order_[greedy_cursor_++];
    int i = mac::checked_cast<int>(key / n);
    int j = mac::checked_cast<int>(key % n);
    if (e.filled(mac::checked_cast<std::size_t>(i), mac::checked_cast<std::size_t>(j)))
      continue;
    if (under_backoff(i, j)) continue;
    if (picked_[key] != 0) continue;
    picked_[key] = 1;
    return {i, j, false};
  }
  return {};
}

std::size_t MeasurementScheduler::execute(const Pick& pick) {
  MAC_REQUIRE(pick.i >= 0 && pick.j >= 0 && pick.i != pick.j &&
                  mac::checked_cast<std::size_t>(pick.i) < ctx_->size() &&
                  mac::checked_cast<std::size_t>(pick.j) < ctx_->size(),
              "i=", pick.i, " j=", pick.j, " n=", ctx_->size());
  StrategyChoice choice = pm_->choose(pick.i, pick.j);
  IssuedRecord rec;
  rec.i = pick.i;
  rec.j = pick.j;
  rec.estimated_prob = choice.probability;
  rec.swapped = choice.swapped;
  rec.exploration = pick.exploration;
  if (choice.vp_cat < 0) {
    // No usable strategy: nothing ran, no budget spent.
    history_.push_back(rec);
    return 0;
  }
  rec.strategy = traceroute::strategy_index(choice.vp_cat, choice.tgt_cat);
  MeasurementOutcome out = ms_->run_targeted(*ctx_, pick.i, pick.j,
                                             choice.vp_cat, choice.tgt_cat,
                                             choice.swapped);
  rec.found_existence = out.revealed_direct;
  rec.found_nonexistence = out.revealed_transit;
  rec.infra_failure = out.infra_failure;
  rec.attempts = out.attempts;
  rec.launched = out.launched;
  rec.faulted = out.faulted;

  // Budget: probes that actually left the platform.  A selection collision
  // (candidates existed but e.g. the drawn VP sits in the target AS) keeps
  // the legacy one-unit accounting -- it is a scheduling outcome, not an
  // unspent pick -- so a fault-free run spends exactly what it used to.
  std::size_t spent = mac::checked_cast<std::size_t>(out.launched);
  if (!out.ran() && !out.infra_failure) spent = 1;
  rec.spent = mac::checked_cast<int>(spent);
  history_.push_back(rec);
  learn(rec);

  const bool requeue = out.infra_failure && ms_->resilience();
  const int retries = std::max(out.attempts - 1, 0);
  // Unconditional, so a snapshot names all five even in a run that never
  // faults.
  MAC_COUNT_N("scheduler.probes_launched", out.launched);
  MAC_COUNT_N("scheduler.probes_faulted", out.faulted);
  MAC_COUNT_N("scheduler.retries", retries);
  MAC_COUNT_N("scheduler.infra_failures", out.infra_failure ? 1 : 0);
  MAC_COUNT_N("scheduler.requeues", requeue ? 1 : 0);

  const std::uint64_t key = entry_key(pick.i, pick.j, ctx_->size());
  if (requeue) {
    // The infrastructure, not the strategy, failed: requeue the entry with
    // exponential backoff and leave fail_streak untouched (learn() left
    // P_m untouched too).
    auto& [retry_at, fails] = requeued_[key];
    int doublings = std::min(fails, 7);
    ++fails;
    retry_at = sched_tick_ +
               std::min<std::uint64_t>(
                   mac::checked_cast<std::uint64_t>(kRequeueBackoffBase)
                       << doublings,
                   mac::checked_cast<std::uint64_t>(kRequeueBackoffCap));
    return spent;
  }
  if (!requeued_.empty()) requeued_.erase(key);

  auto i = mac::checked_cast<std::size_t>(pick.i);
  if (out.informative()) {
    fail_streak_[i] = 0;
  } else if (!pick.exploration) {
    if (++fail_streak_[i] >= cfg_.row_fail_limit) given_up_[i] = true;
  }
  return spent;
}

void MeasurementScheduler::learn(const IssuedRecord& rec) {
  if (rec.strategy < 0 || (rec.infra_failure && ms_->resilience())) return;
  StrategyChoice choice;
  choice.vp_cat = rec.strategy / traceroute::kTargetCategories;
  choice.tgt_cat = rec.strategy % traceroute::kTargetCategories;
  choice.swapped = rec.swapped;
  choice.probability = rec.estimated_prob;
  pm_->record(rec.i, rec.j, choice, rec.informative());
}

template <class Self, class Ar>
void MeasurementScheduler::io(Self& s, Ar& ar) {
  ar(s.rng_, s.history_, s.fail_streak_, s.given_up_, s.greedy_order_,
     s.greedy_cursor_, s.sched_tick_, s.requeued_);
  // fill_rows_to and execute index both vectors by every row of the metro.
  // Every loaded entry must lie inside the metro too: the CSV export and
  // the replay read rows by history record, pick_greedy reads E_m at each
  // greedy key, and a requeue failure count sizes a backoff shift.
  // degradation() and the pipeline's traceroute count sum the history's
  // counts.  The replay hands each record's strategy and estimate to
  // ProbabilityMatrix::record, which requires a probability in [0, 1].
  if constexpr (Ar::kLoading) {
    const std::size_t n = s.ctx_->size();
    if (s.fail_streak_.size() != n || s.given_up_.size() != n)
      throw util::checkpoint::CheckpointError(
          "scheduler checkpoint does not match the metro size");
    auto row = [n](int x) {
      return x >= 0 && mac::checked_cast<std::size_t>(x) < n;
    };
    if (!std::all_of(s.history_.begin(), s.history_.end(),
                     [&row](const IssuedRecord& r) {
                       return row(r.i) && row(r.j) && r.i != r.j;
                     }))
      throw util::checkpoint::CheckpointError(
          "scheduler checkpoint names a row outside the metro");
    if (!std::all_of(s.history_.begin(), s.history_.end(),
                     [](const IssuedRecord& r) {
                       return r.strategy >= -1 &&
                              r.strategy < traceroute::kNumStrategies &&
                              r.estimated_prob >= 0.0 &&
                              r.estimated_prob <= 1.0;
                     }))
      throw util::checkpoint::CheckpointError(
          "scheduler checkpoint has a record no strategy choice makes");
    if (!std::all_of(s.history_.begin(), s.history_.end(),
                     [](const IssuedRecord& r) {
                       return r.attempts >= 0 && r.launched >= 0 &&
                              r.faulted >= 0 && r.spent >= 0;
                     }))
      throw util::checkpoint::CheckpointError(
          "scheduler checkpoint has a negative count in its history");
    if (!std::all_of(s.greedy_order_.begin(), s.greedy_order_.end(),
                     [n](const auto& g) {
                       return n > 0 && g.second / n < g.second % n;
                     }))
      throw util::checkpoint::CheckpointError(
          "scheduler checkpoint has a greedy entry outside the metro");
    // execute() sets a retry tick at most kRequeueBackoffCap past the
    // clock, and the clock only grows.
    constexpr auto kCap = mac::checked_cast<std::uint64_t>(kRequeueBackoffCap);
    for (const auto& [key, requeue] : s.requeued_) {  // lint: allow(unordered-iter) -- an all-of test; its answer does not depend on the order
      if (requeue.second < 0)
        throw util::checkpoint::CheckpointError(
            "scheduler checkpoint has a negative requeue count");
      if (requeue.first > s.sched_tick_ &&
          requeue.first - s.sched_tick_ > kCap)
        throw util::checkpoint::CheckpointError(
            "scheduler checkpoint has a retry tick past the longest backoff");
    }
  }

  auto& d = s.degradation_;
  ar(d.fill_target, d.rows, d.rows_at_target, d.rows_given_up,
     d.fill_fraction, d.quarantined_vps, d.dead_vps);
}

void MeasurementScheduler::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void MeasurementScheduler::load(util::checkpoint::Decoder& dec) {
  io(*this, dec);
  // Replay, in the order the picks ran: each one's outcome in P_m, and
  // the de-dup flag of every exploration -- of every pick under kRandom
  // and kGreedy, whose pickers flag each entry they return.
  const bool every_pick = cfg_.policy == SelectionPolicy::kRandom ||
                          cfg_.policy == SelectionPolicy::kGreedy;
  std::fill(picked_.begin(), picked_.end(), 0);
  for (const IssuedRecord& rec : history_) {
    learn(rec);
    if (rec.exploration || every_pick)
      picked_[entry_key(rec.i, rec.j, ctx_->size())] = 1;
  }
}

}  // namespace metas::core
