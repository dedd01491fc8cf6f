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
      ctr_probes_launched_(util::telemetry::Registry::instance().counter(
          "scheduler.probes_launched")),
      ctr_probes_faulted_(util::telemetry::Registry::instance().counter(
          "scheduler.probes_faulted")),
      ctr_retries_(
          util::telemetry::Registry::instance().counter("scheduler.retries")),
      ctr_infra_failures_(util::telemetry::Registry::instance().counter(
          "scheduler.infra_failures")),
      ctr_requeues_(
          util::telemetry::Registry::instance().counter("scheduler.requeues")),
      base_probes_launched_(ctr_probes_launched_.value()),
      base_probes_faulted_(ctr_probes_faulted_.value()),
      base_retries_(ctr_retries_.value()),
      base_infra_failures_(ctr_infra_failures_.value()),
      base_requeues_(ctr_requeues_.value()) {
  MAC_REQUIRE(cfg.batch_size > 0, "batch_size=", cfg.batch_size);
  MAC_REQUIRE(cfg.epsilon >= 0.0 && cfg.epsilon <= 1.0,
              "epsilon=", cfg.epsilon);
  MAC_REQUIRE(cfg.row_fail_limit > 0, "row_fail_limit=", cfg.row_fail_limit);
  MAC_REQUIRE(cfg.requeue_backoff_base >= 1 &&
                  cfg.requeue_backoff_cap >= cfg.requeue_backoff_base,
              "requeue_backoff_base=", cfg.requeue_backoff_base,
              " cap=", cfg.requeue_backoff_cap);
  MAC_REQUIRE(cfg.exploit_min_prob >= 0.0 && cfg.exploit_min_prob <= 1.0,
              "exploit_min_prob=", cfg.exploit_min_prob);
  if (cfg_.policy == SelectionPolicy::kOnlyExploit) cfg_.epsilon = 0.0;
  if (cfg_.policy == SelectionPolicy::kOnlyExplore) cfg_.epsilon = 1.0;
  if (cfg_.policy == SelectionPolicy::kIxpMapped) {
    pm_->restrict_to_ixp_mapped();
    cfg_.epsilon = 0.0;
  }
}

std::size_t MeasurementScheduler::fill_rows_to(int target, std::size_t budget) {
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
    if (control_ != nullptr && control_->stop_requested()) {
      MAC_COUNT("scheduler.campaigns_stopped_early");
      break;
    }
    EstimatedMatrix e = ms_->build_matrix(*ctx_);
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
                                   mac::checked_cast<std::size_t>(std::max(
                                       1, ms_->resilience().max_attempts)),
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
  EstimatedMatrix e = ms_->build_matrix(*ctx_);
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
  // Counter fields: reads of the registry counters, minus this scheduler's
  // construction-time baselines.  Exact because schedulers run sequentially.
  degradation_.probes_launched = ctr_probes_launched_.value() - base_probes_launched_;
  degradation_.probes_faulted = ctr_probes_faulted_.value() - base_probes_faulted_;
  degradation_.retries = ctr_retries_.value() - base_retries_;
  degradation_.infra_failures = ctr_infra_failures_.value() - base_infra_failures_;
  degradation_.requeues = ctr_requeues_.value() - base_requeues_;
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

BatchResult MeasurementScheduler::run_batch(const EstimatedMatrix& e,
                                            int target) {
  const std::size_t n = ctx_->size();
  // Optimistic per-batch fill counts: selected measurements are assumed
  // successful while composing the batch (§3.3.1).
  std::vector<std::size_t> sim_filled(n);
  for (std::size_t i = 0; i < n; ++i) sim_filled[i] = e.row_filled(i);

  std::unordered_set<std::uint64_t> batch_explored_rows;
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
        if (rng_.bernoulli(cfg_.epsilon))
          pick = pick_explore(sim_filled, e, batch_explored_rows);
        else
          pick = pick_exploit(sim_filled, e, target);
        break;
    }
    if (pick.i < 0) continue;
    MAC_COUNT("scheduler.picks_selected");
    if (pick.exploration) {
      MAC_COUNT("scheduler.picks_exploration");
      batch_explored_rows.insert(mac::checked_cast<std::uint64_t>(pick.i));
      batch_explored_rows.insert(mac::checked_cast<std::uint64_t>(pick.j));
      explored_entries_.insert(entry_key(pick.i, pick.j, n));
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
    int target) {
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
  if (best_row < 0) return {};
  // Unfilled entry in that row with the highest P, skipping entries waiting
  // out an infrastructure backoff.
  int best_j = -1;
  double best_p = cfg_.exploit_min_prob;
  bool skipped_backoff = false;
  for (std::size_t j = 0; j < n; ++j) {
    if (mac::checked_cast<int>(j) == best_row) continue;
    if (e.filled(mac::checked_cast<std::size_t>(best_row), j)) continue;
    if (under_backoff(best_row, mac::checked_cast<int>(j))) {
      skipped_backoff = true;
      continue;
    }
    double p = pm_->entry_prob(best_row, mac::checked_cast<int>(j));
    if (p > best_p) {
      best_p = p;
      best_j = mac::checked_cast<int>(j);
    }
  }
  if (skipped_backoff) MAC_COUNT("scheduler.backoff_waits");
  if (best_j < 0) {
    // No measurable entry above the floor.  If entries were only skipped
    // because of backoff the row is not hopeless -- it becomes exploitable
    // again once the infrastructure recovers -- so only give up when the
    // row is genuinely unmeasurable.
    if (!skipped_backoff)
      given_up_[mac::checked_cast<std::size_t>(best_row)] = true;
    return {};
  }
  return {best_row, best_j, false};
}

MeasurementScheduler::Pick MeasurementScheduler::pick_explore(
    const std::vector<std::size_t>& sim_filled, const EstimatedMatrix& e,
    const std::unordered_set<std::uint64_t>& batch_rows) {
  const std::size_t n = ctx_->size();
  // Entry (i, j) minimizing filled(i)+filled(j) with a usable traceroute,
  // at most one exploration per row per batch and one per entry ever.
  // Rows are scanned in increasing fill order and pairs in increasing
  // fill-sum order (anti-diagonal sweep), so the first usable hit minimizes
  // the sum without materializing all O(n^2) candidates.
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return sim_filled[a] < sim_filled[b];
  });
  for (std::size_t s = 1; s < 2 * n - 1; ++s) {
    for (std::size_t a = (s >= n ? s - n + 1 : 0); 2 * a < s; ++a) {
      std::size_t b = s - a;
      if (b >= n) continue;
      std::size_t i = rows[a], j = rows[b];
      if (batch_rows.count(i) != 0 || batch_rows.count(j) != 0) continue;
      if (i > j) std::swap(i, j);
      if (i == j || e.filled(i, j)) continue;
      if (explored_entries_.count(entry_key(mac::checked_cast<int>(i),
                                            mac::checked_cast<int>(j), n)) != 0)
        continue;
      if (under_backoff(mac::checked_cast<int>(i), mac::checked_cast<int>(j))) continue;
      if (pm_->entry_prob(mac::checked_cast<int>(i), mac::checked_cast<int>(j)) > 0.0)
        return {mac::checked_cast<int>(i), mac::checked_cast<int>(j), true};
    }
  }
  return {};
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
    auto key = entry_key(i, j, n);
    if (attempted_.count(key) != 0) continue;
    attempted_.insert(key);
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
    if (attempted_.count(key) != 0) continue;
    attempted_.insert(key);
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
  rec.exploration = pick.exploration;
  if (choice.vp_cat < 0) {
    // No usable strategy: nothing ran, no budget spent.
    history_.push_back(rec);
    return 0;
  }
  AsId as_i = ctx_->as_at(mac::checked_cast<std::size_t>(pick.i));
  AsId as_j = ctx_->as_at(mac::checked_cast<std::size_t>(pick.j));
  MeasurementOutcome out = ms_->run_targeted(as_i, as_j, ctx_->metro(),
                                             choice.vp_cat, choice.tgt_cat,
                                             choice.swapped);
  rec.ran = out.ran;
  rec.informative = out.informative;
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
  if (!out.ran && !out.infra_failure) spent = 1;
  rec.spent = mac::checked_cast<int>(spent);
  history_.push_back(rec);

  ctr_probes_launched_.add(mac::checked_cast<std::uint64_t>(out.launched));
  ctr_probes_faulted_.add(mac::checked_cast<std::uint64_t>(out.faulted));
  if (out.attempts > 1)
    ctr_retries_.add(mac::checked_cast<std::uint64_t>(out.attempts - 1));

  const std::uint64_t key = entry_key(pick.i, pick.j, ctx_->size());
  if (out.infra_failure && ms_->resilience().enabled) {
    // The infrastructure, not the strategy, failed: requeue the entry with
    // exponential backoff and leave fail_streak / P_m untouched.
    ctr_infra_failures_.add();
    ctr_requeues_.add();
    auto& [retry_at, fails] = requeued_[key];
    int doublings = std::min(fails, 7);
    ++fails;
    retry_at = sched_tick_ +
               std::min<std::uint64_t>(
                   mac::checked_cast<std::uint64_t>(cfg_.requeue_backoff_base)
                       << doublings,
                   mac::checked_cast<std::uint64_t>(cfg_.requeue_backoff_cap));
    return spent;
  }
  if (out.infra_failure) ctr_infra_failures_.add();
  if (!requeued_.empty()) requeued_.erase(key);

  pm_->record(pick.i, pick.j, choice, out.informative);

  auto i = mac::checked_cast<std::size_t>(pick.i);
  if (out.informative) {
    fail_streak_[i] = 0;
  } else if (!pick.exploration) {
    if (++fail_streak_[i] >= cfg_.row_fail_limit) given_up_[i] = true;
  }
  return spent;
}

namespace {

void save_u64_set(util::checkpoint::Encoder& enc,
                  const std::unordered_set<std::uint64_t>& set) {
  std::vector<std::uint64_t> keys;
  keys.reserve(set.size());
  for (std::uint64_t k : set)  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
    keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  enc.u64(keys.size());
  for (std::uint64_t k : keys) enc.u64(k);
}

void load_u64_set(util::checkpoint::Decoder& dec,
                  std::unordered_set<std::uint64_t>& set) {
  set.clear();
  const std::uint64_t n = dec.u64();
  for (std::uint64_t k = 0; k < n; ++k) set.insert(dec.u64());
}

}  // namespace

void MeasurementScheduler::save(util::checkpoint::Encoder& enc) const {
  enc.str(rng_.save_state());

  enc.u64(history_.size());
  for (const IssuedRecord& r : history_) {
    enc.i32(r.i);
    enc.i32(r.j);
    enc.f64(r.estimated_prob);
    enc.b(r.ran);
    enc.b(r.informative);
    enc.b(r.found_existence);
    enc.b(r.found_nonexistence);
    enc.b(r.exploration);
    enc.b(r.infra_failure);
    enc.i32(r.attempts);
    enc.i32(r.launched);
    enc.i32(r.faulted);
    enc.i32(r.spent);
  }

  enc.u64(fail_streak_.size());
  for (int f : fail_streak_) enc.i32(f);
  enc.u64(given_up_.size());
  for (bool g : given_up_) enc.b(g);

  save_u64_set(enc, explored_entries_);
  enc.u64(greedy_order_.size());
  for (const auto& [p, key] : greedy_order_) {
    enc.f64(p);
    enc.u64(key);
  }
  enc.u64(greedy_cursor_);
  save_u64_set(enc, attempted_);
  enc.u64(sched_tick_);

  std::vector<std::uint64_t> rq_keys;
  rq_keys.reserve(requeued_.size());
  for (const auto& [key, v] : requeued_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
    rq_keys.push_back(key);
  std::sort(rq_keys.begin(), rq_keys.end());
  enc.u64(rq_keys.size());
  for (std::uint64_t key : rq_keys) {
    const auto& [retry_at, fails] = requeued_.at(key);
    enc.u64(key);
    enc.u64(retry_at);
    enc.i32(fails);
  }

  // Registry counters: persist this scheduler's *deltas*.  On load the
  // baselines become current-value minus delta (mod 2^64), so the
  // value-minus-baseline report stays exact in a fresh process whose
  // counters restart at zero.
  enc.u64(ctr_probes_launched_.value() - base_probes_launched_);
  enc.u64(ctr_probes_faulted_.value() - base_probes_faulted_);
  enc.u64(ctr_retries_.value() - base_retries_);
  enc.u64(ctr_infra_failures_.value() - base_infra_failures_);
  enc.u64(ctr_requeues_.value() - base_requeues_);

  enc.i32(degradation_.fill_target);
  enc.u64(degradation_.rows);
  enc.u64(degradation_.rows_at_target);
  enc.u64(degradation_.rows_given_up);
  enc.f64(degradation_.fill_fraction);
  enc.u64(degradation_.probes_launched);
  enc.u64(degradation_.probes_faulted);
  enc.u64(degradation_.retries);
  enc.u64(degradation_.infra_failures);
  enc.u64(degradation_.requeues);
  enc.u64(degradation_.quarantined_vps);
  enc.u64(degradation_.dead_vps);
}

void MeasurementScheduler::load(util::checkpoint::Decoder& dec) {
  rng_.restore_state(dec.str());

  history_.clear();
  const std::uint64_t nh = dec.u64();
  history_.reserve(nh);
  for (std::uint64_t k = 0; k < nh; ++k) {
    IssuedRecord r;
    r.i = dec.i32();
    r.j = dec.i32();
    r.estimated_prob = dec.f64();
    r.ran = dec.b();
    r.informative = dec.b();
    r.found_existence = dec.b();
    r.found_nonexistence = dec.b();
    r.exploration = dec.b();
    r.infra_failure = dec.b();
    r.attempts = dec.i32();
    r.launched = dec.i32();
    r.faulted = dec.i32();
    r.spent = dec.i32();
    history_.push_back(r);
  }

  fail_streak_.assign(dec.u64(), 0);
  for (int& f : fail_streak_) f = dec.i32();
  given_up_.assign(dec.u64(), false);
  for (std::size_t k = 0; k < given_up_.size(); ++k) given_up_[k] = dec.b();

  load_u64_set(dec, explored_entries_);
  greedy_order_.clear();
  const std::uint64_t ng = dec.u64();
  greedy_order_.reserve(ng);
  for (std::uint64_t k = 0; k < ng; ++k) {
    const double p = dec.f64();
    greedy_order_.emplace_back(p, dec.u64());
  }
  greedy_cursor_ = dec.u64();
  load_u64_set(dec, attempted_);
  sched_tick_ = dec.u64();

  requeued_.clear();
  const std::uint64_t nr = dec.u64();
  for (std::uint64_t k = 0; k < nr; ++k) {
    const std::uint64_t key = dec.u64();
    auto& [retry_at, fails] = requeued_[key];
    retry_at = dec.u64();
    fails = dec.i32();
  }

  // Re-anchor the counter baselines so value() - base reproduces the saved
  // deltas (unsigned arithmetic keeps this correct even when the fresh
  // process's counters are below the saved deltas).
  base_probes_launched_ = ctr_probes_launched_.value() - dec.u64();
  base_probes_faulted_ = ctr_probes_faulted_.value() - dec.u64();
  base_retries_ = ctr_retries_.value() - dec.u64();
  base_infra_failures_ = ctr_infra_failures_.value() - dec.u64();
  base_requeues_ = ctr_requeues_.value() - dec.u64();

  degradation_.fill_target = dec.i32();
  degradation_.rows = dec.u64();
  degradation_.rows_at_target = dec.u64();
  degradation_.rows_given_up = dec.u64();
  degradation_.fill_fraction = dec.f64();
  degradation_.probes_launched = dec.u64();
  degradation_.probes_faulted = dec.u64();
  degradation_.retries = dec.u64();
  degradation_.infra_failures = dec.u64();
  degradation_.requeues = dec.u64();
  degradation_.quarantined_vps = dec.u64();
  degradation_.dead_vps = dec.u64();
}

}  // namespace metas::core
