// Targeted-measurement scheduling (§3.3.1): epsilon-greedy batches mixing
// exploitation (fill the most deficient rows using P_m) and exploration
// (probe the least-known row/column pairs to correct P_m's errors).
//
// Alternative selection policies (random / greedy / only-exploration /
// only-exploitation / IXP-mapped) share the same machinery so the Table-2 and
// Fig-10/11 comparisons are apples to apples.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/measurement_system.hpp"
#include "core/probability.hpp"
#include "util/cancel.hpp"
#include "util/telemetry.hpp"

namespace metas::core {

enum class SelectionPolicy {
  kMetascritic,     // epsilon-greedy exploit/explore
  kOnlyExploit,
  kOnlyExplore,
  kRandom,          // uniformly random unfilled entries
  kGreedy,          // entries with the highest P first
  kIxpMapped,       // prior work's probe/target restriction [17]
};

struct SchedulerConfig {
  double epsilon = 0.1;            // exploration fraction
  int batch_size = 300;
  double exploit_min_prob = 0.1;   // rows need some P_ij above this
  int row_fail_limit = 6;          // successive uninformative tries per row
  SelectionPolicy policy = SelectionPolicy::kMetascritic;
  std::uint64_t seed = 11;
  /// While the MeasurementSystem's ResilienceConfig is enabled,
  /// infrastructure failures requeue the entry with this exponential backoff
  /// and never count toward fail_streak / give-up; with it disabled they are
  /// treated like uninformative results (the --no-resilience ablation).
  int requeue_backoff_base = 8;    // scheduler ticks (pick slots)
  int requeue_backoff_cap = 1024;
};

/// One issued targeted measurement, kept for the Fig.-4 calibration study.
struct IssuedRecord {
  int i = -1, j = -1;
  double estimated_prob = 0.0;
  bool ran = false;           // at least one probe launched
  bool informative = false;
  bool found_existence = false;
  bool found_nonexistence = false;
  bool exploration = false;   // picked by the explore arm (Fig.-4 split)
  bool infra_failure = false; // every attempt eaten by the infrastructure
  int attempts = 0;           // probe attempts, including failovers
  int launched = 0;           // attempts that spent measurement budget
  int faulted = 0;            // attempts that hit an injected fault
  int spent = 0;              // budget charged for this pick (audit trail)
};

/// Per-batch accounting: slots that selected a pick vs. probes that actually
/// spent measurement budget (a pick with no usable strategy, or one blocked
/// by the infrastructure before launch, selects without spending).
struct BatchResult {
  std::size_t selected = 0;
  std::size_t launched = 0;
};

/// Graceful-degradation summary of a measurement campaign at one metro:
/// what fill was achieved against the target, and what the infrastructure
/// cost along the way.  Counters accumulate over the scheduler's lifetime;
/// fill statistics describe the most recent fill_rows_to call.  The counter
/// fields are materialized from the process-wide telemetry registry
/// (`scheduler.*` counters) when a campaign finishes -- the registry is the
/// single source of truth for this accounting (DESIGN.md §8).
struct DegradationReport {
  int fill_target = 0;             // per-row target of the last campaign
  std::size_t rows = 0;
  std::size_t rows_at_target = 0;
  std::size_t rows_given_up = 0;
  double fill_fraction = 0.0;      // mean over rows of min(filled/target, 1)
  std::size_t probes_launched = 0; // traceroutes that spent budget
  std::size_t probes_faulted = 0;  // attempts lost to infrastructure faults
  std::size_t retries = 0;         // failover attempts past the first
  std::size_t infra_failures = 0;  // measurements with every attempt faulted
  std::size_t requeues = 0;        // entries sent back with backoff
  std::size_t quarantined_vps = 0; // VPs sidelined when the campaign ended
  std::size_t dead_vps = 0;        // permanently churned VPs

  // Crash-safety accounting (filled in by the pipeline, not the scheduler):
  // how the run was cut short and what was preserved.  All fields stay at
  // their defaults on an uninterrupted run without checkpoint/deadline flags.
  std::size_t phases_truncated = 0;   // pipeline phases stopped early
  bool cancelled = false;             // CancelToken tripped (SIGINT/SIGTERM)
  bool deadline_expired = false;      // --deadline-ms budget exhausted
  std::uint64_t budget_consumed_ms = 0;  // wall time consumed of the budget
  std::size_t checkpoints_written = 0;   // snapshots persisted during run()
};

class MeasurementScheduler {
 public:
  MeasurementScheduler(const MetroContext& ctx, MeasurementSystem& ms,
                       ProbabilityMatrix& pm, SchedulerConfig cfg);

  /// Issues batches until every (non-given-up) row of the current estimated
  /// matrix has at least `target` filled entries, the budget is exhausted, or
  /// no further progress is possible. Returns probes launched (budget spent).
  std::size_t fill_rows_to(int target, std::size_t budget);

  /// Runs one batch against the current fill state.
  BatchResult run_batch(const EstimatedMatrix& current, int target);

  const std::vector<IssuedRecord>& history() const { return history_; }

  /// Rows the scheduler gave up on during the last fill_rows_to call.
  const std::vector<bool>& given_up() const { return given_up_; }

  /// Degradation summary; see DegradationReport for accumulation semantics.
  const DegradationReport& degradation() const { return degradation_; }

  /// Installs a cooperative stop control polled between batches (may be
  /// null).  A stop finishes the in-flight batch, runs the campaign's
  /// degradation accounting, and returns normally with the budget spent so
  /// far -- no partial batch is ever abandoned.
  void set_run_control(const util::RunControl* control) { control_ = control; }

  /// Checkpoint serialization of all mutable scheduler state: the RNG
  /// stream, the issued-measurement log, per-row fail/give-up state, the
  /// exploration/greedy/random bookkeeping, the backoff queue and the
  /// degradation counters (as deltas against the construction baselines).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  struct Pick { int i = -1, j = -1; bool exploration = false; };
  Pick pick_exploit(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e, int target);
  Pick pick_explore(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e,
                    const std::unordered_set<std::uint64_t>& batch_rows);
  Pick pick_random(const EstimatedMatrix& e);
  Pick pick_greedy(const EstimatedMatrix& e);
  /// Runs the pick; returns probes launched (0 when no strategy was usable
  /// or the infrastructure blocked every attempt before launch).
  std::size_t execute(const Pick& pick);
  bool under_backoff(int i, int j) const;
  void finish_campaign(int target);

  const MetroContext* ctx_;  // lint: allow(view-member) -- caller-owned context; schedulers are per-metro and scoped inside the pipeline
  MeasurementSystem* ms_;  // lint: allow(view-member) -- caller-owned measurement system, same scope as ctx_
  ProbabilityMatrix* pm_;  // lint: allow(view-member) -- caller-owned matrix the scheduler reads/refines in place
  const util::RunControl* control_ = nullptr;  // lint: allow(view-member) -- optional stop control owned by the pipeline's caller; may be null
  SchedulerConfig cfg_;
  util::Rng rng_;
  std::vector<IssuedRecord> history_;
  std::vector<int> fail_streak_;
  std::vector<bool> given_up_;
  std::unordered_set<std::uint64_t> explored_entries_;  // lifetime 1 per entry
  std::vector<std::pair<double, std::uint64_t>> greedy_order_;  // lazy, desc
  std::size_t greedy_cursor_ = 0;
  std::unordered_set<std::uint64_t> attempted_;  // greedy/random de-dup

  // Degradation accounting lives in registry-owned counters (product
  // behaviour: built in telemetry-disabled configurations too).  Baselines
  // captured at construction make the per-scheduler report exact when
  // several schedulers run in one process.
  util::telemetry::Counter& ctr_probes_launched_;  // lint: allow(view-member) -- registry-owned counter; the process-lifetime registry outlives any scheduler
  util::telemetry::Counter& ctr_probes_faulted_;  // lint: allow(view-member) -- registry-owned counter; the process-lifetime registry outlives any scheduler
  util::telemetry::Counter& ctr_retries_;  // lint: allow(view-member) -- registry-owned counter; the process-lifetime registry outlives any scheduler
  util::telemetry::Counter& ctr_infra_failures_;  // lint: allow(view-member) -- registry-owned counter; the process-lifetime registry outlives any scheduler
  util::telemetry::Counter& ctr_requeues_;  // lint: allow(view-member) -- registry-owned counter; the process-lifetime registry outlives any scheduler
  std::uint64_t base_probes_launched_ = 0;
  std::uint64_t base_probes_faulted_ = 0;
  std::uint64_t base_retries_ = 0;
  std::uint64_t base_infra_failures_ = 0;
  std::uint64_t base_requeues_ = 0;

  DegradationReport degradation_;
  std::uint64_t sched_tick_ = 0;  // one per batch slot processed
  // Infra-failed entries waiting out their backoff:
  // entry key -> (retry-at tick, consecutive infra failures).
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, int>> requeued_;
};

}  // namespace metas::core
