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
#include <vector>

#include "core/measurement_system.hpp"
#include "core/probability.hpp"
#include "util/cancel.hpp"

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
};

/// While the MeasurementSystem's resilience is on, infrastructure failures
/// requeue the entry with this exponential backoff in scheduler ticks (pick
/// slots) and never count toward fail_streak / give-up; with it off they
/// are treated like uninformative results (the --no-resilience ablation).
inline constexpr int kRequeueBackoffBase = 8;
inline constexpr int kRequeueBackoffCap = 1024;

/// One issued targeted measurement, kept for the Fig.-4 calibration study.
/// The history of these records is the scheduler's whole account of a
/// metro: P_m and the explore flags are replayed from it on load.
struct IssuedRecord {
  int i = -1, j = -1;
  double estimated_prob = 0.0;
  int strategy = -1;          // strategy_index of the choice; -1: none usable
  bool swapped = false;       // the choice probed near j, target in i
  bool found_existence = false;
  bool found_nonexistence = false;
  bool exploration = false;   // picked by the explore arm (Fig.-4 split)
  bool infra_failure = false; // every attempt eaten by the infrastructure
  int attempts = 0;           // probe attempts, including failovers
  int launched = 0;           // attempts that spent measurement budget
  int faulted = 0;            // attempts that hit an injected fault
  int spent = 0;              // budget charged for this pick (audit trail)

  /// At least one probe launched.
  bool ran() const { return launched > 0; }
  /// Revealed the link's existence or non-existence.
  bool informative() const { return found_existence || found_nonexistence; }

  /// Checkpoint field list (util/checkpoint.hpp).
  template <class Self, class Ar>
  static void io(Self& r, Ar& ar) {
    ar(r.i, r.j, r.estimated_prob, r.strategy, r.swapped, r.found_existence,
       r.found_nonexistence, r.exploration, r.infra_failure, r.attempts,
       r.launched, r.faulted, r.spent);
  }
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
/// cost along the way.  Counters sum the scheduler's whole history; fill
/// statistics and the VP states describe the end of the most recent
/// fill_rows_to call.
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

  // Pipeline phases a stop cut short (filled in by the pipeline, not the
  // scheduler); 0 on an uninterrupted run.
  std::size_t phases_truncated = 0;
};

class MeasurementScheduler {
 public:
  MeasurementScheduler(const MetroContext& ctx, MeasurementSystem& ms,
                       ProbabilityMatrix& pm, SchedulerConfig cfg);

  /// Issues batches until every (non-given-up) row of the current estimated
  /// matrix has at least `target` filled entries, the budget is exhausted, or
  /// no further progress is possible. Returns probes launched (budget spent).
  /// `control` (may be null) is polled between batches: a stop finishes the
  /// in-flight batch, runs the campaign's degradation accounting and
  /// returns normally -- no partial batch is ever abandoned.
  std::size_t fill_rows_to(int target, std::size_t budget,
                           const util::RunControl* control = nullptr);

  /// Runs one batch against the current fill state.
  BatchResult run_batch(const EstimatedMatrix& current, int target);

  const std::vector<IssuedRecord>& history() const { return history_; }

  /// Rows the scheduler gave up on during the last fill_rows_to call.
  const std::vector<bool>& given_up() const { return given_up_; }

  /// Degradation summary; see DegradationReport for accumulation semantics.
  DegradationReport degradation() const;

  /// Checkpoint serialization of the scheduler's own state: the RNG
  /// stream, the issued-measurement log, per-row fail/give-up state, the
  /// greedy order, the backoff queue and the last campaign's fill
  /// statistics.  load() then replays the log: each record into P_m, as
  /// execute() applied it, and each pick the policy's de-dup covers into
  /// its flag, so P_m must be as this scheduler's constructor left it.
  /// load() throws CheckpointError on state no run reaches: per-row state
  /// of another size, a record or entry outside the metro, a record whose
  /// replay P_m would refuse, a negative count, or a retry tick past the
  /// longest backoff.
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);

  struct Pick { int i = -1, j = -1; bool exploration = false; };
  /// Sets `no_row` when no row qualifies.  That holds for the rest of the
  /// batch: `sim_filled` only grows and rows are only ever given up.
  Pick pick_exploit(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e, int target, bool& no_row);
  Pick pick_explore(const std::vector<std::size_t>& sim_filled,
                    const EstimatedMatrix& e,
                    const std::vector<char>& batch_rows);
  Pick pick_random(const EstimatedMatrix& e);
  Pick pick_greedy(const EstimatedMatrix& e);
  /// Runs the pick; returns probes launched (0 when no strategy was usable
  /// or the infrastructure blocked every attempt before launch).
  std::size_t execute(const Pick& pick);
  /// Applies a record's outcome to P_m: a pick with no usable strategy
  /// teaches it nothing, and neither does an infrastructure failure while
  /// resilience is on (the entry is requeued instead).
  void learn(const IssuedRecord& rec);
  bool under_backoff(int i, int j) const;
  void finish_campaign(int target);

  const MetroContext* ctx_;  // lint: allow(view-member) -- caller-owned context; schedulers are per-metro and scoped inside the pipeline
  MeasurementSystem* ms_;  // lint: allow(view-member) -- caller-owned measurement system, same scope as ctx_
  ProbabilityMatrix* pm_;  // lint: allow(view-member) -- caller-owned matrix the scheduler reads/refines in place
  SchedulerConfig cfg_;
  util::Rng rng_;
  std::vector<IssuedRecord> history_;
  std::vector<int> fail_streak_;
  std::vector<bool> given_up_;
  // Per entry key lo * n + hi (lo < hi): 1 once the policy's de-dup skips
  // the entry.  Under kRandom and kGreedy that is once pick_random or
  // pick_greedy chose it; under every other policy, once the explore arm
  // did (one exploration per entry, ever).  Replayed from history_ on load.
  std::vector<char> picked_;
  std::vector<std::pair<double, std::uint64_t>> greedy_order_;  // lazy, desc
  std::size_t greedy_cursor_ = 0;

  // The last campaign's fill statistics and VP states; degradation() adds
  // the counters from history_.
  DegradationReport degradation_;
  std::uint64_t sched_tick_ = 0;  // one per batch slot processed
  // Infra-failed entries waiting out their backoff:
  // entry key -> (retry-at tick, consecutive infra failures).
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, int>> requeued_;
};

}  // namespace metas::core
