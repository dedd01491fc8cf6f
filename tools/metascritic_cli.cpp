// metascritic_cli: run the full pipeline from the command line and export
// the inferred topology as CSV -- the workflow a downstream consumer of the
// real system would script.
//
// Usage:
//   metascritic_cli [--seed N] [--metro NAME|--all-metros] [--scale small|paper]
//                   [--threshold X|auto] [--out DIR] [--quiet]
//                   [--fault-profile none|flaky|storm] [--no-resilience]
//                   [--checkpoint PATH] [--resume PATH] [--deadline-ms N]
//                   [--trace PATH] [--trace-buffer-events N]
//
// Writes per-metro <out>/<metro>_links.csv, <metro>_ratings.csv, and
// <metro>_measurements.csv, and prints a summary table. With a non-trivial
// fault profile the summary also reports how the measurement plane degraded
// (row fill achieved, probes lost to faults, retries, quarantined VPs).
// With --telemetry PATH a snapshot of the process-wide metrics registry
// (counters, gauges, histograms, span tree; see DESIGN.md §8) is written
// after the run in JSON (default) or flat CSV.
//
// Crash safety (DESIGN.md §12): --checkpoint persists a resumable snapshot
// at every rank boundary and metro completion; --resume continues a killed
// or cancelled run from the newest good snapshot, producing exports
// byte-identical to an uninterrupted run with the same flags.  SIGINT /
// SIGTERM and --deadline-ms stop cooperatively: the current work unit
// finishes, a final checkpoint is written, and best-so-far results plus a
// degradation table are emitted instead of a dead process.
//
// Tracing (DESIGN.md §13): --trace PATH arms the per-thread ring-buffer
// flight recorder and writes a Chrome trace-event / Perfetto-compatible
// JSON timeline (span begin/end, instants, counter samples) at the end of
// the run; --trace-buffer-events N bounds the per-thread ring (oldest
// events drop first, counted in the trace header).  While tracing is armed
// every successful checkpoint write also dumps the ring next to the
// checkpoint (<checkpoint>.trace.json), so a killed or cancelled run
// leaves a timeline of its final moments.
#include <csignal>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>

#include "eval/export.hpp"
#include "eval/metrics.hpp"
#include "eval/world.hpp"
#include "util/cancel.hpp"
#include "util/checkpoint.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace {

// Tripped (flag-only, async-signal-safe) by SIGINT/SIGTERM; polled by every
// pipeline phase.  File-scope is deliberate: signal handlers cannot receive
// context, and tools/ is outside the src/ mutable-static lint scope.
metas::util::CancelToken g_cancel;

extern "C" void cli_signal_handler(int) { g_cancel.cancel(); }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = &cli_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

struct CliOptions {
  std::uint64_t seed = 42;
  std::string metro;       // empty = first focus metro
  bool all_metros = false;
  std::string scale = "small";
  double threshold = -2.0;  // -2 = auto (pipeline's F-max lambda)
  std::string out_dir = "metascritic_out";
  bool quiet = false;
  metas::traceroute::FaultProfile faults;  // default: none (inert)
  bool resilience = true;
  std::string telemetry_path;  // empty = no snapshot
  metas::util::telemetry::Format telemetry_format =
      metas::util::telemetry::Format::kJson;
  std::string checkpoint_path;  // empty = no checkpointing
  std::string resume_path;      // empty = fresh run
  std::string trace_path;       // empty = no tracing
  std::size_t trace_buffer_events =
      metas::util::trace::kDefaultBufferEvents;
  std::uint64_t deadline_ms = 0;  // 0 = no deadline
  int keep_checkpoints = 3;
  // Test hook for the crash-injection suite: SIGKILL this process right
  // after the Nth checkpoint file hits disk, so the "crash" lands exactly
  // on a checkpoint boundary.  0 disables.
  int crash_after_checkpoints = 0;
};

/// One completed metro's summary numbers, kept as raw values (not table
/// rows) so they serialize into checkpoints and survive a resume.
struct MetroSummary {
  std::string name;
  std::size_t ases = 0;
  int rank = 0;
  std::size_t traces = 0;
  double lambda = 0.0;
  std::size_t links = 0;
  double fill_fraction = 0.0;
  std::size_t probes_faulted = 0;
  std::size_t retries = 0;
  std::size_t requeues = 0;
  std::size_t quarantined = 0;
  std::size_t dead = 0;

  template <class Self, class Ar>
  static void io(Self& m, Ar& ar) {
    ar(m.name, m.ases, m.rank, m.traces, m.lambda, m.links, m.fill_fraction,
       m.probes_faulted, m.retries, m.requeues, m.quarantined, m.dead);
  }
};

void usage() {
  std::cout <<
      "usage: metascritic_cli [--seed N] [--metro NAME | --all-metros]\n"
      "                       [--scale small|paper] [--threshold X|auto]\n"
      "                       [--out DIR] [--quiet]\n"
      "                       [--fault-profile none|flaky|storm] [--no-resilience]\n"
      "                       [--telemetry PATH] [--telemetry-format json|csv]\n"
      "                       [--checkpoint PATH] [--resume PATH]\n"
      "                       [--deadline-ms N] [--keep-checkpoints K]\n"
      "                       [--trace PATH] [--trace-buffer-events N]\n";
}

bool parse_args(int argc, char** argv, CliOptions& opt) {
  for (int k = 1; k < argc; ++k) {
    std::string arg = argv[k];
    auto next = [&]() -> const char* {
      return k + 1 < argc ? argv[++k] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--metro") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.metro = v;
    } else if (arg == "--all-metros") {
      opt.all_metros = true;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr || (std::string(v) != "small" && std::string(v) != "paper"))
        return false;
      opt.scale = v;
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::string(v) != "auto") opt.threshold = std::strtod(v, nullptr);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.out_dir = v;
    } else if (arg == "--fault-profile") {
      const char* v = next();
      if (v == nullptr || !metas::traceroute::parse_fault_profile(v, opt.faults))
        return false;
    } else if (arg == "--telemetry") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.telemetry_path = v;
    } else if (arg == "--telemetry-format") {
      const char* v = next();
      if (v == nullptr) return false;
      std::string fmt = v;
      if (fmt == "json")
        opt.telemetry_format = metas::util::telemetry::Format::kJson;
      else if (fmt == "csv")
        opt.telemetry_format = metas::util::telemetry::Format::kCsv;
      else
        return false;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.checkpoint_path = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.resume_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.trace_path = v;
    } else if (arg == "--trace-buffer-events") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.trace_buffer_events = std::strtoull(v, nullptr, 10);
      if (opt.trace_buffer_events == 0) return false;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.deadline_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--keep-checkpoints") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.keep_checkpoints = static_cast<int>(std::strtol(v, nullptr, 10));
      if (opt.keep_checkpoints < 1) return false;
    } else if (arg == "--crash-after-checkpoints") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.crash_after_checkpoints = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--no-resilience") {
      opt.resilience = false;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      return false;
    }
  }
  // --resume implies continued checkpointing to the same file.
  if (!opt.resume_path.empty() && opt.checkpoint_path.empty())
    opt.checkpoint_path = opt.resume_path;
  return true;
}

/// Everything that pins the deterministic trajectory of a run.  A resume
/// with a different fingerprint would silently diverge, so it is rejected.
auto fingerprint(const CliOptions& opt) {
  const metas::traceroute::FaultProfile& f = opt.faults;
  return std::tuple(opt.seed, opt.scale, opt.all_metros, opt.metro,
                    opt.resilience, f.outage_start, f.outage_end, f.death,
                    f.loss, f.bucket_capacity, f.bucket_refill,
                    f.incident_start, f.incident_end, f.seed);
}

/// Mutable run state that crosses metro boundaries and must survive a
/// crash: the hierarchical priors, completed-metro summaries, the next
/// metro index, and the shared measurement plane.
struct RunState {
  std::vector<MetroSummary> completed;
  metas::core::StrategyPriors priors;
  std::size_t next_metro = 0;
  std::string phase_blob;  // in-progress pipeline state; empty = none

  /// The checkpoint payload: the run's fingerprint, this state and the
  /// shared measurement plane of `world`.  Loading throws CheckpointError
  /// on a malformed payload, and returns false with `*error` set when the
  /// checkpoint belongs to a different run.
  template <class Self, class W, class Ar>
  static bool io(Self& rs, W& world, Ar& ar, const CliOptions& opt,
                 std::string* error) {
    auto fp = fingerprint(opt);
    ar(fp);
    if constexpr (Ar::kLoading) {
      if (fp != fingerprint(opt)) {
        *error = "checkpoint was produced by a run with different "
                 "seed/scale/metro/fault/resilience flags";
        return false;
      }
    }
    ar(rs.completed, rs.priors, rs.next_metro, *world.ms, *world.engine);
    bool has_faults = world.faults != nullptr;
    ar(has_faults);
    if (has_faults != (world.faults != nullptr)) {
      *error = "checkpoint fault-injector presence does not match the profile";
      return false;
    }
    if (has_faults) ar(*world.faults);
    bool has_phase = !rs.phase_blob.empty();
    ar(has_phase);
    if (has_phase) ar(rs.phase_blob);
    return true;
  }
};

/// Writes one checkpoint generation; dies by SIGKILL afterwards when the
/// crash-injection hook says this was the Nth write.
class CheckpointWriter {
 public:
  CheckpointWriter(const CliOptions& opt, const metas::eval::World& world)
      : opt_(&opt), world_(&world) {}

  bool enabled() const { return !opt_->checkpoint_path.empty(); }
  int written() const { return written_; }

  void write(const RunState& rs) {
    if (!enabled()) return;
    metas::util::checkpoint::Encoder enc;
    RunState::io(rs, *world_, enc, *opt_, nullptr);
    metas::util::checkpoint::WriteOptions wo;
    wo.keep_last = opt_->keep_checkpoints;
    if (!metas::util::checkpoint::write_file(opt_->checkpoint_path, enc.data(),
                                             wo)) {
      std::cerr << "warning: failed to write checkpoint to '"
                << opt_->checkpoint_path << "'\n";
      return;
    }
    ++written_;
    // Flight-recorder dump: while tracing is armed, park the ring's last-N
    // events next to the checkpoint -- deliberately BEFORE the crash hook
    // below, so even a SIGKILLed run leaves a timeline of its final
    // moments for tools/trace_diff.py.
    if (metas::util::trace::Recorder::instance().enabled())
      metas::util::trace::Recorder::instance().write_file(
          opt_->checkpoint_path + ".trace.json");
    if (opt_->crash_after_checkpoints > 0 &&
        written_ >= opt_->crash_after_checkpoints) {
      // Crash-injection hook: die hard (no atexit, no flush) exactly at a
      // checkpoint boundary, like an OOM kill would.
      ::raise(SIGKILL);
    }
  }

 private:
  const CliOptions* opt_;
  const metas::eval::World* world_;
  int written_ = 0;
};

/// Renders with the eval exporter into memory, then publishes atomically:
/// a crash mid-export can never leave a truncated CSV for --resume to skip.
template <typename ExportFn>
bool export_atomic(const std::string& path, ExportFn&& fn) {
  std::ostringstream os;
  fn(os);
  return metas::util::checkpoint::atomic_write_file(path, os.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metas;
  CliOptions opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  install_signal_handlers();
  if (!opt.trace_path.empty())
    util::trace::Recorder::instance().start(opt.trace_buffer_events);

  util::RunControl control;
  control.token = &g_cancel;
  if (opt.deadline_ms > 0)
    control.budget = util::DeadlineBudget::after_ms(opt.deadline_ms);

  eval::WorldConfig wc = opt.scale == "paper"
                             ? eval::paper_world_config(opt.seed)
                             : eval::small_world_config(opt.seed);
  wc.faults = opt.faults;
  wc.resilience.enabled = opt.resilience;
  if (!opt.quiet) std::cout << "building world (seed " << opt.seed << ")...\n";
  eval::World world = [&] {
    MAC_SPAN("cli.build_world");
    return eval::build_world(wc);
  }();

  // Select metros.
  std::vector<topology::MetroId> metros;
  if (opt.all_metros) {
    metros = world.focus_metros;
  } else if (!opt.metro.empty()) {
    for (const auto& m : world.net.metros)
      if (m.name == opt.metro) metros.push_back(m.id);
    if (metros.empty()) {
      std::cerr << "error: unknown metro '" << opt.metro << "'. Focus metros:";
      for (auto m : world.focus_metros)
        std::cerr << ' ' << world.net.metros[static_cast<std::size_t>(m)].name;
      std::cerr << '\n';
      return 1;
    }
  } else {
    metros.push_back(world.focus_metros.front());
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create output directory '" << opt.out_dir
              << "': " << ec.message() << '\n';
    return 1;
  }
  if (!opt.checkpoint_path.empty()) {
    const auto parent =
        std::filesystem::path(opt.checkpoint_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  }

  RunState rs;
  if (!opt.resume_path.empty()) {
    std::string diag;
    auto payload = util::checkpoint::load_file(opt.resume_path, &diag);
    if (!payload) {
      std::cerr << "error: no usable checkpoint at '" << opt.resume_path
                << "' (" << diag << ")\n";
      return 1;
    }
    try {
      util::checkpoint::Decoder dec(*payload);
      std::string why;
      if (!RunState::io(rs, world, dec, opt, &why)) {
        std::cerr << "error: cannot resume from '" << opt.resume_path << "': "
                  << why << '\n';
        return 1;
      }
    } catch (const util::checkpoint::CheckpointError& e) {
      std::cerr << "error: corrupt checkpoint payload in '" << opt.resume_path
                << "': " << e.what() << '\n';
      return 1;
    }
    if (!opt.quiet)
      std::cout << "resumed from " << opt.resume_path << " ("
                << rs.completed.size() << " metro(s) already complete"
                << (rs.phase_blob.empty() ? "" : ", one mid-pipeline") << ")\n";
  }

  CheckpointWriter writer(opt, world);
  bool stopped_early = false;
  core::DegradationReport last_degradation;

  for (std::size_t mi = rs.next_metro; mi < metros.size(); ++mi) {
    if (control.stop_requested()) {
      stopped_early = true;
      break;
    }
    const auto metro = metros[mi];
    core::MetroContext ctx(world.net, metro);
    const std::string name =
        world.net.metros[static_cast<std::size_t>(metro)].name;
    if (!opt.quiet) std::cout << "running metAScritic on " << name << "...\n";
    core::PipelineConfig pc;
    pc.scheduler.seed = opt.seed + static_cast<std::uint64_t>(metro) * 3 + 1;
    pc.rank.seed = opt.seed + static_cast<std::uint64_t>(metro) * 3 + 2;
    core::MetascriticPipeline pipeline(ctx, *world.ms, &rs.priors, pc);

    core::PipelineRunOptions po;
    po.control = &control;
    // The rank-boundary hook persists a full CLI snapshot: the phase blob
    // wrapped together with the shared measurement plane and the completed
    // metros, so a kill at ANY boundary resumes without losing a probe.
    const std::string* resume_blob =
        (mi == rs.next_metro && !rs.phase_blob.empty()) ? &rs.phase_blob
                                                        : nullptr;
    std::string resume_copy;
    if (resume_blob != nullptr) {
      resume_copy = *resume_blob;  // rs.phase_blob is overwritten below
      po.resume_blob = &resume_copy;
    }
    if (writer.enabled()) {
      po.checkpoint = [&](const std::string& phase_blob) {
        rs.next_metro = mi;
        rs.phase_blob = phase_blob;
        writer.write(rs);
      };
    }
    core::PipelineResult result;
    try {
      result = pipeline.run(po);
    } catch (const util::checkpoint::CheckpointError& e) {
      // Only decoding the resumed phase blob throws this.
      std::cerr << "error: corrupt checkpoint payload in '" << opt.resume_path
                << "': " << e.what() << '\n';
      return 1;
    }
    last_degradation = result.degradation;
    double lambda = opt.threshold > -1.5 ? opt.threshold : result.threshold;

    auto path = [&](const std::string& kind) {
      return opt.out_dir + "/" + name + "_" + kind + ".csv";
    };
    if (!export_atomic(path("links"), [&](std::ostream& os) {
          eval::export_links_csv(os, ctx, result, lambda);
        })) {
      std::cerr << "error: cannot write " << path("links") << '\n';
      return 1;
    }
    export_atomic(path("ratings"), [&](std::ostream& os) {
      eval::export_ratings_csv(os, ctx, result);
    });
    export_atomic(path("measurements"), [&](std::ostream& os) {
      eval::export_measurement_log_csv(os, ctx, result);
    });

    std::size_t links = 0;
    const int n = static_cast<int>(ctx.size());
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (result.ratings(static_cast<std::size_t>(i),
                           static_cast<std::size_t>(j)) >= lambda)
          ++links;

    MetroSummary ms_row;
    ms_row.name = name;
    ms_row.ases = ctx.size();
    ms_row.rank = result.estimated_rank;
    ms_row.traces = result.targeted_traceroutes;
    ms_row.lambda = lambda;
    ms_row.links = links;
    const core::DegradationReport& d = result.degradation;
    ms_row.fill_fraction = d.fill_fraction;
    ms_row.probes_faulted = d.probes_faulted;
    ms_row.retries = d.retries;
    ms_row.requeues = d.requeues;
    ms_row.quarantined = d.quarantined_vps;
    ms_row.dead = d.dead_vps;
    rs.completed.push_back(ms_row);

    // Metro-completion boundary: persist the finished metro before moving
    // on, with no in-progress phase state.
    rs.next_metro = mi + 1;
    rs.phase_blob.clear();
    writer.write(rs);

    if (control.stop_requested()) {
      stopped_early = true;
      break;
    }
  }

  util::Table summary({"metro", "ASes", "rank", "traces", "lambda", "links out"});
  util::Table degraded({"metro", "row fill", "faulted", "retries", "requeues",
                        "quarantined", "dead VPs"});
  for (const MetroSummary& m : rs.completed) {
    summary.add_row({m.name, util::Table::fmt(m.ases),
                     util::Table::fmt(m.rank), util::Table::fmt(m.traces),
                     util::Table::fmt(m.lambda, 2), util::Table::fmt(m.links)});
    degraded.add_row({m.name, util::Table::fmt(m.fill_fraction, 3),
                      util::Table::fmt(m.probes_faulted),
                      util::Table::fmt(m.retries), util::Table::fmt(m.requeues),
                      util::Table::fmt(m.quarantined),
                      util::Table::fmt(m.dead)});
  }
  summary.print(std::cout);
  if (opt.faults.enabled()) {
    std::cout << "measurement-plane degradation (resilience "
              << (opt.resilience ? "on" : "off") << "):\n";
    degraded.print(std::cout);
  }

  if (stopped_early) {
    const bool by_deadline = control.budget.expired();
    util::Table crash({"cause", "phases truncated", "budget used (ms)",
                       "checkpoints", "metros done"});
    crash.add_row({g_cancel.cancelled() ? "signal" : "deadline",
                   util::Table::fmt(last_degradation.phases_truncated),
                   util::Table::fmt(control.budget.consumed_ms()),
                   util::Table::fmt(writer.written()),
                   util::Table::fmt(rs.completed.size())});
    std::cout << "run stopped early ("
              << (by_deadline ? "deadline expired" : "cancelled by signal")
              << "); best-so-far results exported:\n";
    crash.print(std::cout);
    if (writer.enabled())
      std::cout << "resume with: --resume " << opt.checkpoint_path << '\n';
    // A signal/deadline stop can land after the last checkpoint-time dump;
    // refresh the flight recording so it covers the final moments.
    if (writer.enabled() && util::trace::Recorder::instance().enabled())
      util::trace::Recorder::instance().write_file(opt.checkpoint_path +
                                                   ".trace.json");
  }

  if (!opt.quiet)
    std::cout << "CSV outputs written under " << opt.out_dir << "/\n";
  if (!opt.telemetry_path.empty()) {
    if (!util::telemetry::write_snapshot(opt.telemetry_path,
                                         opt.telemetry_format)) {
      std::cerr << "error: cannot write telemetry snapshot to '"
                << opt.telemetry_path << "'\n";
      return 1;
    }
    if (!opt.quiet) {
      std::cout << "telemetry snapshot written to " << opt.telemetry_path;
      if (!util::telemetry::compiled())
        std::cout << " (instrumentation compiled out: core counters only)";
      std::cout << "\n";
    }
  }
  if (!opt.trace_path.empty()) {
    util::trace::Recorder& rec = util::trace::Recorder::instance();
    rec.stop();  // quiescent: the run is over, drain is race-free
    if (!rec.write_file(opt.trace_path)) {
      std::cerr << "error: cannot write trace to '" << opt.trace_path << "'\n";
      return 1;
    }
    if (!opt.quiet) {
      std::cout << "trace written to " << opt.trace_path << " ("
                << rec.event_count() << " events";
      if (rec.dropped_events() > 0)
        std::cout << ", " << rec.dropped_events() << " dropped";
      std::cout << "); load in chrome://tracing or ui.perfetto.dev\n";
      if (!util::telemetry::compiled())
        std::cout << "  (instrumentation compiled out: trace is empty)\n";
    }
  }
  return 0;
}
