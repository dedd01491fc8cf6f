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
// A numeric flag's value must be one decimal number, in range for the
// flag (--threshold: finite, or auto); anything else prints usage and
// exits 2 before any output is written.
//
// Writes per-metro <out>/<metro>_links.csv, <metro>_ratings.csv, and
// <metro>_measurements.csv, and prints a summary table. With a non-trivial
// fault profile the summary also reports how the measurement plane degraded
// (row fill achieved, probes lost to faults, retries, quarantined VPs).
// With --telemetry PATH a snapshot of the process-wide metrics registry
// (counters, gauges, histograms, span tree; see DESIGN.md §8) is written
// after the run in JSON (default) or flat CSV.
//
// The campaign itself -- metro selection, per-metro seeds, shared priors,
// checkpoints, resume and exports -- is eval::Campaign (src/eval/
// campaign.hpp); this file keeps the flags, the signal handler, the
// --trace and --telemetry files and the printed tables.
//
// Crash safety (DESIGN.md §12): --checkpoint persists a resumable snapshot
// at every rank boundary and metro completion; --resume continues a killed
// or cancelled run from the newest good snapshot, producing exports
// byte-identical to an uninterrupted run with the same flags.  SIGINT /
// SIGTERM and --deadline-ms stop cooperatively: the current work unit
// finishes, best-so-far results plus a degradation table are emitted
// instead of a dead process, and a metro the stop cut short resumes from
// its last rank boundary.  The resume hint is printed only when a
// checkpoint generation exists to resume from.  Without --checkpoint,
// --resume P checkpoints back to P, so P may not be an older generation
// B.k kept beside B: that run would overwrite it (exit 1).
//
// Tracing (DESIGN.md §13): --trace PATH arms the per-thread ring-buffer
// flight recorder and writes a Chrome trace-event / Perfetto-compatible
// JSON timeline (span begin/end, instants, counter samples) at the end of
// the run; --trace-buffer-events N (1 to 2^24) bounds the per-thread ring
// (oldest events drop first, counted in the trace header).  While tracing
// is armed every successful checkpoint write also dumps the ring next to
// the checkpoint (<checkpoint>.trace.json), so a killed or cancelled run
// leaves a timeline of its final moments.
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>

#include "eval/campaign.hpp"
#include "util/cancel.hpp"
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
  metas::eval::CampaignConfig run;
  bool quiet = false;
  std::string telemetry_path;  // empty = no snapshot
  metas::util::telemetry::Format telemetry_format =
      metas::util::telemetry::Format::kJson;
  std::string trace_path;  // empty = no tracing
  std::size_t trace_buffer_events =
      metas::util::trace::kDefaultBufferEvents;
  std::uint64_t deadline_ms = 0;  // 0 = no deadline
  // Test hook for the crash-injection suite: SIGKILL this process right
  // after the Nth checkpoint file hits disk, so the "crash" lands exactly
  // on a checkpoint boundary.  0 disables.
  int crash_after_checkpoints = 0;
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

/// Parses all of `text` as a T inside T's range.  No sign is accepted for
/// an unsigned T, and no leading space or '+' for any T.
template <class T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_args(int argc, char** argv, CliOptions& opt) {
  for (int k = 1; k < argc; ++k) {
    std::string arg = argv[k];
    auto next = [&]() -> const char* {
      return k + 1 < argc ? argv[++k] : nullptr;
    };
    // Reads the next argument into `out`; false when it is missing or not
    // a number of out's type.
    auto number = [&](auto& out) {
      const char* v = next();
      return v != nullptr && parse_number(v, out);
    };
    if (arg == "--seed") {
      if (!number(opt.run.seed)) return false;
    } else if (arg == "--metro") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.run.metro = v;
    } else if (arg == "--all-metros") {
      opt.run.all_metros = true;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr || (std::string(v) != "small" && std::string(v) != "paper"))
        return false;
      opt.run.scale = v;
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::string(v) == "auto") {
        opt.run.threshold.reset();
      } else {
        double t = 0.0;
        if (!parse_number(v, t) || !std::isfinite(t)) return false;
        opt.run.threshold = t;
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.run.out_dir = v;
    } else if (arg == "--fault-profile") {
      const char* v = next();
      if (v == nullptr ||
          !metas::traceroute::parse_fault_profile(v, opt.run.faults))
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
      opt.run.checkpoint_path = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.run.resume_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.trace_path = v;
    } else if (arg == "--trace-buffer-events") {
      if (!number(opt.trace_buffer_events) || opt.trace_buffer_events == 0 ||
          opt.trace_buffer_events > metas::util::trace::kMaxBufferEvents)
        return false;
    } else if (arg == "--deadline-ms") {
      if (!number(opt.deadline_ms)) return false;
    } else if (arg == "--keep-checkpoints") {
      if (!number(opt.run.keep_checkpoints) || opt.run.keep_checkpoints < 1)
        return false;
    } else if (arg == "--crash-after-checkpoints") {
      if (!number(opt.crash_after_checkpoints)) return false;
    } else if (arg == "--no-resilience") {
      opt.run.resilience = false;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      return false;
    }
  }
  return true;
}

/// True when `path` is B.k for a whole number k >= 1 and B exists: an
/// older generation kept beside B, which a run checkpointing to `path`
/// would overwrite and then rotate into a second chain.
bool kept_generation(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot + 1 == path.size() ||
      path[dot + 1] == '0')
    return false;
  for (std::size_t k = dot + 1; k < path.size(); ++k)
    if (path[k] < '0' || path[k] > '9') return false;
  std::error_code ec;
  return std::filesystem::exists(path.substr(0, dot), ec);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metas;
  CliOptions opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  // --resume implies continued checkpointing to the same file, unless that
  // file is a kept older generation.
  if (!opt.run.resume_path.empty() && opt.run.checkpoint_path.empty()) {
    if (kept_generation(opt.run.resume_path)) {
      std::cerr << "error: '" << opt.run.resume_path
                << "' is an older checkpoint generation, and checkpointing "
                   "to it would overwrite it; resume with --checkpoint PATH "
                   "naming another path\n";
      return 1;
    }
    opt.run.checkpoint_path = opt.run.resume_path;
  }
  install_signal_handlers();
  util::trace::Recorder& rec = util::trace::Recorder::instance();
  if (!opt.trace_path.empty()) rec.start(opt.trace_buffer_events);

  util::RunControl control;
  control.token = &g_cancel;
  if (opt.deadline_ms > 0)
    control.budget = util::DeadlineBudget::after_ms(opt.deadline_ms);

  const std::string flight_dump = opt.run.checkpoint_path + ".trace.json";
  eval::CampaignHooks hooks;
  if (!opt.quiet) {
    hooks.on_metro = [](const std::string& name) {
      std::cout << "running metAScritic on " << name << "...\n";
    };
  }
  hooks.on_checkpoint = [&](int written) {
    // Flight-recorder dump: while tracing is armed, park the ring's last-N
    // events next to the checkpoint -- deliberately BEFORE the crash hook
    // below, so even a SIGKILLed run leaves a timeline of its final
    // moments for tools/trace_diff.py.
    if (rec.enabled()) rec.write_file(flight_dump);
    // Crash-injection hook: die hard (no atexit, no flush) exactly at a
    // checkpoint boundary, like an OOM kill would.
    if (opt.crash_after_checkpoints > 0 &&
        written >= opt.crash_after_checkpoints)
      ::raise(SIGKILL);
  };

  if (!opt.quiet)
    std::cout << "building world (seed " << opt.run.seed << ")...\n";
  eval::CampaignOutcome out;
  try {
    eval::Campaign campaign(opt.run);
    if (!opt.run.resume_path.empty()) {
      const eval::ResumePoint at = campaign.resume();
      if (!opt.quiet)
        std::cout << "resumed from " << opt.run.resume_path << " ("
                  << at.metros_done << " metro(s) already complete"
                  << (at.mid_metro ? ", one mid-pipeline" : "") << ")\n";
    }
    out = campaign.run(&control, hooks);
  } catch (const eval::CampaignError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (out.checkpoint_failures > 0)
    std::cerr << "warning: failed to write " << out.checkpoint_failures
              << " checkpoint(s) to '" << opt.run.checkpoint_path << "'\n";

  util::Table summary({"metro", "ASes", "rank", "traces", "lambda", "links out"});
  util::Table degraded({"metro", "row fill", "faulted", "retries", "requeues",
                        "quarantined", "dead VPs"});
  for (const eval::MetroSummary& m : out.metros) {
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
  if (opt.run.faults.enabled()) {
    std::cout << "measurement-plane degradation (resilience "
              << (opt.run.resilience ? "on" : "off") << "):\n";
    degraded.print(std::cout);
  }

  if (out.stopped_early) {
    const bool by_deadline = control.budget.expired();
    util::Table crash({"cause", "phases truncated", "budget used (ms)",
                       "checkpoints", "metros done"});
    crash.add_row({g_cancel.cancelled() ? "signal" : "deadline",
                   util::Table::fmt(out.phases_truncated),
                   util::Table::fmt(control.budget.consumed_ms()),
                   util::Table::fmt(out.checkpoints_written),
                   util::Table::fmt(out.metros_done)});
    std::cout << "run stopped early ("
              << (by_deadline ? "deadline expired" : "cancelled by signal")
              << "); best-so-far results exported:\n";
    crash.print(std::cout);
    if (out.resumable)
      std::cout << "resume with: --resume " << opt.run.checkpoint_path << '\n';
    // A signal/deadline stop can land after the last checkpoint-time dump;
    // refresh the flight recording so it covers the final moments.
    if (!opt.run.checkpoint_path.empty() && rec.enabled())
      rec.write_file(flight_dump);
  }

  if (!opt.quiet)
    std::cout << "CSV outputs written under " << opt.run.out_dir << "/\n";
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
        std::cout << " (instrumentation compiled out: snapshot is empty)";
      std::cout << "\n";
    }
  }
  if (!opt.trace_path.empty()) {
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
