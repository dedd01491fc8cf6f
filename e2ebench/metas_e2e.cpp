// metas_e2e: one end-to-end metAScritic run over one workload's world, in a
// fresh process, timed from outside the library.
//
// Usage:
//   metas_e2e --workload small|paper|small-ckpt --seed N [--ckpt PATH]
//             [--trace PATH]
//
// metas_e2e mirrors `metascritic_cli --all-metros`: the same world config,
// per-metro scheduler/rank seeds, shared StrategyPriors, and the same three
// CSV exports, rendered into memory and digested (SHA-256 over every
// metro's links, ratings and measurements CSV, in metro order).  It calls
// only public library functions and wraps each call in a `bench.*` span, so
// the registry's span tree attributes every timed second:
//
//   bench.setup                 eval::build_world
//   bench.metro                 pipeline run + exports (+ completion checkpoint)
//     bench.export              the three eval::export_*_csv calls
//     bench.checkpoint.encode   state serialization (small-ckpt)
//     bench.checkpoint.write    util::checkpoint::write_file (small-ckpt)
//   bench.probe.build_matrix    --trace only: 5 build_matrix calls per metro
//
// Quality scoring (eval::score_pairs / truth_metrics against the hidden
// truth), the checkpoint read-back and the build_matrix probe run outside
// every timed window.  --trace arms the flight recorder, probes
// build_matrix after each metro, and writes the Chrome trace to PATH.
// small-ckpt checkpoints to --ckpt PATH (fsync on, three generations kept)
// at every rank boundary and metro completion.
//
// Prints one JSON record on stdout (the registry snapshot included) and
// exits 1 when any metro run fails: an exception, ratings that are
// non-finite, asymmetric, outside [-1, 1] or with a non-zero diagonal, or
// (small-ckpt) a newest checkpoint generation that does not load back as
// the last payload written.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "eval/export.hpp"
#include "eval/metrics.hpp"
#include "eval/world.hpp"
#include "sha256.hpp"
#include "util/checkpoint.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace {

using namespace metas;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  bool paper;       // paper_world_config, else small_world_config
  bool checkpoint;  // checkpoint at every rank boundary and metro completion
};

constexpr Workload kWorkloads[] = {
    {"small", false, false},
    {"paper", true, false},
    {"small-ckpt", false, true},
};

constexpr int kProbeCalls = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::uint64_t counter(const char* name) {
  return util::telemetry::Registry::instance().counter(name).value();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Empty when the ratings satisfy the published-matrix invariants.
std::string ratings_violation(const linalg::Matrix& r, std::size_t n) {
  if (r.rows() != n || r.cols() != n) return "ratings matrix has wrong shape";
  for (std::size_t i = 0; i < n; ++i) {
    if (r(i, i) != 0.0) return "non-zero rating diagonal";
    for (std::size_t j = 0; j < n; ++j) {
      const double v = r(i, j);
      if (!std::isfinite(v)) return "non-finite rating";
      if (v < -1.0 || v > 1.0) return "rating outside [-1, 1]";
      if (v != r(j, i)) return "asymmetric ratings";
    }
  }
  return {};
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  std::string ckpt_path;
  std::string trace_path;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (k + 1 >= argc) return false;
    const std::string v = argv[++k];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (v == w.name) opt.workload = &w;
      if (opt.workload == nullptr) return false;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (arg == "--ckpt") {
      opt.ckpt_path = v;
    } else if (arg == "--trace") {
      opt.trace_path = v;
    } else {
      return false;
    }
  }
  return opt.workload != nullptr &&
         (!opt.workload->checkpoint || !opt.ckpt_path.empty());
}

/// Checkpoint side of small-ckpt: the CLI's cross-metro run state (priors,
/// next metro, measurement plane, engine, faults, phase blob).
class Checkpointer {
 public:
  explicit Checkpointer(std::string path) : path_(std::move(path)) {}

  void write(const core::StrategyPriors& priors, std::size_t next_metro,
             const eval::World& world, const std::string& phase_blob) {
    util::checkpoint::Encoder enc;
    {
      MAC_SPAN("bench.checkpoint.encode");
      const auto t0 = Clock::now();
      priors.save(enc);
      enc.u64(next_metro);
      world.ms->save(enc);
      world.engine->save(enc);
      enc.b(world.faults != nullptr);
      if (world.faults != nullptr) world.faults->save(enc);
      enc.str(phase_blob);
      encode_s_ += seconds_since(t0);
    }
    last_ = enc.take();
    MAC_SPAN("bench.checkpoint.write");
    const auto t0 = Clock::now();
    util::checkpoint::WriteOptions wo;
    wo.keep_last = 3;
    if (!util::checkpoint::write_file(path_, last_, wo)) write_failed_ = true;
    write_s_ += seconds_since(t0);
    ++writes_;
    bytes_ += last_.size();
  }

  /// Loads the newest generation back; empty when it matches the last
  /// payload written.
  std::string verify() {
    const auto t0 = Clock::now();
    std::string diag;
    const auto loaded = util::checkpoint::load_file(path_, &diag);
    load_s_ += seconds_since(t0);
    if (write_failed_) return "checkpoint write failed";
    if (!loaded) return "checkpoint did not load: " + diag;
    if (*loaded != last_) return "checkpoint read-back differs from payload";
    return {};
  }

  std::string json() const {
    std::ostringstream os;
    os << "{\"writes\": " << writes_ << ", \"bytes\": " << bytes_
       << ", \"encode_s\": " << num(encode_s_)
       << ", \"write_s\": " << num(write_s_)
       << ", \"load_s\": " << num(load_s_) << "}";
    return os.str();
  }

 private:
  std::string path_;
  std::string last_;
  bool write_failed_ = false;
  int writes_ = 0;
  std::size_t bytes_ = 0;
  double encode_s_ = 0.0, write_s_ = 0.0, load_s_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: metas_e2e --workload small|paper|small-ckpt "
                 "--seed N [--ckpt PATH] [--trace PATH]\n"
                 "(small-ckpt needs --ckpt)\n";
    return 2;
  }
  const Workload& wl = *opt.workload;
  const bool traced = !opt.trace_path.empty();
  if (traced) util::trace::Recorder::instance().start();

  const eval::WorldConfig wc = wl.paper ? eval::paper_world_config(opt.seed)
                                        : eval::small_world_config(opt.seed);

  const auto t_setup = Clock::now();
  eval::World world = [&] {
    MAC_SPAN("bench.setup");
    return eval::build_world(wc);
  }();
  const double setup_s = seconds_since(t_setup);

  std::unique_ptr<Checkpointer> ckpt;
  if (wl.checkpoint) {
    const auto dir = std::filesystem::path(opt.ckpt_path).parent_path();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
    ckpt = std::make_unique<Checkpointer>(opt.ckpt_path);
  }

  core::StrategyPriors priors;
  e2e::Sha256 digest;
  std::size_t export_bytes = 0, traceroutes = 0;
  double run_s = 0.0;
  std::vector<std::string> failures;
  std::ostringstream metros_json;

  const auto& metros = world.focus_metros;
  for (std::size_t mi = 0; mi < metros.size(); ++mi) {
    const auto metro = metros[mi];
    core::MetroContext ctx(world.net, metro);
    const std::string name =
        world.net.metros[static_cast<std::size_t>(metro)].name;
    // Work counts of this metro's run, for the harness's work model.
    const std::uint64_t batches0 = counter("scheduler.batches_run");
    const std::uint64_t als_rows0 = counter("als.rows_solved");
    std::string failure;
    double metro_s = 0.0, probe_ms = 0.0;
    core::PipelineResult result;
    std::string csv[3];
    try {
      core::PipelineConfig pc;
      pc.scheduler.seed = opt.seed + static_cast<std::uint64_t>(metro) * 3 + 1;
      pc.rank.seed = opt.seed + static_cast<std::uint64_t>(metro) * 3 + 2;
      core::MetascriticPipeline pipeline(ctx, *world.ms, &priors, pc);
      core::PipelineRunOptions po;
      if (ckpt) {
        po.checkpoint = [&](const std::string& phase_blob) {
          ckpt->write(priors, mi, world, phase_blob);
        };
      }

      const auto t0 = Clock::now();
      {
        MAC_SPAN("bench.metro");
        result = pipeline.run(po);
        {
          MAC_SPAN("bench.export");
          std::ostringstream links, ratings, log;
          eval::export_links_csv(links, ctx, result, result.threshold);
          eval::export_ratings_csv(ratings, ctx, result);
          eval::export_measurement_log_csv(log, ctx, result);
          csv[0] = links.str();
          csv[1] = ratings.str();
          csv[2] = log.str();
        }
        if (ckpt) ckpt->write(priors, mi + 1, world, std::string());
      }
      metro_s = seconds_since(t0);

      failure = ratings_violation(result.ratings, ctx.size());
      if (failure.empty() && ckpt) failure = ckpt->verify();
      if (traced) {
        std::vector<double> ms;
        for (int k = 0; k < kProbeCalls; ++k) {
          MAC_SPAN("bench.probe.build_matrix");
          const auto tp = Clock::now();
          const core::EstimatedMatrix em = world.ms->build_matrix(ctx);
          ms.push_back(seconds_since(tp) * 1e3);
          if (em.size() != ctx.size()) failure = "build_matrix size mismatch";
        }
        std::sort(ms.begin(), ms.end());
        probe_ms = ms[ms.size() / 2];
      }
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }

    for (const std::string& c : csv) {
      digest.update(c);
      export_bytes += c.size();
    }
    eval::TruthMetrics tm;
    if (failure.empty())
      tm = eval::truth_metrics(eval::score_pairs(ctx, result.ratings),
                               result.threshold);
    else
      failures.push_back(name + ": " + failure);
    run_s += metro_s;
    traceroutes += result.targeted_traceroutes;
    metros_json << (mi == 0 ? "" : ", ") << "{\"name\": " << json_str(name)
                << ", \"ok\": " << (failure.empty() ? "true" : "false")
                << ", \"ases\": " << ctx.size() << ", \"s\": " << num(metro_s)
                << ", \"traceroutes\": " << result.targeted_traceroutes
                << ", \"rank\": " << result.estimated_rank
                << ", \"batches\": " << counter("scheduler.batches_run") - batches0
                << ", \"als_rows\": " << counter("als.rows_solved") - als_rows0
                << ", \"auprc\": " << num(tm.auprc)
                << ", \"precision\": " << num(tm.precision)
                << ", \"recall\": " << num(tm.recall)
                << ", \"fill_fraction\": "
                << num(result.degradation.fill_fraction)
                << ", \"build_matrix_ms\": " << num(probe_ms) << "}";
  }

  std::string trace_json = "null";
  if (traced) {
    util::trace::Recorder& rec = util::trace::Recorder::instance();
    rec.stop();
    if (!rec.write_file(opt.trace_path))
      failures.push_back("cannot write trace to " + opt.trace_path);
    trace_json = "{\"events\": " + std::to_string(rec.event_count()) +
                 ", \"dropped\": " + std::to_string(rec.dropped_events()) + "}";
  }

  const rusage ru = self_usage();
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  std::ostringstream telemetry;
  util::telemetry::Registry::instance().write_json(telemetry);
  std::cout << "{\"workload\": " << json_str(wl.name)
            << ", \"seed\": " << opt.seed << ", \"setup_s\": " << num(setup_s)
            << ", \"run_s\": " << num(run_s) << ", \"cpu_s\": " << num(cpu_s)
            << ", \"peak_rss_mb\": "
            << num(static_cast<double>(ru.ru_maxrss) / 1024.0)  // KiB on Linux
            << ", \"traceroutes\": " << traceroutes
            << ", \"export_sha256\": " << json_str(digest.hex())
            << ", \"export_bytes\": " << export_bytes
            << ", \"checkpoint\": " << (ckpt ? ckpt->json() : "null")
            << ", \"trace\": " << trace_json << ", \"failures\": [";
  for (std::size_t k = 0; k < failures.size(); ++k)
    std::cout << (k == 0 ? "" : ", ") << json_str(failures[k]);
  std::cout << "], \"metros\": [" << metros_json.str()
            << "], \"telemetry\": " << telemetry.str() << "}\n";
  return failures.empty() ? 0 : 1;
}
