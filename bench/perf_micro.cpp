// Google-benchmark microbenchmarks for the performance-critical kernels:
// ALS completion, Gao-Rexford route computation and traceroute simulation.
// These guard against performance regressions in the substrate the
// reproduction harness leans on.
//
// With METAS_TELEMETRY_OUT=<path> in the environment, a JSON snapshot of the
// telemetry registry accumulated across all benchmark iterations is written
// on exit (CI uploads it next to the benchmark output).  BM_TelemetryCounter / BM_TelemetrySpan measure the raw
// price of one instrumentation call so overhead regressions are attributable.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/als.hpp"
#include "eval/world.hpp"
#include "util/checkpoint.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace {

using namespace metas;

/// One ALS benchmark problem over n = range(0) ASes at rank range(1): ~20%
/// of the pairs observed as random +-1 ratings, `features` random feature
/// rows in [-1, 1], five sweeps.
struct AlsProblem {
  std::size_t n = 0;
  std::vector<core::RatingEntry> entries;
  core::FeatureMatrix feats;
  core::AlsConfig cfg;

  void fit() const {
    core::AlsCompleter c(n, feats, cfg);
    c.fit(entries);
    benchmark::DoNotOptimize(c.predict(0, 1));
  }
};

AlsProblem als_problem(const benchmark::State& state,
                       std::size_t features = 0) {
  AlsProblem p;
  p.n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < 0.2)
        p.entries.push_back({i, j, rng.bernoulli(0.5) ? 1.0 : -1.0});
  p.feats.names.assign(features, "feature");
  p.feats.rows.assign(features, std::vector<double>(p.n));
  for (auto& row : p.feats.rows)
    for (double& v : row) v = rng.uniform(-1.0, 1.0);
  p.cfg.rank = static_cast<int>(state.range(1));
  p.cfg.iterations = 5;
  return p;
}

void time_fits(benchmark::State& state, const AlsProblem& p) {
  for (auto _ : state) p.fit();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.entries.size()));
}

void BM_AlsFit(benchmark::State& state) {
  time_fits(state, als_problem(state));
}
BENCHMARK(BM_AlsFit)->Args({150, 8})->Args({300, 16});

// Paper-shaped: a paper-scale metro's n and rank with its 33 encoded
// feature rows, so the probe also times the shared feature-Gram blocks.
// Named BM_AlsFit/190/16/33, so the telemetry-overhead-als gate covers it.
void BM_AlsFitFeatures(benchmark::State& state) {
  time_fits(state,
            als_problem(state, static_cast<std::size_t>(state.range(2))));
}
BENCHMARK(BM_AlsFitFeatures)->Name("BM_AlsFit")->Args({190, 16, 33});

// Crash-safety cost, measured as a ratio INSIDE one benchmark: each
// iteration times the ALS fit and (every second fit) the full checkpoint
// write -- serialize + envelope + atomic rename, fsync off, like the
// boundary writes inside a pipeline iteration -- with the same clock,
// microseconds apart, and reports seconds-of-checkpointing per
// second-of-fitting as the `checkpoint_overhead` counter.  One write per
// two fits matches the pipeline's real checkpoint granularity
// conservatively: its boundary is one rank iteration, which runs
// two holdout ALS fits plus a measurement batch per write.  The CI
// checkpoint-overhead gate reads the counter directly, so machine drift
// between benchmarks or runs cannot masquerade as overhead.  Only the
// 300/16 configuration is gated: its fit time is representative of the
// pipeline's per-boundary compute (which also includes a measurement batch
// the bench omits), whereas the 3ms 150/8 toy fit would charge the
// size-independent syscall cost of a write against an unrealistically
// small denominator.
void BM_AlsFitCheckpointed(benchmark::State& state) {
  const AlsProblem p = als_problem(state);
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string ck_path =
      std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
      "/metas_bench_ckpt.bin";
  using clock = std::chrono::steady_clock;
  double fit_s = 0.0;
  double ckpt_s = 0.0;
  std::int64_t fits = 0;
  for (auto _ : state) {
    const clock::time_point t0 = clock::now();
    p.fit();
    const clock::time_point t1 = clock::now();
    fit_s += std::chrono::duration<double>(t1 - t0).count();
    if (++fits % 2 == 0) {
      util::checkpoint::Encoder enc;
      enc.u64(p.entries.size());
      for (const core::RatingEntry& e : p.entries) {
        enc.u64(e.i);
        enc.u64(e.j);
        enc.f64(e.value);
      }
      util::checkpoint::WriteOptions wo;
      wo.fsync = false;
      wo.keep_last = 1;  // isolate the write path; rotation is O(1) renames
      benchmark::DoNotOptimize(
          util::checkpoint::write_file(ck_path, enc.data(), wo));
      ckpt_s += std::chrono::duration<double>(clock::now() - t1).count();
    }
  }
  state.counters["checkpoint_overhead"] = fit_s > 0.0 ? ckpt_s / fit_s : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.entries.size()));
}
BENCHMARK(BM_AlsFitCheckpointed)->Args({300, 16});

// Event-tracing cost, measured as a ratio INSIDE one benchmark (same
// rationale as BM_AlsFitCheckpointed): each iteration times the same ALS
// fit twice -- once with the flight recorder disarmed and once armed, so
// every MAC_SPAN in the fit (als.fit + 5 als.iteration + 10 als.solve_side
// span pairs) records ring-buffer events -- and reports the fractional
// slowdown as the `trace_overhead` counter.  The CI trace-overhead gate
// bounds the median at 5% (tools/regression_gates.json); the committed
// BENCH_trace.json baseline records the shipped value.  Recorder start/stop
// (arming, buffer clear, first-event ring allocation) happens outside the
// timed windows except the allocation, which is a real per-run cost and is
// deliberately charged to the traced side.
void BM_AlsFitTraced(benchmark::State& state) {
  const AlsProblem p = als_problem(state);
  auto& rec = util::trace::Recorder::instance();
  using clock = std::chrono::steady_clock;
  double off_s = 0.0;
  double on_s = 0.0;
  for (auto _ : state) {
    const clock::time_point t0 = clock::now();
    p.fit();
    off_s += std::chrono::duration<double>(clock::now() - t0).count();
    rec.start(1u << 16);  // arm + clear, untimed
    const clock::time_point t1 = clock::now();
    p.fit();
    on_s += std::chrono::duration<double>(clock::now() - t1).count();
    rec.stop();
  }
  rec.reset_for_tests();  // drop the bench rings before the real exit path
  state.counters["trace_overhead"] =
      off_s > 0.0 ? on_s / off_s - 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.entries.size()));
}
BENCHMARK(BM_AlsFitTraced)->Args({300, 16});

struct WorldHolder {
  static eval::World& get() {
    static eval::World w = [] {
      auto cfg = eval::small_world_config(321);
      cfg.public_archive_traces = 500;
      cfg.compute_public_view = false;
      return eval::build_world(cfg);
    }();
    return w;
  }
};

void BM_RoutingTable(benchmark::State& state) {
  eval::World& w = WorldHolder::get();
  bgp::AsGraph g = bgp::AsGraph::from_internet(w.net);
  topology::AsId dst = 0;
  for (auto _ : state) {
    bgp::RoutingEngine eng(g);  // fresh engine: no cache reuse
    const auto& t = eng.table(dst);
    benchmark::DoNotOptimize(t.length[1]);
    dst = (dst + 1) % static_cast<topology::AsId>(w.net.num_ases());
  }
}
BENCHMARK(BM_RoutingTable);

void BM_Traceroute(benchmark::State& state) {
  eval::World& w = WorldHolder::get();
  util::Rng rng(3);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& vp = w.vps[k % w.vps.size()];
    const auto& tgt = w.targets[(k * 7) % w.targets.size()];
    ++k;
    if (vp.as == tgt.as) continue;
    auto res = w.engine->trace(vp, tgt, rng);
    benchmark::DoNotOptimize(res.hops.size());
  }
}
BENCHMARK(BM_Traceroute);

// Raw instrumentation cost: one counter increment per iteration.
void BM_TelemetryCounter(benchmark::State& state) {
  for (auto _ : state) {
    MAC_COUNT("bench.telemetry_counter_probe");
  }
}
BENCHMARK(BM_TelemetryCounter);

// Raw instrumentation cost: one open/close span pair per iteration.
void BM_TelemetrySpan(benchmark::State& state) {
  for (auto _ : state) {
    MAC_SPAN("bench.telemetry_span_probe");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetrySpan);

}  // namespace

// BENCHMARK_MAIN plus an optional telemetry snapshot on the way out.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* out = std::getenv("METAS_TELEMETRY_OUT");
  if (out != nullptr && *out != '\0') {
    if (!metas::util::telemetry::write_snapshot(
            out, metas::util::telemetry::Format::kJson)) {
      std::cerr << "perf_micro: cannot write telemetry snapshot to '" << out
                << "'\n";
      return 1;
    }
  }
  return 0;
}
