// Shared infrastructure for the reproduction harness: one bench binary per
// table/figure of the paper. Each binary builds the bench-scale world (six
// focus metros standing in for Amsterdam/NewYork/Santiago/Singapore/Sydney/
// Tokyo), runs the pipeline where needed, and prints the same rows/series the
// paper reports. Seeds are fixed: output is reproducible bit for bit.
#pragma once

#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/metrics.hpp"
#include "eval/splits.hpp"
#include "eval/topologies.hpp"
#include "eval/validation.hpp"
#include "eval/world.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace metas::bench {

/// Scale knob: METAS_BENCH_SCALE=small shrinks the world for smoke runs.
inline eval::WorldConfig bench_world_config(std::uint64_t seed = 2024) {
  const char* scale = std::getenv("METAS_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "small")
    return eval::small_world_config(seed);
  return eval::paper_world_config(seed);
}

/// One completed metro: context + pipeline result.
struct MetroRun {
  std::string name;
  std::unique_ptr<core::MetroContext> ctx;
  core::PipelineResult result;
};

/// Runs the metAScritic pipeline on every focus metro, chaining the
/// hierarchical strategy priors from one metro to the next (Appx. D.6).
inline std::vector<MetroRun> run_all_focus_metros(
    eval::World& world, std::uint64_t seed = 7,
    core::PipelineConfig base_config = {}) {
  std::vector<MetroRun> runs;
  core::StrategyPriors priors;
  for (auto m : world.focus_metros) {
    MetroRun run;
    run.name = world.net.metros[static_cast<std::size_t>(m)].name;
    run.ctx = std::make_unique<core::MetroContext>(world.net, m);
    core::PipelineConfig pc = base_config;
    pc.scheduler.seed = seed + static_cast<std::uint64_t>(m) * 13;
    pc.rank.seed = seed + static_cast<std::uint64_t>(m) * 17 + 1;
    pc.seed = seed + static_cast<std::uint64_t>(m) * 19 + 2;
    core::MetascriticPipeline pipeline(*run.ctx, *world.ms, &priors, pc);
    {
      MAC_SPAN("bench.metro_pipeline");
      run.result = pipeline.run();
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// A baseline strategy's completion, tuned post hoc (§4.2).
struct PostHocCompletion {
  int rank = 1;
  std::optional<linalg::Matrix> ratings;  // empty when E_m has no entries
  double threshold = 0.0;
};

/// The Table-2 baseline treatment of E_m: the rank that
/// `RankEstimator::run_static` estimates on it, an ALS fit on every entry
/// at that rank, and the threshold tuned on the same entries.
inline PostHocCompletion post_hoc_completion(const core::MetroContext& ctx,
                                             const core::EstimatedMatrix& e,
                                             std::uint64_t rank_seed) {
  const core::FeatureMatrix feats = core::encode_features(ctx);
  core::RankEstimatorConfig rc;
  rc.seed = rank_seed;
  PostHocCompletion out;
  out.rank = core::RankEstimator(ctx, feats, rc).run_static(e).best_rank;
  const auto entries = core::rating_entries(e);
  if (entries.empty()) return out;
  core::AlsConfig ac;
  ac.rank = out.rank;
  core::AlsCompleter completer(ctx.size(), feats, ac);
  completer.fit(entries);
  out.threshold = core::tune_threshold(completer, entries);
  out.ratings = completer.completed();
  return out;
}

/// Total recorded time, in seconds, of every span named `name` (any depth)
/// in the process-wide registry.  Bench timing goes through the telemetry
/// span tree -- not an ad-hoc stopwatch -- so bench tables and `--telemetry`
/// snapshots report the same numbers.  Returns 0 with telemetry compiled out.
inline double span_seconds(std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& s : util::telemetry::Registry::instance().spans())
    if (s.name == name) total += s.total_ns;
  return static_cast<double>(total) * 1e-9;
}

/// Prints the aggregated span tree as an aligned table (slash-joined paths,
/// call counts, milliseconds).  No-op rows when telemetry is compiled out.
inline void print_span_timings() {
  auto spans = util::telemetry::Registry::instance().spans();
  if (spans.empty()) return;
  std::vector<std::string> paths(spans.size());
  util::Table t({"span", "count", "total ms"});
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    paths[i] = s.parent < 0
                   ? s.name
                   : paths[static_cast<std::size_t>(s.parent)] + "/" + s.name;
    t.add_row({paths[i], util::Table::fmt(s.count),
               util::Table::fmt(static_cast<double>(s.total_ns) * 1e-6, 2)});
  }
  std::cout << "-- span timings --\n";
  t.print(std::cout);
}

/// Prints a header in the common harness format.
inline void print_header(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// Prints an (x, y) series as a compact aligned list, one point per row.
inline void print_series(const std::string& name,
                         const std::vector<std::pair<double, double>>& points,
                         const std::string& xlabel = "x",
                         const std::string& ylabel = "y") {
  util::Table t({xlabel, ylabel});
  for (auto [x, y] : points)
    t.add_row({util::Table::fmt(x), util::Table::fmt(y)});
  std::cout << "-- " << name << " --\n";
  t.print(std::cout);
}

}  // namespace metas::bench
