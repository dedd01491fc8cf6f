// World-construction, metrics, and topology-variant tests.
#include "eval/world.hpp"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "eval/metrics.hpp"
#include "eval/topologies.hpp"
#include "test_world.hpp"
#include "util/telemetry.hpp"

namespace metas::eval {
namespace {

TEST(World, BuildProducesConsistentState) {
  World& w = testing::shared_world();
  EXPECT_GT(w.net.num_ases(), 100u);
  EXPECT_FALSE(w.vps.empty());
  EXPECT_FALSE(w.targets.empty());
  EXPECT_FALSE(w.collectors.empty());
  EXPECT_GT(w.public_view.size(), 0u);
  EXPECT_FALSE(w.focus_metros.empty());
  EXPECT_GT(w.ms->traceroutes_issued(), 0u);
  EXPECT_GT(w.ms->evidence().pairs(), 0u);
}

TEST(World, FocusMetroIdsMatchGeneratorNames) {
  World& w = testing::shared_world();
  for (auto m : w.focus_metros) {
    const auto& metro = w.net.metros[static_cast<std::size_t>(m)];
    EXPECT_NE(metro.name.rfind("Metro", 0), 0u)
        << "focus metro has generic name " << metro.name;
  }
}

TEST(World, PublicViewSubsetOfTruthLinks) {
  World& w = testing::shared_world();
  for (auto key : w.public_view.raw()) {
    auto a = static_cast<topology::AsId>(key & 0xffffffffULL);
    auto b = static_cast<topology::AsId>(key >> 32);
    EXPECT_TRUE(w.net.linked(a, b));
  }
}

std::vector<std::uint64_t> sorted_links(const bgp::LinkSet& links) {
  std::vector<std::uint64_t> keys(links.raw().begin(), links.raw().end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

// build_world's public view reads the traceroute engine's routing cache.  It
// equals the view over a fresh graph and engine, and leaves the cache
// holding one table per AS.
TEST(World, PublicViewReadsTheEngineCache) {
  using MakeConfig = WorldConfig (*)(std::uint64_t);
  for (MakeConfig make : {MakeConfig{small_world_config},
                          MakeConfig{paper_world_config}}) {
    for (std::uint64_t seed : {7u, 42u}) {
      World w = build_world(make(seed));
      SCOPED_TRACE(std::to_string(w.net.num_ases()) + " ASes, seed " +
                   std::to_string(seed));
      EXPECT_EQ(w.engine->routing().cached_tables(), w.net.num_ases());
      const bgp::AsGraph g = bgp::AsGraph::from_internet(w.net);
      bgp::RoutingEngine fresh(g);
      EXPECT_EQ(sorted_links(bgp::compute_public_view(fresh, w.collectors)),
                sorted_links(w.public_view));
    }
  }
}

// With every table cached by world build, a metro run computes none.
TEST(World, MetroRunComputesNoRoutingTable) {
  World w = build_world(small_world_config(42));
  ASSERT_EQ(w.engine->routing().cached_tables(), w.net.num_ases());
  auto& computed =
      util::telemetry::Registry::instance().counter("bgp.tables_computed");
  const std::uint64_t before = computed.value();
  core::MetroContext ctx(w.net, w.focus_metros.front());
  core::PipelineConfig pc;
  pc.scheduler.batch_size = 60;
  const core::PipelineResult r =
      core::MetascriticPipeline(ctx, *w.ms, nullptr, pc).run();
  EXPECT_GT(r.targeted_traceroutes, 0u);
  EXPECT_EQ(w.engine->routing().cached_tables(), w.net.num_ases());
  if (util::telemetry::compiled()) {
    EXPECT_EQ(computed.value(), before);
  }
}

TEST(Metrics, ScorePairsAgainstTruth) {
  World& w = testing::shared_world();
  core::MetroContext ctx(w.net, w.focus_metros.front());
  const std::size_t n = ctx.size();
  // Perfect oracle ratings give perfect metrics.
  linalg::Matrix oracle(n, n);
  const auto& truth = w.truth_at(ctx.metro());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) oracle(i, j) = truth.link(i, j) ? 1.0 : -1.0;
  auto pairs = score_pairs(ctx, oracle);
  EXPECT_EQ(pairs.size(), n * (n - 1) / 2);
  auto m = truth_metrics(pairs, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_NEAR(m.auprc, 1.0, 1e-9);
  EXPECT_NEAR(m.auc, 1.0, 1e-9);
  // Restricting to explicit pairs works.
  auto some = score_pairs(ctx, oracle, {{0, 1}, {2, 3}});
  EXPECT_EQ(some.size(), 2u);
}

TEST(Topologies, PublicGraphSmallerThanTruth) {
  World& w = testing::shared_world();
  bgp::AsGraph truth_graph = bgp::AsGraph::from_internet(w.net);
  bgp::AsGraph public_graph = build_public_graph(w);
  EXPECT_LT(public_graph.edge_count(), truth_graph.edge_count());
}

TEST(Topologies, MeasuredAndInferredOnlyGrowTheGraph) {
  World& w = testing::shared_world();
  core::MetroContext ctx(w.net, w.focus_metros.front());
  bgp::AsGraph g = build_public_graph(w);
  std::size_t base = g.edge_count();
  std::size_t measured = add_measured_links(g, w, ctx);
  EXPECT_EQ(g.edge_count(), base + measured);

  // A ratings matrix that marks everything a link adds every missing pair.
  const std::size_t n = ctx.size();
  linalg::Matrix ones(n, n, 1.0);
  std::size_t inferred = add_inferred_links(g, ctx, ones, 0.9);
  EXPECT_EQ(g.edge_count(), base + measured + inferred);
  // Idempotent: re-adding adds nothing.
  EXPECT_EQ(add_inferred_links(g, ctx, ones, 0.9), 0u);
}

TEST(Topologies, ThresholdControlsInferredCount) {
  World& w = testing::shared_world();
  core::MetroContext ctx(w.net, w.focus_metros.front());
  const std::size_t n = ctx.size();
  util::Rng rng(3);
  linalg::Matrix ratings(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      double v = rng.uniform(-1.0, 1.0);
      ratings(i, j) = v;
      ratings(j, i) = v;
    }
  bgp::AsGraph strict = build_public_graph(w);
  bgp::AsGraph loose = build_public_graph(w);
  std::size_t added_strict = add_inferred_links(strict, ctx, ratings, 0.9);
  std::size_t added_loose = add_inferred_links(loose, ctx, ratings, 0.1);
  EXPECT_LT(added_strict, added_loose);
}

TEST(WorldConfigs, PresetsDiffer) {
  auto small = small_world_config(1);
  auto paper = paper_world_config(1);
  EXPECT_LT(small.gen.total_ases(), paper.gen.total_ases());
  EXPECT_LE(small.gen.total_metros(), 64);
  EXPECT_LE(paper.gen.total_metros(), 64);
}

}  // namespace
}  // namespace metas::eval
