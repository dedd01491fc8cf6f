// Telemetry layer tests: registry primitive semantics, span-tree nesting,
// deterministic tick-clock output, exporter shape, concurrency (exercised
// under the tsan preset), and end-to-end pipeline coverage of the metric
// namespaces promised in DESIGN.md §8.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "util/telemetry.hpp"

namespace metas {
namespace {

namespace tel = util::telemetry;

TEST(TelemetryCounter, StartsAtZeroAndAccumulates) {
  tel::Registry reg;
  tel::Counter& c = reg.counter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create returns the same counter for the same name.
  EXPECT_EQ(&reg.counter("t.counter"), &c);
  EXPECT_NE(&reg.counter("t.other"), &c);
}

TEST(TelemetryGauge, LastWriteWins) {
  tel::Registry reg;
  tel::Gauge& g = reg.gauge("t.gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-0.25);
  EXPECT_EQ(g.value(), -0.25);
}

TEST(TelemetryHistogram, CountSumMinMax) {
  tel::Registry reg;
  tel::Histogram& h = reg.histogram("t.histo");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.observe(2.0);
  h.observe(0.5);
  h.observe(8.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(TelemetryHistogram, BucketBoundaries) {
  // Bucket 0 collects <= 0 (and NaN); bucket of 1.0 is the zero offset.
  EXPECT_EQ(tel::Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(tel::Histogram::bucket_of(-5.0), 0);
  EXPECT_EQ(tel::Histogram::bucket_of(std::nan("")), 0);
  EXPECT_EQ(tel::Histogram::bucket_of(1.0), tel::Histogram::kZeroBucketOffset);
  EXPECT_EQ(tel::Histogram::bucket_of(1.5), tel::Histogram::kZeroBucketOffset);
  EXPECT_EQ(tel::Histogram::bucket_of(2.0),
            tel::Histogram::kZeroBucketOffset + 1);
  EXPECT_EQ(tel::Histogram::bucket_of(0.5),
            tel::Histogram::kZeroBucketOffset - 1);
  // Extremes clamp into the outermost buckets instead of overflowing.
  EXPECT_EQ(tel::Histogram::bucket_of(1e300), tel::Histogram::kBuckets - 1);
  EXPECT_EQ(tel::Histogram::bucket_of(1e-300), 1);
  EXPECT_DOUBLE_EQ(
      tel::Histogram::bucket_lower_bound(tel::Histogram::kZeroBucketOffset),
      1.0);
  EXPECT_DOUBLE_EQ(tel::Histogram::bucket_lower_bound(0), 0.0);

  tel::Registry reg;
  tel::Histogram& h = reg.histogram("t.buckets");
  h.observe(1.0);
  h.observe(1.9);
  h.observe(4.0);
  EXPECT_EQ(h.bucket_count(tel::Histogram::kZeroBucketOffset), 2u);
  EXPECT_EQ(h.bucket_count(tel::Histogram::kZeroBucketOffset + 2), 1u);
}

TEST(TelemetrySpans, NestAndAggregate) {
  tel::Registry reg;
  reg.set_clock(&tel::tick_now_ns);
  {
    tel::ScopedSpan outer(reg, "outer");
    { tel::ScopedSpan inner(reg, "inner"); }
    { tel::ScopedSpan inner(reg, "inner"); }
  }
  { tel::ScopedSpan outer(reg, "outer"); }
  auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].count, 2u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].count, 2u);
  // Tick clock: every span interval is a whole number of ticks, and the
  // parent's total covers its children's.
  EXPECT_GT(spans[0].total_ns, spans[1].total_ns);
  EXPECT_EQ(spans[1].total_ns % tel::kTickStepNs, 0u);
}

TEST(TelemetrySpans, SameNameDifferentParentIsDifferentNode) {
  tel::Registry reg;
  reg.set_clock(&tel::tick_now_ns);
  {
    tel::ScopedSpan a(reg, "a");
    { tel::ScopedSpan s(reg, "shared"); }
  }
  {
    tel::ScopedSpan b(reg, "b");
    { tel::ScopedSpan s(reg, "shared"); }
  }
  auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 4u);
  std::size_t shared_nodes = 0;
  for (const auto& s : spans)
    if (s.name == "shared") ++shared_nodes;
  EXPECT_EQ(shared_nodes, 2u);
}

TEST(TelemetryClock, TickClockIsDeterministic) {
  tel::reset_tick_clock();
  EXPECT_EQ(tel::tick_now_ns(), tel::kTickStepNs);
  EXPECT_EQ(tel::tick_now_ns(), 2 * tel::kTickStepNs);
  tel::reset_tick_clock();
  EXPECT_EQ(tel::tick_now_ns(), tel::kTickStepNs);
}

TEST(TelemetryClock, TwoRunsSameTicksSameJson) {
  // The full determinism claim: two identical instrumented runs under the
  // tick clock serialize to byte-identical JSON.
  auto run = [] {
    tel::reset_tick_clock();
    tel::Registry reg;
    reg.set_clock(&tel::tick_now_ns);
    reg.counter("t.runs").add(3);
    reg.gauge("t.level").set(0.75);
    reg.histogram("t.sizes").observe(4.0);
    {
      tel::ScopedSpan outer(reg, "phase");
      tel::ScopedSpan inner(reg, "step");
    }
    std::ostringstream os;
    reg.write_json(os);
    return os.str();
  };
  std::string a = run();
  std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TelemetryExport, JsonContainsAllKinds) {
  tel::Registry reg;
  reg.set_clock(&tel::tick_now_ns);
  reg.counter("t.c").add(7);
  reg.gauge("t.g").set(1.5);
  reg.histogram("t.h").observe(2.0);
  { tel::ScopedSpan s(reg, "t.span"); }
  std::ostringstream os;
  reg.write_json(os);
  std::string j = os.str();
  EXPECT_NE(j.find("\"telemetry_version\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"t.c\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"t.g\": 1.5"), std::string::npos);
  EXPECT_NE(j.find("\"t.h\""), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"t.span\""), std::string::npos);
}

TEST(TelemetryExport, CsvShape) {
  tel::Registry reg;
  reg.set_clock(&tel::tick_now_ns);
  reg.counter("t.c").add(7);
  reg.gauge("t.g").set(1.5);
  reg.histogram("t.h").observe(2.0);
  {
    tel::ScopedSpan outer(reg, "outer");
    tel::ScopedSpan inner(reg, "inner");
  }
  std::ostringstream os;
  reg.write_csv(os);
  std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,t.c,value,7\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,t.g,value,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,t.h,count,1\n"), std::string::npos);
  // Span paths flatten with '/'.
  EXPECT_NE(csv.find("span,outer/inner,count,1\n"), std::string::npos);
}

TEST(TelemetryRegistry, ResetZeroesValuesButKeepsNames) {
  tel::Registry reg;
  tel::Counter& c = reg.counter("t.keep");
  c.add(9);
  { tel::ScopedSpan s(reg, "t.span"); }
  reg.reset_values_for_tests();
  // The handle stays valid (named metrics are never deallocated) and reads 0.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("t.keep"), &c);
  EXPECT_EQ(reg.spans().size(), 0u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(TelemetryRegistry, SpanEndAfterResetIsDropped) {
  tel::Registry reg;
  reg.set_clock(&tel::tick_now_ns);
  auto span = std::make_unique<tel::ScopedSpan>(reg, "t.orphan");
  reg.reset_values_for_tests();
  span.reset();  // closes against a cleared tree: must not crash or record
  EXPECT_EQ(reg.spans().size(), 0u);
}

TEST(TelemetryConcurrency, CountersAreExactAcrossThreads) {
  tel::Registry reg;
  tel::Counter& c = reg.counter("t.mt");
  tel::Histogram& h = reg.histogram("t.mt_histo");
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c, &h] {
      for (int k = 0; k < kIters; ++k) {
        c.add();
        h.observe(1.0);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kIters);
}

TEST(TelemetryConcurrency, SpansAreThreadLocal) {
  tel::Registry reg;
  reg.set_clock(&tel::tick_now_ns);
  // Concurrent spans on different threads must not corrupt each other's
  // nesting (each thread has its own frame stack).
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg] {
      for (int k = 0; k < 200; ++k) {
        tel::ScopedSpan outer(reg, "mt.outer");
        tel::ScopedSpan inner(reg, "mt.inner");
      }
    });
  for (auto& t : threads) t.join();
  auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].count, static_cast<std::uint64_t>(kThreads) * 200);
  EXPECT_EQ(spans[1].count, static_cast<std::uint64_t>(kThreads) * 200);
  EXPECT_EQ(spans[1].parent, 0);
}

// End-to-end: a full pipeline run populates every promised namespace and the
// span tree covers every pipeline phase (ISSUE acceptance criteria).
TEST(TelemetryPipelineCoverage, NamespacesAndPhaseSpans) {
  if (!tel::compiled())
    GTEST_SKIP() << "telemetry instrumentation compiled out";
  eval::World& w = testing::shared_world();
  core::MetroContext ctx(w.net, w.focus_metros.front());
  core::PipelineConfig pc;
  pc.scheduler.seed = 500;
  pc.rank.seed = 501;
  tel::Registry& reg = tel::Registry::instance();
  const std::vector<std::string> kFaultCounts = {
      "scheduler.probes_launched", "scheduler.probes_faulted",
      "scheduler.retries", "scheduler.infra_failures", "scheduler.requeues"};
  std::vector<std::uint64_t> before;
  for (const std::string& name : kFaultCounts)
    before.push_back(reg.counter(name).value());
  core::MetascriticPipeline pipeline(ctx, *w.ms, nullptr, pc);
  const core::PipelineResult result = pipeline.run();

  auto names = reg.metric_names();
  EXPECT_GE(names.size(), 25u);
  // The scheduler counts the work its explore and exploit picks do, once
  // per call.
  for (const char* counter :
       {"scheduler.explore_pairs_visited", "scheduler.exploit_entries_bounded"})
    EXPECT_TRUE(std::find(names.begin(), names.end(), counter) != names.end())
        << "missing counter " << counter;
  const std::vector<std::string> kNamespaces = {
      "als.", "scheduler.", "measurement.", "traceroute.", "bgp.",
      "pipeline."};
  for (const std::string& ns : kNamespaces) {
    bool found = std::any_of(names.begin(), names.end(),
                             [&ns](const std::string& n) {
                               return n.rfind(ns, 0) == 0;
                             });
    EXPECT_TRUE(found) << "no metric in namespace " << ns;
  }

  auto spans = reg.spans();
  std::set<std::string> span_names;
  for (const auto& s : spans) span_names.insert(s.name);
  for (const char* phase :
       {"pipeline.run", "pipeline.encode_features", "pipeline.rank_estimation",
        "pipeline.final_completion", "pipeline.tune_threshold",
        "pipeline.publish_ratings", "pipeline.rank_iteration",
        "scheduler.fill_rows_to", "als.fit"})
    EXPECT_TRUE(span_names.count(phase) != 0) << "missing span " << phase;

  // Phase spans parent under pipeline.run.
  int run_node = -1;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "pipeline.run") run_node = static_cast<int>(i);
  ASSERT_GE(run_node, 0);
  for (const auto& s : spans)
    if (s.name == "pipeline.encode_features" ||
        s.name == "pipeline.rank_estimation" ||
        s.name == "pipeline.final_completion") {
      EXPECT_EQ(s.parent, run_node);
    }

  // The scheduler.* counters receive every increment behind the
  // DegradationReport's counter fields.
  const core::DegradationReport& d = result.degradation;
  const std::vector<std::size_t> report = {
      d.probes_launched, d.probes_faulted, d.retries, d.infra_failures,
      d.requeues};
  EXPECT_GE(d.probes_launched, 1u);
  for (std::size_t k = 0; k < kFaultCounts.size(); ++k)
    EXPECT_EQ(reg.counter(kFaultCounts[k]).value() - before[k], report[k])
        << kFaultCounts[k];
}

}  // namespace
}  // namespace metas
