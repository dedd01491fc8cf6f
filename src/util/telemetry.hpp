// Process-wide telemetry: metrics registry, RAII scoped spans, and exporters.
//
// The pipeline's dynamics (scheduler rounds, ALS convergence, probe spend,
// failover behaviour) were previously visible only as end-of-run summary
// tables; this layer makes them first-class measurements.  Three primitives:
//
//   Counter    monotonic uint64 (relaxed atomic; exact under concurrency)
//   Gauge      last-written double (atomic bit store)
//   Histogram  fixed power-of-two buckets + count/sum/min/max
//
// plus hierarchical timing spans: `MAC_SPAN("als.fit")` opens an RAII span
// that nests under the innermost open span of the current thread, and the
// aggregated (count, total_ns) tree is exported alongside the metrics.
//
// Metric naming scheme: `subsystem.verb_noun` (als.fits_completed,
// scheduler.probes_launched, traceroute.probes_issued, ...); span names use
// the same `subsystem.phase` dotted form.  See DESIGN.md §8.
//
// Time is injectable: the registry reads an abstract clock function, by
// default a real steady clock (the only sanctioned wall-clock read in src/,
// carved out of the repo lint) and for tests a deterministic tick clock
// (`tick_now_ns`) that advances a fixed step per read, so span output is
// bit-reproducible.  No simulation state ever reads this clock: telemetry is
// observation only, and a build with the sink unset produces byte-identical
// pipeline output to a build without the layer.
//
// Compile-time kill switch: configure with -DMETASCRITIC_TELEMETRY=OFF (or
// define METASCRITIC_TELEMETRY_ENABLED=0) and every MAC_* instrumentation
// macro below expands to nothing -- arguments unevaluated, no registry
// lookups, no clock reads -- so the zero-overhead claim is checkable rather
// than asserted (tests/telemetry_disabled_test.cpp).  The registry holds
// instrumentation only: no run result reads it.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/numeric.hpp"
#include "util/sync.hpp"

#ifndef METASCRITIC_TELEMETRY_ENABLED
#define METASCRITIC_TELEMETRY_ENABLED 1
#endif

namespace metas::util::telemetry {

/// True when the MAC_* instrumentation macros are compiled in for this
/// translation unit (per-TU: the disabled test TU sees false).
constexpr bool compiled() { return METASCRITIC_TELEMETRY_ENABLED != 0; }

/// Monotonic counter.  Relaxed atomic: exact totals under concurrent
/// increments, no ordering guarantees with respect to other metrics.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written double value (atomic via bit store).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram over non-negative magnitudes.  Bucket 0 collects
/// values <= 0; bucket b >= 1 collects [2^(b-kZeroBucketOffset),
/// 2^(b-kZeroBucketOffset+1)), covering 2^-26 .. 2^26.  Count and bucket
/// tallies are exact under concurrency; sum/min/max are CAS-maintained.
class Histogram {
 public:
  static constexpr int kBuckets = 54;
  static constexpr int kZeroBucketOffset = 27;  // bucket index of [1, 2)

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  std::uint64_t bucket_count(int b) const {
    return buckets_[mac::checked_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }

  /// Bucket index a value falls into.
  static int bucket_of(double v);
  /// Inclusive lower bound of bucket b (0.0 for the <=0 bucket).
  static double bucket_lower_bound(int b);

 private:
  friend class Registry;
  void reset_values();
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;

 public:
  Histogram();
};

/// Abstract time source: nanoseconds from an arbitrary epoch.
using ClockFn = std::uint64_t (*)();

/// Real steady-clock read (the lint-sanctioned wall-clock carve-out).
std::uint64_t steady_now_ns();
/// Deterministic test clock: advances kTickStepNs per read, process-wide.
std::uint64_t tick_now_ns();
constexpr std::uint64_t kTickStepNs = 1000;
/// Rewinds the tick clock to zero (tests).
void reset_tick_clock();

/// Snapshot export formats.
enum class Format { kJson, kCsv };

/// Metrics registry + span tree.  `Registry::instance()` is the process-wide
/// registry every MAC_* macro records into; tests may construct private
/// registries for isolation.  Named metrics are never deallocated (handles
/// returned by counter()/gauge()/histogram() stay valid for the registry's
/// lifetime, which for the global instance is the process), so instrumented
/// code can cache references safely.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& instance();

  /// Find-or-create by name.  Thread-safe; the returned reference is stable.
  /// (Handles escape the lock deliberately: Counter/Gauge/Histogram values
  /// are internally atomic, only the name->handle maps are mu_-guarded.)
  Counter& counter(std::string_view name) MAC_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) MAC_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) MAC_EXCLUDES(mu_);

  /// Injects a time source; nullptr restores the real steady clock.
  void set_clock(ClockFn fn);
  std::uint64_t now_ns() const;

  /// Opens a span named `name` under the current thread's innermost open
  /// span (root when none).  Returns the node id; close with span_end.
  /// Prefer the RAII ScopedSpan / MAC_SPAN over calling these directly.
  int span_begin(std::string_view name) MAC_EXCLUDES(mu_);
  void span_end(int node_id) MAC_EXCLUDES(mu_);

  /// Distinct named metrics (counters + gauges + histograms).
  std::size_t metric_count() const MAC_EXCLUDES(mu_);
  /// Sorted names of all registered metrics.
  std::vector<std::string> metric_names() const MAC_EXCLUDES(mu_);

  /// Flat copy of the aggregated span tree (parent == -1 for roots), in
  /// creation order.
  struct SpanSnapshot {
    std::string name;
    int parent = -1;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::vector<SpanSnapshot> spans() const MAC_EXCLUDES(mu_);

  void write_json(std::ostream& os) const MAC_EXCLUDES(mu_);
  void write_csv(std::ostream& os) const MAC_EXCLUDES(mu_);

  /// Zeroes every metric value and drops the span tree, keeping all metric
  /// names registered: instrumented code caches Counter& handles in static
  /// locals, so named metrics must never be deallocated mid-process.
  void reset_values_for_tests() MAC_EXCLUDES(mu_);

 private:
  struct SpanNode {
    std::string name;
    int parent = -1;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
  };

  // mu_ guards the name->handle and (parent,name)->node maps plus the deques
  // that own metric storage.  Metric *values* (Counter/Gauge/Histogram
  // internals, SpanNode tallies) are relaxed atomics updated through escaped
  // references without the lock -- that is the design: registration is rare
  // and locked, recording is hot and lock-free.
  mutable Mutex mu_;
  std::deque<Counter> counters_ MAC_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ MAC_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ MAC_GUARDED_BY(mu_);
  std::map<std::string, Counter*, std::less<>> counter_index_ MAC_GUARDED_BY(mu_);
  std::map<std::string, Gauge*, std::less<>> gauge_index_ MAC_GUARDED_BY(mu_);
  std::map<std::string, Histogram*, std::less<>> histogram_index_
      MAC_GUARDED_BY(mu_);
  std::deque<SpanNode> span_nodes_ MAC_GUARDED_BY(mu_);
  std::map<std::pair<int, std::string>, int> span_index_ MAC_GUARDED_BY(mu_);
  std::atomic<ClockFn> clock_{&steady_now_ns};
};

/// RAII span: opens on construction, accumulates elapsed clock time into the
/// aggregated tree on destruction.  Spans nest per thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : reg_(&Registry::instance()), node_(reg_->span_begin(name)) {}
  ScopedSpan(Registry& reg, std::string_view name)
      : reg_(&reg), node_(reg.span_begin(name)) {}
  ~ScopedSpan() { reg_->span_end(node_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Registry* reg_;  // lint: allow(view-member) -- the process singleton or a test-owned Registry, both alive across the span's scope
  int node_;
};

/// Writes a snapshot of the global registry to `path`.  Returns false when
/// the file cannot be opened.
bool write_snapshot(const std::string& path, Format format);

/// JSON string escape shared by the registry and trace exporters: quotes
/// and backslashes are escaped, control characters dropped.
std::string json_escape(const std::string& s);

/// Deterministic double formatting (17 significant digits) shared by the
/// registry and trace exporters.
std::string fmt_double(double v);

}  // namespace metas::util::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros.  These -- and only these -- are subject to the
// compile-time kill switch: with METASCRITIC_TELEMETRY_ENABLED=0 they expand
// to nothing (arguments typecheck inside an unevaluated sizeof but never
// run).
// ---------------------------------------------------------------------------

#if METASCRITIC_TELEMETRY_ENABLED

#define MAC_TELEMETRY_CAT2_(a, b) a##b
#define MAC_TELEMETRY_CAT_(a, b) MAC_TELEMETRY_CAT2_(a, b)

/// Increments counter `name` by 1.
#define MAC_COUNT(name) MAC_COUNT_N(name, 1)

/// Increments counter `name` by `n`.  The registry lookup happens once per
/// call site (static local handle); the increment is one relaxed atomic add.
#define MAC_COUNT_N(name, n)                                                  \
  do {                                                                        \
    static ::metas::util::telemetry::Counter& MAC_TELEMETRY_CAT_(             \
        mac_telemetry_ctr_, __LINE__) =                                       \
        ::metas::util::telemetry::Registry::instance().counter(name);         \
    MAC_TELEMETRY_CAT_(mac_telemetry_ctr_, __LINE__)                          \
        .add(mac::checked_cast<std::uint64_t>(n));                                  \
  } while (false)

/// Sets gauge `name` to `v`.
#define MAC_GAUGE_SET(name, v)                                                \
  do {                                                                        \
    static ::metas::util::telemetry::Gauge& MAC_TELEMETRY_CAT_(               \
        mac_telemetry_gauge_, __LINE__) =                                     \
        ::metas::util::telemetry::Registry::instance().gauge(name);           \
    MAC_TELEMETRY_CAT_(mac_telemetry_gauge_, __LINE__)                        \
        .set(static_cast<double>(v));                                         \
  } while (false)

/// Records `v` into histogram `name`.
#define MAC_HISTOGRAM(name, v)                                                \
  do {                                                                        \
    static ::metas::util::telemetry::Histogram& MAC_TELEMETRY_CAT_(           \
        mac_telemetry_histo_, __LINE__) =                                     \
        ::metas::util::telemetry::Registry::instance().histogram(name);       \
    MAC_TELEMETRY_CAT_(mac_telemetry_histo_, __LINE__)                        \
        .observe(static_cast<double>(v));                                     \
  } while (false)

/// Opens an RAII timing span for the rest of the enclosing scope.
#define MAC_SPAN(name)                                                        \
  ::metas::util::telemetry::ScopedSpan MAC_TELEMETRY_CAT_(mac_telemetry_span_, \
                                                          __LINE__)(name)

#else  // !METASCRITIC_TELEMETRY_ENABLED

// Unevaluated: the value expression still typechecks (so instrumentation
// cannot rot) but no code is emitted and no side effects run.
#define MAC_TELEMETRY_NOOP_(expr) static_cast<void>(sizeof(((expr), 0)))

#define MAC_COUNT(name) static_cast<void>(0)
#define MAC_COUNT_N(name, n) MAC_TELEMETRY_NOOP_(n)
#define MAC_GAUGE_SET(name, v) MAC_TELEMETRY_NOOP_(v)
#define MAC_HISTOGRAM(name, v) MAC_TELEMETRY_NOOP_(v)
#define MAC_SPAN(name) static_cast<void>(0)

#endif  // METASCRITIC_TELEMETRY_ENABLED
