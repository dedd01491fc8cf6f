#include "util/telemetry.hpp"

#include <algorithm>
#include <chrono>  // lint: allow(chrono-direct) -- the injectable-clock shim
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/trace.hpp"

namespace metas::util::telemetry {

namespace {

/// Per-thread stack of open spans.  Each frame remembers which registry it
/// belongs to so private test registries never corrupt the global tree.
struct SpanFrame {
  const Registry* reg = nullptr;  // lint: allow(view-member) -- identity tag matched in span_end; a frame never outlives its registry's span_begin/span_end bracket
  int node = -1;
  std::uint64_t start_ns = 0;
};
thread_local std::vector<SpanFrame> t_span_stack;

std::atomic<std::uint64_t> g_tick{0};

}  // namespace

// Metric and span names are dotted identifiers, but do not trust them
// blindly.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (mac::checked_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

std::uint64_t steady_now_ns() {
  // The one sanctioned wall-clock read in src/ (see tools/lint.py R7/R8):
  // values feed telemetry output only, never simulation state.
  auto now = std::chrono::steady_clock::now().time_since_epoch();  // lint: allow(wall-clock)
  return mac::checked_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

std::uint64_t tick_now_ns() {
  return (g_tick.fetch_add(1, std::memory_order_relaxed) + 1) * kTickStepNs;
}

void reset_tick_clock() { g_tick.store(0, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram()
    : min_bits_(std::bit_cast<std::uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<std::uint64_t>(
          -std::numeric_limits<double>::infinity())) {}

int Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // <= 0 and NaN collapse into the zero bucket
  int e = std::ilogb(v);
  e = std::clamp(e, -(kZeroBucketOffset - 1), kBuckets - kZeroBucketOffset - 1);
  return e + kZeroBucketOffset;
}

double Histogram::bucket_lower_bound(int b) {
  MAC_REQUIRE(b >= 0 && b < kBuckets, "b=", b);
  if (b == 0) return 0.0;
  return std::ldexp(1.0, b - kZeroBucketOffset);
}

void Histogram::observe(double v) {
  buckets_[mac::checked_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loops keep sum/min/max TSan-clean without a lock.
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed)) {
  }
  cur = min_bits_.load(std::memory_order_relaxed);
  while (std::bit_cast<double>(cur) > v &&
         !min_bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                          std::memory_order_relaxed)) {
  }
  cur = max_bits_.load(std::memory_order_relaxed);
  while (std::bit_cast<double>(cur) < v &&
         !max_bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(v),
                                          std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::min() const {
  if (count() == 0) return 0.0;
  return std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  if (count() == 0) return 0.0;
  return std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
}

void Histogram::reset_values() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(std::bit_cast<std::uint64_t>(
                      std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<std::uint64_t>(
                      -std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry() = default;

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Counter& Registry::counter(std::string_view name) {
  LockGuard lock(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *it->second;
  Counter& c = counters_.emplace_back();
  counter_index_.emplace(std::string(name), &c);
  return c;
}

Gauge& Registry::gauge(std::string_view name) {
  LockGuard lock(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return *it->second;
  Gauge& g = gauges_.emplace_back();
  gauge_index_.emplace(std::string(name), &g);
  return g;
}

Histogram& Registry::histogram(std::string_view name) {
  LockGuard lock(mu_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return *it->second;
  Histogram& h = histograms_.emplace_back();
  histogram_index_.emplace(std::string(name), &h);
  return h;
}

void Registry::set_clock(ClockFn fn) {
  clock_.store(fn != nullptr ? fn : &steady_now_ns, std::memory_order_relaxed);
}

std::uint64_t Registry::now_ns() const {
  return clock_.load(std::memory_order_relaxed)();
}

int Registry::span_begin(std::string_view name) {
  int parent = -1;
  if (!t_span_stack.empty() && t_span_stack.back().reg == this)
    parent = t_span_stack.back().node;
  int node;
  {
    LockGuard lock(mu_);
    auto key = std::make_pair(parent, std::string(name));
    auto it = span_index_.find(key);
    if (it != span_index_.end()) {
      node = it->second;
    } else {
      node = mac::checked_cast<int>(span_nodes_.size());
      SpanNode& n = span_nodes_.emplace_back();
      n.name = key.second;
      n.parent = parent;
      span_index_.emplace(std::move(key), node);
    }
  }
  // Read the clock after the tree bookkeeping so lookup cost is not billed
  // to the span.
  const std::uint64_t start_ns = now_ns();
  t_span_stack.push_back({this, node, start_ns});
  // Event hook: spans on the global registry also feed the flight recorder
  // (util/trace.hpp), reusing the timestamp just read -- no extra clock
  // reads, so the tick-clock stream is identical with tracing on or off.
  // Private test registries never emit events.
  if (this == &Registry::instance())
    trace::Recorder::instance().record_span_begin(node, start_ns);
  return node;
}

void Registry::span_end(int node_id) {
  MAC_ASSERT(!t_span_stack.empty(), "span_end with no open span");
  if (t_span_stack.empty()) return;
  SpanFrame frame = t_span_stack.back();
  t_span_stack.pop_back();
  MAC_ASSERT(frame.reg == this && frame.node == node_id,
             "span_end out of order: node=", node_id, " top=", frame.node);
  std::uint64_t end = now_ns();
  std::uint64_t elapsed = end >= frame.start_ns ? end - frame.start_ns : 0;
  if (this == &Registry::instance())
    trace::Recorder::instance().record_span_end(node_id, end);
  LockGuard lock(mu_);
  // The tree may have been reset between begin and end (tests); drop then.
  if (frame.node < 0 || mac::checked_cast<std::size_t>(frame.node) >= span_nodes_.size())
    return;
  SpanNode& n = span_nodes_[mac::checked_cast<std::size_t>(frame.node)];
  n.count.fetch_add(1, std::memory_order_relaxed);
  n.total_ns.fetch_add(elapsed, std::memory_order_relaxed);
}

std::size_t Registry::metric_count() const {
  LockGuard lock(mu_);
  return counter_index_.size() + gauge_index_.size() + histogram_index_.size();
}

std::vector<std::string> Registry::metric_names() const {
  LockGuard lock(mu_);
  std::vector<std::string> names;
  names.reserve(counter_index_.size() + gauge_index_.size() +
                histogram_index_.size());
  for (const auto& [name, _] : counter_index_) names.push_back(name);
  for (const auto& [name, _] : gauge_index_) names.push_back(name);
  for (const auto& [name, _] : histogram_index_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<Registry::SpanSnapshot> Registry::spans() const {
  LockGuard lock(mu_);
  std::vector<SpanSnapshot> out;
  out.reserve(span_nodes_.size());
  for (const SpanNode& n : span_nodes_) {
    SpanSnapshot s;
    s.name = n.name;
    s.parent = n.parent;
    s.count = n.count.load(std::memory_order_relaxed);
    s.total_ns = n.total_ns.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

void Registry::reset_values_for_tests() {
  LockGuard lock(mu_);
  for (Counter& c : counters_) c.v_.store(0, std::memory_order_relaxed);
  for (Gauge& g : gauges_) g.bits_.store(0, std::memory_order_relaxed);
  for (Histogram& h : histograms_) h.reset_values();
  span_nodes_.clear();
  span_index_.clear();
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

namespace {

/// Self time: total_ns minus the children's total_ns, clamped at zero (a
/// parent span still open at export time can transiently tally less than
/// its already-closed children).  The trace view's per-path self time
/// (tools/trace_diff.py) reports the same metric, so the aggregated and
/// event-level views triage with one vocabulary.
std::uint64_t span_self_ns(const std::vector<Registry::SpanSnapshot>& nodes,
                           const std::vector<std::vector<int>>& children,
                           int id) {
  std::uint64_t kids = 0;
  for (int k : children[mac::checked_cast<std::size_t>(id)])
    kids += nodes[mac::checked_cast<std::size_t>(k)].total_ns;
  const std::uint64_t total = nodes[mac::checked_cast<std::size_t>(id)].total_ns;
  return total > kids ? total - kids : 0;
}

void write_span_json(std::ostream& os,
                     const std::vector<Registry::SpanSnapshot>& nodes,
                     const std::vector<std::vector<int>>& children, int id,
                     int indent) {
  const auto& n = nodes[mac::checked_cast<std::size_t>(id)];
  std::string pad(mac::checked_cast<std::size_t>(indent), ' ');
  os << pad << "{\"name\": \"" << json_escape(n.name)
     << "\", \"count\": " << n.count << ", \"total_ns\": " << n.total_ns
     << ", \"self_ns\": " << span_self_ns(nodes, children, id);
  const auto& kids = children[mac::checked_cast<std::size_t>(id)];
  if (!kids.empty()) {
    os << ", \"children\": [\n";
    for (std::size_t k = 0; k < kids.size(); ++k) {
      write_span_json(os, nodes, children, kids[k], indent + 2);
      os << (k + 1 < kids.size() ? ",\n" : "\n");
    }
    os << pad << "]";
  }
  os << "}";
}

/// children[id] = child node ids in creation order; returns root ids.
std::vector<int> span_children(const std::vector<Registry::SpanSnapshot>& nodes,
                               std::vector<std::vector<int>>& children) {
  children.assign(nodes.size(), {});
  std::vector<int> roots;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0)
      roots.push_back(mac::checked_cast<int>(i));
    else
      children[mac::checked_cast<std::size_t>(nodes[i].parent)].push_back(
          mac::checked_cast<int>(i));
  }
  return roots;
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
  // Take consistent snapshots up front; the export itself runs unlocked.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histos;
  {
    LockGuard lock(mu_);
    for (const auto& [name, c] : counter_index_)
      counters.emplace_back(name, c->value());
    for (const auto& [name, g] : gauge_index_)
      gauges.emplace_back(name, g->value());
    for (const auto& [name, h] : histogram_index_) histos.emplace_back(name, h);
  }
  // Name-sorted export order is a structural guarantee here, not an
  // accident of the index container: swapping the indexes for unordered
  // maps must never change the snapshot bytes (the artifacts are diffed).
  std::sort(counters.begin(), counters.end());
  std::sort(gauges.begin(), gauges.end());
  std::sort(histos.begin(), histos.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  auto spans_flat = spans();
  std::vector<std::vector<int>> children;
  auto roots = span_children(spans_flat, children);

  os << "{\n  \"telemetry_version\": 1,\n  \"instrumentation_compiled\": "
     << (compiled() ? "true" : "false") << ",\n";
  os << "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(counters[i].first)
       << "\": " << counters[i].second;
  os << (counters.empty() ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(gauges[i].first)
       << "\": " << fmt_double(gauges[i].second);
  os << (gauges.empty() ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < histos.size(); ++i) {
    const Histogram& h = *histos[i].second;
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(histos[i].first)
       << "\": {\"count\": " << h.count() << ", \"sum\": " << fmt_double(h.sum())
       << ", \"min\": " << fmt_double(h.min())
       << ", \"max\": " << fmt_double(h.max()) << ", \"buckets\": {";
    bool first = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      std::uint64_t n = h.bucket_count(b);
      if (n == 0) continue;
      os << (first ? "" : ", ") << "\""
         << fmt_double(Histogram::bucket_lower_bound(b)) << "\": " << n;
      first = false;
    }
    os << "}}";
  }
  os << (histos.empty() ? "" : "\n  ") << "},\n";
  os << "  \"spans\": [";
  for (std::size_t r = 0; r < roots.size(); ++r) {
    os << (r == 0 ? "\n" : ",\n");
    write_span_json(os, spans_flat, children, roots[r], 4);
  }
  os << (roots.empty() ? "" : "\n  ") << "]\n}\n";
}

void Registry::write_csv(std::ostream& os) const {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histos;
  {
    LockGuard lock(mu_);
    for (const auto& [name, c] : counter_index_)
      counters.emplace_back(name, c->value());
    for (const auto& [name, g] : gauge_index_)
      gauges.emplace_back(name, g->value());
    for (const auto& [name, h] : histogram_index_) histos.emplace_back(name, h);
  }
  // Same structural name-sort guarantee as write_json.
  std::sort(counters.begin(), counters.end());
  std::sort(gauges.begin(), gauges.end());
  std::sort(histos.begin(), histos.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  os << "kind,name,field,value\n";
  for (const auto& [name, v] : counters)
    os << "counter," << name << ",value," << v << "\n";
  for (const auto& [name, v] : gauges)
    os << "gauge," << name << ",value," << fmt_double(v) << "\n";
  for (const auto& [name, h] : histos) {
    os << "histogram," << name << ",count," << h->count() << "\n";
    os << "histogram," << name << ",sum," << fmt_double(h->sum()) << "\n";
    os << "histogram," << name << ",min," << fmt_double(h->min()) << "\n";
    os << "histogram," << name << ",max," << fmt_double(h->max()) << "\n";
  }
  // Spans flatten to slash-joined paths.
  auto spans_flat = spans();
  std::vector<std::string> paths(spans_flat.size());
  for (std::size_t i = 0; i < spans_flat.size(); ++i) {
    const auto& n = spans_flat[i];
    paths[i] = n.parent < 0
                   ? n.name
                   : paths[mac::checked_cast<std::size_t>(n.parent)] + "/" + n.name;
  }
  std::vector<std::uint64_t> child_total(spans_flat.size(), 0);
  for (const auto& n : spans_flat)
    if (n.parent >= 0)
      child_total[mac::checked_cast<std::size_t>(n.parent)] += n.total_ns;
  for (std::size_t i = 0; i < spans_flat.size(); ++i) {
    const std::uint64_t total = spans_flat[i].total_ns;
    const std::uint64_t self =
        total > child_total[i] ? total - child_total[i] : 0;
    os << "span," << paths[i] << ",count," << spans_flat[i].count << "\n";
    os << "span," << paths[i] << ",total_ns," << total << "\n";
    os << "span," << paths[i] << ",self_ns," << self << "\n";
  }
}

bool write_snapshot(const std::string& path, Format format) {
  // Render to memory, then publish via the atomic-write helper so a crash
  // or a full/unwritable destination never leaves a partial snapshot.
  std::ostringstream os;
  if (format == Format::kJson)
    Registry::instance().write_json(os);
  else
    Registry::instance().write_csv(os);
  return checkpoint::atomic_write_file(path, os.str());
}

}  // namespace metas::util::telemetry
