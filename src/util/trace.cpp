#include "util/trace.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::util::trace {

namespace {

/// Per-thread registration cache: the ring this thread writes, tagged with
/// the recorder generation it was handed out under.  start() and
/// reset_for_tests() bump the generation, so a stale cache re-registers
/// instead of touching freed storage.
struct LocalCache {
  ThreadBuffer* buf = nullptr;  // lint: allow(view-member) -- owned by Recorder::buffers_; the generation tag below invalidates this pointer before any post-reset use
  std::uint64_t gen = 0;
};
thread_local LocalCache t_cache;

using telemetry::fmt_double;
using telemetry::json_escape;

/// Chrome's `ts` field is in microseconds.  Emit exactly three fractional
/// digits by integer arithmetic so the byte output never depends on float
/// formatting, and nanosecond resolution survives the unit change.
std::string fmt_ts_us(std::uint64_t ns) {
  std::ostringstream os;
  os << (ns / 1000) << '.' << std::setw(3) << std::setfill('0') << (ns % 1000);
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadBuffer
// ---------------------------------------------------------------------------

std::uint64_t ThreadBuffer::written() const {
  return head_.load(std::memory_order_acquire);
}

std::uint64_t ThreadBuffer::dropped() const {
  const std::uint64_t h = written();
  const std::uint64_t cap = slots_.size();
  return h > cap ? h - cap : 0;
}

void ThreadBuffer::push(const TraceEvent& ev) {
  // Owner-thread-only: the relaxed read sees this thread's own last store,
  // and the release store publishes the filled slot to a later drain that
  // acquires `written()`.
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  slots_[mac::checked_cast<std::size_t>(h % slots_.size())] = ev;
  head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> ThreadBuffer::snapshot() const {
  const std::uint64_t h = written();
  const std::uint64_t cap = slots_.size();
  const std::uint64_t n = std::min(h, cap);
  std::vector<TraceEvent> out;
  out.reserve(mac::checked_cast<std::size_t>(n));
  for (std::uint64_t i = h - n; i < h; ++i)
    out.push_back(slots_[mac::checked_cast<std::size_t>(i % cap)]);
  return out;
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::Recorder() = default;

Recorder& Recorder::instance() {
  static Recorder rec;
  return rec;
}

void Recorder::start(std::size_t buffer_events) {
  LockGuard lock(mu_);
  buffers_.clear();
  buffer_events_ = buffer_events == 0 ? 1 : buffer_events;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  enabled_.store(true, std::memory_order_release);
}

void Recorder::stop() { enabled_.store(false, std::memory_order_release); }

ThreadBuffer& Recorder::local_buffer() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_cache.buf != nullptr && t_cache.gen == gen) return *t_cache.buf;
  LockGuard lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>(
      mac::checked_cast<int>(buffers_.size() + 1), buffer_events_);
  t_cache.buf = buf.get();
  // Tag with the generation current *under the lock*: a start() racing the
  // unlocked read above would otherwise leave a stale tag on a live buffer.
  t_cache.gen = generation_.load(std::memory_order_relaxed);
  buffers_.push_back(std::move(buf));
  return *t_cache.buf;
}

void Recorder::record_span_begin(int node_id, std::uint64_t ts_ns) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.id = mac::checked_cast<std::int32_t>(node_id);
  ev.type = EventType::kSpanBegin;
  local_buffer().push(ev);
}

void Recorder::record_span_end(int node_id, std::uint64_t ts_ns) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.id = mac::checked_cast<std::int32_t>(node_id);
  ev.type = EventType::kSpanEnd;
  local_buffer().push(ev);
}

void Recorder::record_instant(std::int32_t name_id) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ts_ns = telemetry::Registry::instance().now_ns();
  ev.id = name_id;
  ev.type = EventType::kInstant;
  local_buffer().push(ev);
}

void Recorder::record_counter(std::int32_t name_id, double value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ts_ns = telemetry::Registry::instance().now_ns();
  ev.value_bits = std::bit_cast<std::uint64_t>(value);
  ev.id = name_id;
  ev.type = EventType::kCounter;
  local_buffer().push(ev);
}

std::int32_t Recorder::intern_name(std::string_view name) {
  LockGuard lock(mu_);
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  // Interned names are never deallocated (mirror of the registry's metric
  // contract): call sites cache the id in a function-local static, so a
  // reset must not reissue ids.
  const std::int32_t id = mac::checked_cast<std::int32_t>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(std::string(name), id);
  return id;
}

std::uint64_t Recorder::dropped_events() const {
  LockGuard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& b : buffers_) total += b->dropped();
  return total;
}

std::uint64_t Recorder::event_count() const {
  LockGuard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& b : buffers_)
    total += std::min<std::uint64_t>(b->written(), b->capacity());
  return total;
}

std::size_t Recorder::thread_count() const {
  LockGuard lock(mu_);
  return buffers_.size();
}

void Recorder::write_chrome_json(std::ostream& os) const {
  // Buffer addresses are stable (deque of unique_ptr) and the quiescence
  // contract rules out concurrent writers, so only the pointer copy needs
  // the lock; the export itself runs unlocked.
  std::vector<const ThreadBuffer*> bufs;
  std::vector<std::string> names;
  std::size_t cap = 0;
  {
    LockGuard lock(mu_);
    bufs.reserve(buffers_.size());
    for (const auto& b : buffers_) bufs.push_back(b.get());
    names = names_;
    cap = buffer_events_;
  }
  const auto span_nodes = telemetry::Registry::instance().spans();
  auto span_name = [&span_nodes](std::int32_t id) -> const std::string& {
    static const std::string kUnknown = "<unknown>";
    if (id >= 0 && mac::checked_cast<std::size_t>(id) < span_nodes.size())
      return span_nodes[mac::checked_cast<std::size_t>(id)].name;
    return kUnknown;
  };
  auto event_name = [&names](std::int32_t id) -> const std::string& {
    static const std::string kUnknown = "<unknown>";
    if (id >= 0 && mac::checked_cast<std::size_t>(id) < names.size())
      return names[mac::checked_cast<std::size_t>(id)];
    return kUnknown;
  };
  std::uint64_t dropped = 0;
  std::uint64_t held = 0;
  for (const ThreadBuffer* b : bufs) {
    dropped += b->dropped();
    held += std::min<std::uint64_t>(b->written(), b->capacity());
  }

  os << "{\n  \"otherData\": {\n"
     << "    \"trace_version\": 1,\n"
     << "    \"clock\": \"telemetry_ns\",\n"
     << "    \"buffer_events_per_thread\": " << cap << ",\n"
     << "    \"dropped_events\": " << dropped << ",\n"
     << "    \"event_count\": " << held << ",\n"
     << "    \"threads\": " << bufs.size() << "\n"
     << "  },\n  \"traceEvents\": [";
  bool first = true;
  for (const ThreadBuffer* b : bufs) {
    for (const TraceEvent& ev : b->snapshot()) {
      os << (first ? "\n" : ",\n") << "    {";
      first = false;
      switch (ev.type) {
        case EventType::kSpanBegin:
          os << "\"name\": \"" << json_escape(span_name(ev.id))
             << "\", \"cat\": \"span\", \"ph\": \"B\"";
          break;
        case EventType::kSpanEnd:
          os << "\"name\": \"" << json_escape(span_name(ev.id))
             << "\", \"cat\": \"span\", \"ph\": \"E\"";
          break;
        case EventType::kInstant:
          os << "\"name\": \"" << json_escape(event_name(ev.id))
             << "\", \"cat\": \"instant\", \"ph\": \"i\", \"s\": \"t\"";
          break;
        case EventType::kCounter:
          os << "\"name\": \"" << json_escape(event_name(ev.id))
             << "\", \"cat\": \"counter\", \"ph\": \"C\", \"args\": "
             << "{\"value\": " << fmt_double(std::bit_cast<double>(ev.value_bits))
             << "}";
          break;
      }
      os << ", \"ts\": " << fmt_ts_us(ev.ts_ns) << ", \"pid\": 1, \"tid\": "
         << b->tid() << "}";
    }
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

bool Recorder::write_file(const std::string& path) const {
  // Render to memory, then publish via the atomic-write helper: a flight
  // dump racing a SIGKILL must never leave a half-written JSON for
  // trace_diff to choke on.
  std::ostringstream os;
  write_chrome_json(os);
  return checkpoint::atomic_write_file(path, os.str());
}

void Recorder::reset_for_tests() {
  LockGuard lock(mu_);
  enabled_.store(false, std::memory_order_release);
  buffers_.clear();
  buffer_events_ = kDefaultBufferEvents;
  // Interned names survive (see intern_name); only event storage resets.
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace metas::util::trace
