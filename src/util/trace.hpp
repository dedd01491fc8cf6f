// Event-level tracing: a per-thread ring-buffer flight recorder over the
// telemetry registry, exported as Chrome trace-event / Perfetto JSON.
//
// The telemetry registry (util/telemetry.hpp) keeps *aggregated* span
// tallies -- it can say ALS is slow, but not when, on which thread, or what
// overlapped with what.  This layer records the individual events:
//
//   span begin / span end   emitted automatically by every MAC_SPAN site
//                           (the hook lives inside Registry::span_begin /
//                           span_end, so the 37 existing metrics' worth of
//                           instrumentation gains event output at zero
//                           extra annotation cost)
//   instant                 MAC_TRACE_INSTANT("name") point-in-time marks
//   counter sample          MAC_TRACE_COUNTER("name", v) time series
//
// Recording discipline (the flight-recorder contract):
//   * Each thread owns a fixed-capacity ring of fixed-size events.  The
//     owning thread writes with no lock and no CAS -- one slot store plus
//     one release store of the head index -- so the hot path stays
//     lock-free and allocation-free after the thread's first event.
//   * When the ring wraps, the oldest events are overwritten and counted
//     in `dropped_events` (surfaced in the exported trace header): the
//     recorder degrades to a last-N-events flight recorder, never to
//     unbounded memory.
//   * Timestamps come from the registry's injectable clock, so tick-clock
//     runs serialize to byte-identical trace JSON (tests/trace_test.cpp).
//   * start()/stop()/reset_for_tests() and cross-thread drains are
//     orchestration points: they must not race a recording thread.  The
//     pipeline honours this by draining only at quiescent boundaries (end
//     of run, checkpoint writes, cooperative-cancel stops), all of which
//     happen on the orchestrating thread.  A generation counter lets
//     threads re-register after a reset instead of touching freed buffers.
//
// The compile-time kill switch (-DMETASCRITIC_TELEMETRY=OFF) expands the
// MAC_TRACE_* macros below to typechecked no-ops, and because MAC_SPAN
// itself vanishes there are no span events either: a compiled-out build
// records nothing while the recorder core stays linkable.
//
// Export is the Chrome trace-event JSON "object format": an `otherData`
// header (version, clock, buffer sizing, dropped_events) plus a
// `traceEvents` array loadable directly by chrome://tracing and the
// Perfetto UI (ui.perfetto.dev).  tools/trace_diff.py consumes the same
// files for perf triage.  See DESIGN.md §13.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

#ifndef METASCRITIC_TELEMETRY_ENABLED
#define METASCRITIC_TELEMETRY_ENABLED 1
#endif

namespace metas::util::trace {

enum class EventType : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kInstant = 2,
  kCounter = 3,
};

/// One fixed-size trace event.  `id` is a telemetry span-node id for span
/// events (names resolve against the registry's span table at export time)
/// and an interned trace-name id for instants and counter samples.
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t value_bits = 0;  // counter value (double bits); 0 otherwise
  std::int32_t id = -1;
  EventType type = EventType::kInstant;
};

/// Default per-thread ring capacity (events), overridable per run with the
/// CLI's --trace-buffer-events.  64Ki events * 24 bytes = 1.5 MiB/thread.
inline constexpr std::size_t kDefaultBufferEvents = 1u << 16;
/// Largest ring the CLI accepts: 16Mi events * 24 bytes = 384 MiB/thread.
inline constexpr std::size_t kMaxBufferEvents = 1u << 24;

/// One thread's ring.  Only the owning thread writes; other threads may
/// read a consistent prefix after acquiring `written()` at a quiescent
/// point (see the recording discipline above).
class ThreadBuffer {
 public:
  explicit ThreadBuffer(int tid, std::size_t capacity)
      : slots_(capacity), tid_(tid) {}

  int tid() const { return tid_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Total events ever recorded (monotonic; release-published).
  std::uint64_t written() const;
  /// Events overwritten by ring wraparound so far.
  std::uint64_t dropped() const;

  /// Owner-thread-only append.
  void push(const TraceEvent& ev);

  /// Copies the surviving events, oldest first.  Caller must hold the
  /// quiescence contract (owner thread, or no concurrent writer).
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> head_{0};
  int tid_;
};

/// Process-wide flight recorder.  All MAC_TRACE_* macros and the registry
/// span hook record into `Recorder::instance()`; tests reset it between
/// cases via reset_for_tests().
class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  static Recorder& instance();

  /// Arms the recorder with `buffer_events` slots per thread.  Clears any
  /// previously recorded events.  Must not race active recording threads.
  void start(std::size_t buffer_events = kDefaultBufferEvents)
      MAC_EXCLUDES(mu_);
  /// Disarms recording; recorded events stay drainable for export.
  void stop();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Event entry points.  All are no-ops while disabled.  The span forms
  /// take the timestamp the registry already read for the aggregated tree,
  /// so a span costs no extra clock reads and tick-clock streams stay
  /// aligned between the two views.
  void record_span_begin(int node_id, std::uint64_t ts_ns);
  void record_span_end(int node_id, std::uint64_t ts_ns);
  void record_instant(std::int32_t name_id);
  void record_counter(std::int32_t name_id, double value);

  /// Find-or-create id for an instant/counter name (locked; call once per
  /// site through the MAC_TRACE_* static-local cache).
  std::int32_t intern_name(std::string_view name) MAC_EXCLUDES(mu_);

  /// Events overwritten by wraparound, summed over all threads.
  std::uint64_t dropped_events() const MAC_EXCLUDES(mu_);
  /// Total events currently held (post-wraparound survivors).
  std::uint64_t event_count() const MAC_EXCLUDES(mu_);
  std::size_t thread_count() const MAC_EXCLUDES(mu_);

  /// Serializes every thread's surviving events as Chrome trace-event JSON
  /// (object format: `otherData` header + `traceEvents`).  Span names are
  /// resolved against the global telemetry registry's span table.  Caller
  /// must hold the quiescence contract.
  void write_chrome_json(std::ostream& os) const MAC_EXCLUDES(mu_);

  /// Renders write_chrome_json to memory and publishes it via the atomic
  /// write helper (lint R18).  Returns false when the file cannot be
  /// written.
  bool write_file(const std::string& path) const MAC_EXCLUDES(mu_);

  /// Drops all buffers, interned names, and drop counts; bumps the
  /// registration generation so surviving threads re-register instead of
  /// touching freed storage.  Must not race active recording threads.
  void reset_for_tests() MAC_EXCLUDES(mu_);

 private:
  ThreadBuffer& local_buffer() MAC_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{1};
  mutable Mutex mu_;
  std::deque<std::unique_ptr<ThreadBuffer>> buffers_ MAC_GUARDED_BY(mu_);
  std::size_t buffer_events_ MAC_GUARDED_BY(mu_){kDefaultBufferEvents};
  std::vector<std::string> names_ MAC_GUARDED_BY(mu_);
  std::map<std::string, std::int32_t, std::less<>> name_index_
      MAC_GUARDED_BY(mu_);
};

}  // namespace metas::util::trace

// ---------------------------------------------------------------------------
// Instrumentation macros.  Subject to the same compile-time kill switch as
// the MAC_* telemetry macros: with METASCRITIC_TELEMETRY_ENABLED=0 they
// expand to typechecked no-ops.  Lint rule R19 (span-direct) requires all
// instrumentation sites to go through these macros (or MAC_SPAN), so the
// kill switch stays airtight.
// ---------------------------------------------------------------------------

#if METASCRITIC_TELEMETRY_ENABLED

#define MAC_TRACE_CAT2_(a, b) a##b
#define MAC_TRACE_CAT_(a, b) MAC_TRACE_CAT2_(a, b)

/// Records a point-in-time instant event named `name`.  The name is
/// interned once per call site; the hot path is one relaxed load (and one
/// clock read + slot store while tracing is armed).
#define MAC_TRACE_INSTANT(name)                                               \
  do {                                                                        \
    if (::metas::util::trace::Recorder::instance().enabled()) {               \
      static const std::int32_t MAC_TRACE_CAT_(mac_trace_id_, __LINE__) =     \
          ::metas::util::trace::Recorder::instance().intern_name(name);       \
      ::metas::util::trace::Recorder::instance().record_instant(              \
          MAC_TRACE_CAT_(mac_trace_id_, __LINE__));                           \
    }                                                                         \
  } while (false)

/// Records a counter sample `name` = `v` (rendered as a Perfetto counter
/// track).
#define MAC_TRACE_COUNTER(name, v)                                            \
  do {                                                                        \
    if (::metas::util::trace::Recorder::instance().enabled()) {               \
      static const std::int32_t MAC_TRACE_CAT_(mac_trace_id_, __LINE__) =     \
          ::metas::util::trace::Recorder::instance().intern_name(name);       \
      ::metas::util::trace::Recorder::instance().record_counter(              \
          MAC_TRACE_CAT_(mac_trace_id_, __LINE__), static_cast<double>(v));   \
    }                                                                         \
  } while (false)

#else  // !METASCRITIC_TELEMETRY_ENABLED

// Unevaluated: the value expression still typechecks but never runs.
#define MAC_TRACE_NOOP_(expr) static_cast<void>(sizeof(((expr), 0)))

#define MAC_TRACE_INSTANT(name) static_cast<void>(0)
#define MAC_TRACE_COUNTER(name, v) MAC_TRACE_NOOP_(v)

#endif  // METASCRITIC_TELEMETRY_ENABLED
