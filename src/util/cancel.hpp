// Cooperative cancellation and deadline budgeting for long-running phases.
//
// CancelToken is a single atomic flag: cancel() is a lock-free store, so a
// signal handler may trip it (async-signal-safe); workers poll stop points
// at work-unit boundaries and finish the unit they are in.  DeadlineBudget
// wraps a monotonic clock (telemetry::steady_now_ns by default, injectable
// for tests) and is inert unless armed — the default-constructed budget
// performs ZERO clock reads, preserving byte-identical behaviour for runs
// without --deadline-ms.  RunControl bundles both for threading through
// pipeline -> scheduler / rank estimation / ALS.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "util/telemetry.hpp"

namespace metas::util {

/// One-way cooperative stop flag.  Set-once; never cleared.
class CancelToken {
 public:
  /// Async-signal-safe: a relaxed atomic store with no allocation or locks.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Wall-clock budget for a run.  Disarmed by default (expired() is a plain
/// bool test, no clock read); armed via after_ms().
class DeadlineBudget {
 public:
  DeadlineBudget() = default;

  /// Budget of `ms` milliseconds starting now, measured on `clock`.  A
  /// budget past the end of the clock's range never expires.
  static DeadlineBudget after_ms(
      std::uint64_t ms, telemetry::ClockFn clock = &telemetry::steady_now_ns) {
    constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
    DeadlineBudget b;
    b.clock_ = clock;
    b.start_ns_ = clock();
    b.deadline_ns_ = ms > (kNever - b.start_ns_) / 1'000'000ULL
                         ? kNever
                         : b.start_ns_ + ms * 1'000'000ULL;
    b.armed_ = true;
    return b;
  }

  bool armed() const noexcept { return armed_; }

  bool expired() const noexcept {
    return armed_ && clock_() >= deadline_ns_;
  }

  /// Milliseconds elapsed since arming (0 when disarmed).
  std::uint64_t consumed_ms() const noexcept {
    if (!armed_) return 0;
    return (clock_() - start_ns_) / 1'000'000ULL;
  }

 private:
  telemetry::ClockFn clock_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t deadline_ns_ = 0;
  bool armed_ = false;
};

/// Shared stop-control handed down the phase stack.  Both members are
/// optional; the default RunControl never requests a stop.
struct RunControl {
  const CancelToken* token = nullptr;  // lint: allow(view-member) -- non-owning; the CLI-owned token outlives every phase it is polled from
  DeadlineBudget budget;

  /// Polled by phases at work-unit boundaries.
  bool stop_requested() const noexcept {
    return (token != nullptr && token->cancelled()) || budget.expired();
  }
};

}  // namespace metas::util
