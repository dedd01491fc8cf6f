// R9 (raw-sync) fixture for tests/lint_selftest.py.  Never compiled; the
// linter treats it as if it lived under src/ (--pretend-dir src).  Lines
// tagged `// expect-lint: <rule>` must be flagged; untagged lines must not.
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "util/sync.hpp"

namespace fixture {

void hits() {
  std::mutex m;                         // expect-lint: raw-sync
  std::lock_guard<std::mutex> hold(m);  // expect-lint: raw-sync
  std::condition_variable cv;           // expect-lint: raw-sync
  std::thread worker;                   // expect-lint: raw-sync
  auto fut = std::async([] {});         // expect-lint: raw-sync
}

void misses(metas::util::Mutex& mu) {
  // The sanctioned annotated wrappers are exactly what R9 steers toward.
  metas::util::LockGuard hold(mu);
  // Identifiers merely containing primitive names are clean.
  int thread_count = 0;
  (void)thread_count;
}

void opted_out() {
  std::mutex legacy;  // lint: allow(raw-sync)
  (void)legacy;
}

}  // namespace fixture
