// R20 (unguarded-mutex) fixture for tests/lint_selftest.py.  Never compiled;
// the linter treats it as if it lived under src/ (--pretend-dir src).
// Lines tagged `// expect-lint: <rule>` must be flagged; untagged lines
// must not.
//
// A Mutex that no MAC_GUARDED_BY / MAC_REQUIRES in its file names guards
// nothing -Wthread-safety can check: it is dead weight, or the state it
// was meant to protect is unannotated.
#include <memory>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace fixture {

class Hits {
  metas::util::Mutex idle_;       // expect-lint: unguarded-mutex
  mutable util::Mutex stats_mu_;  // expect-lint: unguarded-mutex
  Mutex lonely_;                  // expect-lint: unguarded-mutex
  int count_ = 0;
};

class Misses {
  mutable Mutex mu_;
  int hits_ MAC_GUARDED_BY(mu_) = 0;

  Mutex table_mu_;
  std::unique_ptr<int> table_ MAC_PT_GUARDED_BY(table_mu_);

  Mutex flush_mu_;
  void flush() MAC_REQUIRES(flush_mu_);

  Mutex io_mu_;
  void write() MAC_EXCLUDES(io_mu_);
};

// A commented-out annotation does not count: MAC_GUARDED_BY(ghost_)
class CommentedOut {
  Mutex ghost_;  // expect-lint: unguarded-mutex
};

class OptedOut {
  Mutex handoff_;  // lint: allow(unguarded-mutex) -- locked by the caller across frames, see the class comment
  // A bare allow() on a justification-required rule is itself a finding.
  Mutex bare_;  // lint: allow(unguarded-mutex)  // expect-lint: unguarded-mutex
};

}  // namespace fixture
