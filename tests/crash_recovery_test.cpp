// Crash-injection suite (DESIGN.md §12): runs the real metascritic_cli
// binary, kills it with SIGKILL at seeded checkpoint boundaries via the
// --crash-after-checkpoints hook, resumes from the snapshot, and asserts the
// exported CSVs are byte-identical to an uninterrupted run with the same
// flags.  Also covers fingerprint rejection, corrupted-checkpoint fallback,
// and checkpoints whose envelope is valid but whose payload is not, through
// the CLI surface.
//
// The CLI path is injected by CMake as METAS_CLI_PATH (see
// tests/CMakeLists.txt); every child runs via fork/exec with stdout/stderr
// captured to a log inside the per-test scratch directory.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/checkpoint.hpp"

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;       // -1 when killed by a signal
  int term_signal = 0;      // non-zero when killed
  std::string log;
};

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("crash_recovery_" + std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// fork/execs the CLI with `args`; blocks until exit.
  RunResult run_cli(const std::vector<std::string>& args) {
    const std::string log_path = path("cli.log");
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: route stdout+stderr to the log, exec the CLI.
      ::freopen(log_path.c_str(), "a", stdout);
      ::freopen(log_path.c_str(), "a", stderr);
      std::vector<char*> argv;
      std::string exe = METAS_CLI_PATH;
      argv.push_back(exe.data());
      std::vector<std::string> copy = args;
      for (std::string& a : copy) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      std::_Exit(127);  // exec failed
    }
    RunResult r;
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) r.term_signal = WTERMSIG(status);
    std::ifstream in(log_path);
    r.log.assign(std::istreambuf_iterator<char>(in), {});
    return r;
  }

  static std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  /// Asserts every CSV under `ref` exists under `got` with identical bytes.
  void expect_identical_exports(const std::string& ref,
                                const std::string& got) {
    std::size_t compared = 0;
    for (const auto& entry : fs::directory_iterator(ref)) {
      if (entry.path().extension() != ".csv") continue;
      const fs::path other = fs::path(got) / entry.path().filename();
      ASSERT_TRUE(fs::exists(other)) << other;
      EXPECT_EQ(read_file(entry.path()), read_file(other))
          << "export differs: " << entry.path().filename();
      ++compared;
    }
    EXPECT_GT(compared, 0u) << "no CSVs under " << ref;
  }

  std::vector<std::string> base_args(const std::string& out) {
    return {"--seed", "42", "--out", path(out), "--quiet"};
  }

  /// Asserts tools/trace_diff.py (stats mode) accepts the trace dump.
  /// Skips silently when no python3 is on PATH -- the JSON-shape checks in
  /// the caller still ran.
  void expect_trace_diff_loads(const std::string& dump) {
    if (std::system("python3 --version > /dev/null 2>&1") != 0) return;
    const std::string cmd = "python3 " + std::string(METAS_TRACE_DIFF) +
                            " '" + dump + "' > /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0)
        << "trace_diff.py rejected " << dump;
  }

  /// Crashes a seed-42 --all-metros run at checkpoint #3 (mid first metro,
  /// so the payload ends in a phase blob), lets `patch` edit the newest
  /// payload, re-publishes it under a valid checksum, and resumes.
  template <class Patch>
  RunResult resume_patched(Patch&& patch) {
    auto crash_args = base_args("out");
    crash_args.insert(crash_args.end(),
                      {"--all-metros", "--checkpoint", path("ck/snap"),
                       "--crash-after-checkpoints", "3"});
    EXPECT_EQ(run_cli(crash_args).term_signal, SIGKILL);
    auto payload = metas::util::checkpoint::load_file(path("ck/snap"));
    if (!payload) {
      ADD_FAILURE() << "no checkpoint to patch";
      return {};
    }
    patch(*payload);
    EXPECT_TRUE(metas::util::checkpoint::write_file(path("ck/snap"), *payload));
    auto resume_args = base_args("out");
    resume_args.insert(resume_args.end(),
                       {"--all-metros", "--resume", path("ck/snap")});
    return run_cli(resume_args);
  }

  static std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);  // checkpoints are little-endian, host-local
    return v;
  }
  static void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
    std::memcpy(bytes.data() + at, &v, sizeof v);
  }

  /// Offset of the phase blob: the payload's trailing string, after the
  /// has-phase flag and the u64 length.  Its rank-loop RNG state string
  /// starts 17 bytes in (next rank, best MSE, patience count, finished).
  static std::size_t phase_blob_at(const std::string& payload) {
    for (std::size_t len = 1; len + 9 <= payload.size(); ++len) {
      const std::size_t at = payload.size() - len;
      if (get_u64(payload, at - 8) == len && payload[at - 9] == 1) return at;
    }
    return 0;
  }

  fs::path dir_;
};

TEST_F(CrashRecoveryTest, UninterruptedRunSucceeds) {
  const RunResult r = run_cli(base_args("ref"));
  EXPECT_EQ(r.exit_code, 0) << r.log;
  EXPECT_TRUE(fs::exists(path("ref") + "/Amsterdam_links.csv")) << r.log;
}

TEST_F(CrashRecoveryTest, KillAtCheckpointBoundaryThenResumeIsByteIdentical) {
  ASSERT_EQ(run_cli(base_args("ref")).exit_code, 0);

  // Kill the run via SIGKILL right after checkpoint #2 lands on disk.
  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "2"});
  const RunResult crashed = run_cli(crash_args);
  EXPECT_EQ(crashed.term_signal, SIGKILL) << crashed.log;
  ASSERT_TRUE(fs::exists(path("ck/snap")));

  auto resume_args = base_args("out");
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap")});
  const RunResult resumed = run_cli(resume_args);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.log;
  expect_identical_exports(path("ref"), path("out"));
}

TEST_F(CrashRecoveryTest, KillAtLaterBoundaryAlsoResumesByteIdentical) {
  ASSERT_EQ(run_cli(base_args("ref")).exit_code, 0);

  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "4"});
  const RunResult crashed = run_cli(crash_args);
  EXPECT_EQ(crashed.term_signal, SIGKILL) << crashed.log;

  auto resume_args = base_args("out");
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap")});
  ASSERT_EQ(run_cli(resume_args).exit_code, 0);
  expect_identical_exports(path("ref"), path("out"));
}

TEST_F(CrashRecoveryTest, ResumeUnderFaultsIsByteIdentical) {
  // The hard case: the fault injector's per-VP Markov chains and token
  // buckets must restore draw-for-draw along with the measurement plane.
  std::vector<std::string> extra = {"--fault-profile", "flaky"};
  auto ref_args = base_args("ref");
  ref_args.insert(ref_args.end(), extra.begin(), extra.end());
  ASSERT_EQ(run_cli(ref_args).exit_code, 0);

  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(), extra.begin(), extra.end());
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "3"});
  const RunResult crashed = run_cli(crash_args);
  EXPECT_EQ(crashed.term_signal, SIGKILL) << crashed.log;

  auto resume_args = base_args("out");
  resume_args.insert(resume_args.end(), extra.begin(), extra.end());
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap")});
  ASSERT_EQ(run_cli(resume_args).exit_code, 0);
  expect_identical_exports(path("ref"), path("out"));
}

TEST_F(CrashRecoveryTest, MismatchedFingerprintIsRejected) {
  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "1"});
  ASSERT_EQ(run_cli(crash_args).term_signal, SIGKILL);

  // Same checkpoint, different seed: must refuse, not silently diverge.
  std::vector<std::string> resume_args = {"--seed", "43", "--out", path("out"),
                                          "--quiet", "--resume",
                                          path("ck/snap")};
  const RunResult r = run_cli(resume_args);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.log.find("different"), std::string::npos) << r.log;
}

TEST_F(CrashRecoveryTest, CorruptedNewestGenerationFallsBack) {
  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "3"});
  ASSERT_EQ(run_cli(crash_args).term_signal, SIGKILL);
  ASSERT_TRUE(fs::exists(path("ck/snap.1")));

  // Torn newest generation: resume must fall back to snap.1 and finish.
  {
    std::ifstream in(path("ck/snap"), std::ios::binary);
    std::string raw(std::istreambuf_iterator<char>(in), {});
    std::ofstream out(path("ck/snap"), std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() / 2));
  }
  auto resume_args = base_args("out");
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap")});
  const RunResult r = run_cli(resume_args);
  EXPECT_EQ(r.exit_code, 0) << r.log;

  ASSERT_EQ(run_cli(base_args("ref")).exit_code, 0);
  expect_identical_exports(path("ref"), path("out"));
}

TEST_F(CrashRecoveryTest, AllGenerationsCorruptIsACleanError) {
  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "1"});
  ASSERT_EQ(run_cli(crash_args).term_signal, SIGKILL);
  {
    std::ofstream out(path("ck/snap"), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  auto resume_args = base_args("out");
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap")});
  const RunResult r = run_cli(resume_args);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.log.find("no usable checkpoint"), std::string::npos) << r.log;
}

// Checkpoints that pass the envelope checksum but decode to impossible
// state: each must be refused with exit 1, never abort the CLI.
TEST_F(CrashRecoveryTest, ImpossibleMetroCountIsACleanError) {
  const RunResult r = resume_patched([](std::string& payload) {
    // The completed-metro count follows the 103-byte fingerprint.
    ASSERT_EQ(get_u64(payload, 103), 0u);
    put_u64(payload, 103, std::uint64_t{1} << 60);
  });
  EXPECT_EQ(r.exit_code, 1) << r.log;
  EXPECT_NE(r.log.find("corrupt checkpoint payload"), std::string::npos)
      << r.log;
}

TEST_F(CrashRecoveryTest, UnparseableRankRngStateIsACleanError) {
  const RunResult r = resume_patched([](std::string& payload) {
    const std::size_t rng_text = phase_blob_at(payload) + 17 + 8;
    ASSERT_GT(rng_text, 25u);
    ASSERT_TRUE(payload[rng_text] >= '0' && payload[rng_text] <= '9');
    payload[rng_text] = 'x';
  });
  EXPECT_EQ(r.exit_code, 1) << r.log;
  EXPECT_NE(r.log.find("corrupt checkpoint payload"), std::string::npos)
      << r.log;
}

TEST_F(CrashRecoveryTest, OverlongPhaseStringIsACleanError) {
  const RunResult r = resume_patched([](std::string& payload) {
    const std::size_t blob = phase_blob_at(payload);
    ASSERT_GT(blob, 0u);
    put_u64(payload, blob + 17, payload.size() - blob);  // past the blob end
  });
  EXPECT_EQ(r.exit_code, 1) << r.log;
  EXPECT_NE(r.log.find("corrupt checkpoint payload"), std::string::npos)
      << r.log;
}

TEST_F(CrashRecoveryTest, SigkillWithTracingLeavesFlightDump) {
  // Flight recorder (DESIGN.md §13): the ring is dumped to
  // <checkpoint>.trace.json right after each checkpoint lands and BEFORE
  // the crash-injection hook fires, so even a SIGKILLed run keeps the
  // timeline up to its last checkpoint.
  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--trace", path("final.trace.json"),
                     "--crash-after-checkpoints", "2"});
  const RunResult crashed = run_cli(crash_args);
  EXPECT_EQ(crashed.term_signal, SIGKILL) << crashed.log;
  const std::string dump = path("ck/snap") + ".trace.json";
  ASSERT_TRUE(fs::exists(dump)) << crashed.log;
  const std::string json = read_file(dump);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos) << "no span "
      "events made it into the flight dump";
  // The dump must be a complete JSON document (atomic_write_file), never a
  // torn prefix, even though the process died by signal moments later.
  EXPECT_EQ(json.rfind("}\n"), json.size() - 2) << json.substr(
      json.size() > 80 ? json.size() - 80 : 0);
  expect_trace_diff_loads(dump);
}

TEST_F(CrashRecoveryTest, SigtermWithTracingLeavesLoadableFlightDump) {
  // Cooperative cancellation keeps the recorder's timeline too: the
  // stopped-early path refreshes <checkpoint>.trace.json before exporting
  // best-so-far results, and tools/trace_diff.py must accept the dump
  // (open spans and all).
  const std::string log_path = path("cli.log");
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::freopen(log_path.c_str(), "a", stdout);
    ::freopen(log_path.c_str(), "a", stderr);
    std::string exe = METAS_CLI_PATH;
    std::string out = path("out");
    std::string snap = path("ck/snap");
    std::string trace = path("final.trace.json");
    char* argv[] = {exe.data(), const_cast<char*>("--seed"),
                    const_cast<char*>("42"), const_cast<char*>("--out"),
                    out.data(), const_cast<char*>("--checkpoint"),
                    snap.data(), const_cast<char*>("--trace"),
                    trace.data(), nullptr};
    ::execv(exe.c_str(), argv);
    std::_Exit(127);
  }
  ::usleep(300 * 1000);
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // Whether the signal landed mid-run (flight dump refreshed on the
  // stopped-early path) or the run won the race, the final --trace file is
  // always written on the way out and must load.
  ASSERT_TRUE(fs::exists(path("final.trace.json")));
  expect_trace_diff_loads(path("final.trace.json"));
  std::ifstream in(log_path);
  const std::string log{std::istreambuf_iterator<char>(in), {}};
  if (log.find("stopped early") != std::string::npos) {
    const std::string dump = path("ck/snap") + ".trace.json";
    ASSERT_TRUE(fs::exists(dump)) << log;
    expect_trace_diff_loads(dump);
  }
}

TEST_F(CrashRecoveryTest, SigtermStopsGracefullyWithResumableCheckpoint) {
  // Cooperative shutdown: SIGTERM (not SIGKILL) lets the run finish its
  // work unit, checkpoint, and exit 0 with a degradation report.
  const std::string log_path = path("cli.log");
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::freopen(log_path.c_str(), "a", stdout);
    ::freopen(log_path.c_str(), "a", stderr);
    std::string exe = METAS_CLI_PATH;
    std::string out = path("out");
    std::string snap = path("ck/snap");
    char* argv[] = {exe.data(), const_cast<char*>("--seed"),
                    const_cast<char*>("42"), const_cast<char*>("--out"),
                    out.data(), const_cast<char*>("--checkpoint"),
                    snap.data(), nullptr};
    ::execv(exe.c_str(), argv);
    std::_Exit(127);
  }
  // Give the child a moment to get into the measurement loop, then SIGTERM.
  ::usleep(300 * 1000);
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream in(log_path);
  const std::string log{std::istreambuf_iterator<char>(in), {}};
  // Either the run finished before the signal landed (fast machine) or it
  // reports the cooperative stop; both are legal, but a crash is not.
  if (log.find("stopped early") != std::string::npos) {
    EXPECT_NE(log.find("cancelled by signal"), std::string::npos) << log;
    EXPECT_NE(log.find("resume with:"), std::string::npos) << log;
  }
}

}  // namespace
