// Crash-injection suite (DESIGN.md §12): runs the real metascritic_cli
// binary, kills it with SIGKILL at seeded checkpoint boundaries via the
// --crash-after-checkpoints hook, resumes from the snapshot, and asserts the
// exported CSVs are byte-identical to an uninterrupted run with the same
// flags.  Also covers what needs a real process: exit codes, fingerprint
// rejection, corrupted-checkpoint fallback, a corrupt payload reported as
// such, a kept older generation refused as a checkpoint path, the SIGKILL
// flight dump, and SIGTERM / --deadline-ms stops that
// land mid-run and resume byte-identically, and malformed numeric flags
// refused before anything runs (CliFlagsTest).  Payload decoding and stops
// at exact polls are driven in process by campaign_test.cpp.
//
// The CLI path is injected by CMake as METAS_CLI_PATH (see
// tests/CMakeLists.txt); every child runs via fork/exec with stdout/stderr
// captured to a log inside the per-test scratch directory.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
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

  /// fork/execs the CLI with `args`, its stdout and stderr going to a
  /// fresh log; returns the child's pid.
  pid_t spawn_cli(const std::vector<std::string>& args) {
    const std::string log_path = path("cli.log");
    fs::remove(log_path);
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
    return pid;
  }

  /// Blocks until the child `pid` exits.
  RunResult wait_cli(pid_t pid) {
    RunResult r;
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) r.term_signal = WTERMSIG(status);
    std::ifstream in(path("cli.log"));
    r.log.assign(std::istreambuf_iterator<char>(in), {});
    return r;
  }

  RunResult run_cli(const std::vector<std::string>& args) {
    return wait_cli(spawn_cli(args));
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
      EXPECT_TRUE(read_file(entry.path()) == read_file(other))
          << "export differs: " << entry.path().filename();
      ++compared;
    }
    EXPECT_GT(compared, 0u) << "no CSVs under " << ref;
  }

  std::vector<std::string> base_args(const std::string& out) {
    return {"--seed", "42", "--out", path(out), "--quiet"};
  }

  /// A seed-42 small all-metros run exporting to `out`, checkpointing to
  /// ck/snap when `checkpoint` is set.
  std::vector<std::string> campaign_args(const std::string& out,
                                         bool checkpoint = true) {
    auto args = base_args(out);
    args.push_back("--all-metros");
    if (checkpoint) args.insert(args.end(), {"--checkpoint", path("ck/snap")});
    return args;
  }

  /// Spawns `args`, SIGTERMs it once its first checkpoint generation
  /// exists -- mid-run, with the other metros still to go -- and waits.
  RunResult sigterm_after_first_checkpoint(
      const std::vector<std::string>& args) {
    const pid_t pid = spawn_cli(args);
    int status = 0;
    pid_t ended = 0;
    while (!fs::exists(path("ck/snap")) &&
           (ended = ::waitpid(pid, &status, WNOHANG)) == 0)
      ::usleep(1000);
    if (ended == pid) {
      ADD_FAILURE() << "run ended before its first checkpoint";
      return {};
    }
    ::kill(pid, SIGTERM);
    return wait_cli(pid);
  }

  /// Resumes the campaign from ck/snap into `out` and asserts its exports
  /// equal the uninterrupted run's under `ref`.
  void expect_resume_matches(const std::string& ref) {
    auto args = campaign_args("out", false);
    args.insert(args.end(), {"--resume", path("ck/snap")});
    const RunResult resumed = run_cli(args);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.log;
    expect_identical_exports(path(ref), path("out"));
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

// --resume P alone checkpoints back to P.  When P is an older generation
// kept beside a newer one (ck/snap.2 beside ck/snap), that run would
// overwrite it and rotate a second chain beside the first, so the CLI
// refuses before it touches a file; with --checkpoint elsewhere it resumes.
TEST_F(CrashRecoveryTest, ResumeFromAKeptGenerationLeavesItIntact) {
  ASSERT_EQ(run_cli(base_args("ref")).exit_code, 0);
  auto crash_args = base_args("out");
  crash_args.insert(crash_args.end(),
                    {"--checkpoint", path("ck/snap"),
                     "--crash-after-checkpoints", "3"});
  ASSERT_EQ(run_cli(crash_args).term_signal, SIGKILL);
  ASSERT_TRUE(fs::exists(path("ck/snap.2")));
  const std::string kept = read_file(path("ck/snap.2"));

  auto resume_args = base_args("again");
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap.2")});
  const RunResult refused = run_cli(resume_args);
  EXPECT_EQ(refused.exit_code, 1) << refused.log;
  EXPECT_NE(refused.log.find("error:"), std::string::npos) << refused.log;
  EXPECT_NE(refused.log.find("--checkpoint"), std::string::npos)
      << refused.log;
  EXPECT_EQ(read_file(path("ck/snap.2")), kept);
  EXPECT_FALSE(fs::exists(path("ck/snap.2.1")));
  EXPECT_FALSE(fs::exists(path("again")));

  resume_args.insert(resume_args.end(), {"--checkpoint", path("ck/again")});
  const RunResult resumed = run_cli(resume_args);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.log;
  expect_identical_exports(path("ref"), path("again"));
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

// A checkpoint that passes the envelope checksum but whose payload does
// not decode must be refused with exit 1, never abort the CLI.  The
// in-process cases in campaign_test.cpp patch individual fields.
TEST_F(CrashRecoveryTest, TruncatedPayloadIsACleanError) {
  // Crash at checkpoint #3, mid first metro, and re-publish the newest
  // payload cut in half.
  auto crash_args = campaign_args("out");
  crash_args.insert(crash_args.end(), {"--crash-after-checkpoints", "3"});
  ASSERT_EQ(run_cli(crash_args).term_signal, SIGKILL);
  auto payload = metas::util::checkpoint::load_file(path("ck/snap"));
  ASSERT_TRUE(payload.has_value());
  payload->resize(payload->size() / 2);
  ASSERT_TRUE(metas::util::checkpoint::write_file(path("ck/snap"), *payload));
  auto resume_args = campaign_args("out", false);
  resume_args.insert(resume_args.end(), {"--resume", path("ck/snap")});
  const RunResult r = run_cli(resume_args);
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
  ASSERT_EQ(run_cli(campaign_args("ref", false)).exit_code, 0);
  auto args = campaign_args("out");
  args.insert(args.end(), {"--trace", path("final.trace.json")});
  const RunResult stopped = sigterm_after_first_checkpoint(args);
  EXPECT_EQ(stopped.exit_code, 0) << stopped.log;
  EXPECT_NE(stopped.log.find("stopped early"), std::string::npos)
      << stopped.log;
  EXPECT_NE(stopped.log.find("cancelled by signal"), std::string::npos)
      << stopped.log;
  // The final --trace file is always written on the way out.
  ASSERT_TRUE(fs::exists(path("final.trace.json")));
  expect_trace_diff_loads(path("final.trace.json"));
  const std::string dump = path("ck/snap") + ".trace.json";
  ASSERT_TRUE(fs::exists(dump)) << stopped.log;
  expect_trace_diff_loads(dump);
  expect_resume_matches("ref");
}

TEST_F(CrashRecoveryTest, SigtermStopsGracefullyWithResumableCheckpoint) {
  // Cooperative shutdown: SIGTERM (not SIGKILL) lets the run finish its
  // work unit and exit 0 with a degradation report and a resume hint, and
  // the resumed run's exports match an uninterrupted run's.
  ASSERT_EQ(run_cli(campaign_args("ref", false)).exit_code, 0);
  const RunResult stopped =
      sigterm_after_first_checkpoint(campaign_args("out"));
  EXPECT_EQ(stopped.exit_code, 0) << stopped.log;
  EXPECT_NE(stopped.log.find("stopped early"), std::string::npos)
      << stopped.log;
  EXPECT_NE(stopped.log.find("cancelled by signal"), std::string::npos)
      << stopped.log;
  EXPECT_NE(stopped.log.find("resume with: --resume " + path("ck/snap")),
            std::string::npos)
      << stopped.log;
  expect_resume_matches("ref");
}

TEST_F(CrashRecoveryTest, DeadlineStopsGracefullyWithResumableCheckpoint) {
  // A deadline that expires during the world build stops the run before
  // its first checkpoint: there is nothing to resume, so no hint.
  auto early = campaign_args("out");
  early.insert(early.end(), {"--deadline-ms", "1"});
  const RunResult none = run_cli(early);
  EXPECT_EQ(none.exit_code, 0) << none.log;
  EXPECT_NE(none.log.find("stopped early (deadline expired)"),
            std::string::npos)
      << none.log;
  EXPECT_EQ(none.log.find("resume with:"), std::string::npos) << none.log;
  EXPECT_FALSE(fs::exists(path("ck/snap")));

  // Double the deadline until it lands after the first checkpoint; it
  // must land before the run ends, and the stopped run must resume to the
  // uninterrupted run's exports.
  ASSERT_EQ(run_cli(campaign_args("ref", false)).exit_code, 0);
  for (int ms = 50;; ms *= 2) {
    SCOPED_TRACE("--deadline-ms " + std::to_string(ms));
    fs::remove_all(path("out"));
    auto args = campaign_args("out");
    args.insert(args.end(), {"--deadline-ms", std::to_string(ms)});
    const RunResult stopped = run_cli(args);
    ASSERT_EQ(stopped.exit_code, 0) << stopped.log;
    ASSERT_NE(stopped.log.find("stopped early (deadline expired)"),
              std::string::npos)
        << stopped.log;
    if (stopped.log.find("resume with: --resume " + path("ck/snap")) !=
        std::string::npos)
      break;
    EXPECT_FALSE(fs::exists(path("ck/snap")));
  }
  expect_resume_matches("ref");
}

// A numeric flag whose value is not one number in the flag's range is
// refused before anything runs: usage, exit 2, and no output directory.
// No case passes --trace, so no build allocates a trace ring.
class CliFlagsTest : public CrashRecoveryTest {};

TEST_F(CliFlagsTest, MalformedNumbersPrintUsageAndExitTwo) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--seed", "abc"},
      {"--seed", "-1"},
      {"--threshold", "0.3x"},
      {"--threshold", "nan"},
      {"--deadline-ms", "10abc"},
      {"--keep-checkpoints", "4294967297"},
      {"--trace-buffer-events", "-1"},
      {"--trace-buffer-events", "16777217"},  // 2^24 + 1
      {"--crash-after-checkpoints", "abc"},
  };
  for (const auto& [flag, value] : cases) {
    SCOPED_TRACE(flag + " " + value);
    const RunResult r = run_cli({"--out", path("out"), flag, value});
    EXPECT_EQ(r.exit_code, 2) << r.log;
    EXPECT_NE(r.log.find("usage: metascritic_cli"), std::string::npos)
        << r.log;
    EXPECT_FALSE(fs::exists(path("out")));
    fs::remove_all(path("out"));
  }
}

}  // namespace
