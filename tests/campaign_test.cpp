// The campaign runner in process (DESIGN.md §12): a seed-42 small campaign
// stopped at an exact poll -- mid measurement campaign, at a rank-loop
// top, inside the final completion, at a metro boundary -- resumes from
// its newest checkpoint generation to exports byte-identical to an
// uninterrupted run, and a stop before the first generation leaves nothing
// to resume.  The resume path decodes untrusted bytes: a seeded corpus of
// corrupted payloads, and payloads patched through their field shapes
// (checkpoint_shapes.hpp), each resume or are refused with CampaignError,
// never abort.  Drills that need a real process death stay fork+exec in
// crash_recovery_test.cpp.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_shapes.hpp"
#include "eval/campaign.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace metas {
namespace {

namespace ck = util::checkpoint;
namespace fs = std::filesystem;
using testing::PlaneShape;
using testing::PriorsShape;
using testing::u64;

// The campaign's own fields of a format-4 payload.
using FingerprintShape =
    std::tuple<u64, std::string, bool, std::string, bool, double, double,
               double, double, double, double, double, double, u64>;
using SummaryShape = std::tuple<std::string, u64, int, u64, double, u64,
                                double, u64, u64, u64, u64, u64>;
using EngineShape = u64;  // probes issued
// A payload without faults that has a phase blob.
using PayloadShape =
    std::tuple<FingerprintShape, std::vector<SummaryShape>, PriorsShape, u64,
               PlaneShape, EngineShape, bool, bool, std::string>;
// A payload with faults that has a phase blob.
using FaultPayloadShape =
    std::tuple<FingerprintShape, std::vector<SummaryShape>, PriorsShape, u64,
               PlaneShape, EngineShape, bool, testing::FaultShape, bool,
               std::string>;
// The rank search leading a phase blob.
using RankSearchShape = std::tuple_element_t<0, testing::PhaseShape>;

// A deadline clock that advances 1 ms per read, so a budget of N ms
// expires at exactly the Nth stop poll after it is armed.
std::uint64_t g_clock_reads = 0;
std::uint64_t polling_clock() { return ++g_clock_reads * 1'000'000; }

class CampaignCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("campaign_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Seed-42 small all-metros campaign under `faults` exporting to
  /// `<dir>/<name>` and checkpointing to `<dir>/<name>.ck/snap`.
  eval::CampaignConfig config(const std::string& name,
                              const traceroute::FaultProfile& faults = {}) const {
    eval::CampaignConfig cfg;
    cfg.all_metros = true;
    cfg.faults = faults;
    cfg.out_dir = (dir_ / name).string();
    cfg.checkpoint_path = (dir_ / (name + ".ck") / "snap").string();
    return cfg;
  }

  static eval::CampaignConfig resuming(eval::CampaignConfig cfg) {
    cfg.resume_path = cfg.checkpoint_path;
    return cfg;
  }

  static std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  /// Asserts every CSV under `ref` exists under `got` with identical bytes.
  static void expect_identical_exports(const std::string& ref,
                                       const std::string& got) {
    std::size_t compared = 0;
    for (const auto& entry : fs::directory_iterator(ref)) {
      const fs::path other = fs::path(got) / entry.path().filename();
      ASSERT_TRUE(fs::exists(other)) << other;
      EXPECT_TRUE(read_file(entry.path()) == read_file(other))
          << "export differs: " << entry.path().filename();
      ++compared;
    }
    EXPECT_EQ(compared, 12u) << "4 metros x 3 CSVs under " << ref;
  }

  /// Runs `name`'s campaign until the first checkpoint written once
  /// `metros` metros have started, and returns that newest payload.  The
  /// checkpoint directory is then removed, so no older generation can
  /// stand in for a payload published later.
  std::string payload_in_metro(const std::string& name, int metros,
                               const traceroute::FaultProfile& faults = {}) {
    util::CancelToken stop;
    util::RunControl control;
    control.token = &stop;
    int started = 0;
    eval::CampaignHooks hooks;
    hooks.on_metro = [&](const std::string&) { ++started; };
    hooks.on_checkpoint = [&](int) {
      if (started == metros) stop.cancel();
    };
    const eval::CampaignConfig cfg = config(name, faults);
    eval::Campaign(cfg).run(&control, hooks);
    auto payload = ck::load_file(cfg.checkpoint_path);
    EXPECT_TRUE(payload.has_value());
    fs::remove_all(fs::path(cfg.checkpoint_path).parent_path());
    return payload.value_or(std::string());
  }

  /// Publishes `payload` under a valid checksum as the only generation.
  static void publish(const std::string& path, const std::string& payload) {
    fs::create_directories(fs::path(path).parent_path());
    ck::WriteOptions wo;
    wo.keep_last = 1;
    wo.fsync = false;
    ASSERT_TRUE(ck::write_file(path, payload, wo));
  }

  /// Publishes `payload` as the only generation a fresh campaign `name`
  /// resumes from, and asserts resume() alone refuses it as a corrupt
  /// payload, so no metro starts and no output or checkpoint directory
  /// appears.
  void expect_corrupt(const std::string& name, const std::string& payload,
                      const traceroute::FaultProfile& faults = {}) {
    eval::CampaignConfig cfg = config("resumed_" + name, faults);
    cfg.resume_path = (dir_ / (name + ".in") / "snap").string();
    publish(cfg.resume_path, payload);
    eval::Campaign campaign(cfg);
    try {
      campaign.resume();
      ADD_FAILURE() << "the patched payload resumed";
    } catch (const eval::CampaignError& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt checkpoint payload"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(fs::exists(cfg.out_dir));
    EXPECT_FALSE(fs::exists(fs::path(cfg.checkpoint_path).parent_path()));
  }

  /// Byte positions in a campaign payload without faults that has a phase
  /// blob, found by decoding it field by field.
  struct PayloadMap {
    std::size_t metro_count = 0;  // the completed-metro count
    std::size_t rank_rng = 0;     // the rank search's RNG state string
  };
  static PayloadMap map_payload(const std::string& payload) {
    PayloadMap at;
    ck::Decoder dec(payload);
    FingerprintShape fingerprint;
    dec(fingerprint);
    at.metro_count = payload.size() - dec.remaining();
    std::vector<SummaryShape> completed;
    PriorsShape priors;
    u64 next_metro = 0;
    PlaneShape plane;
    EngineShape engine;
    bool has_faults = true, has_phase = false;
    dec(completed, priors, next_metro, plane, engine, has_faults, has_phase);
    EXPECT_FALSE(has_faults);
    EXPECT_TRUE(has_phase);
    const std::string blob = dec.str();
    EXPECT_TRUE(dec.done()) << dec.remaining() << " bytes left over";
    // The rank search's RNG state leads the blob, which ends the payload.
    at.rank_rng = payload.size() - blob.size();
    return at;
  }

  /// `payload` with `patch` applied to its fields and its phase blob's.
  template <class Patch>
  static std::string patch_payload(const std::string& payload, Patch patch) {
    auto shape = testing::decode_shape<PayloadShape>(payload);
    EXPECT_FALSE(std::get<6>(shape)) << "fault injector present";
    EXPECT_TRUE(std::get<7>(shape)) << "no phase blob";
    auto phase = testing::decode_shape<testing::PhaseShape>(std::get<8>(shape));
    patch(shape, phase);
    ck::Encoder blob;
    blob(phase);
    std::get<8>(shape) = blob.take();
    ck::Encoder enc;
    enc(shape);
    return enc.take();
  }

  /// `payload` with `patch` applied to its phase blob's rank search.
  template <class Patch>
  static std::string patch_rank_search(const std::string& payload,
                                       Patch patch) {
    return patch_payload(payload, [&](PayloadShape&, testing::PhaseShape& ph) {
      patch(std::get<0>(ph));
    });
  }

  fs::path dir_;
};

TEST_F(CampaignCheckpointTest, StopAtAnyPollResumesByteIdentically) {
  // Reference: an uninterrupted run under an armed budget that never
  // expires, recording the poll count at every metro start and checkpoint.
  std::vector<std::uint64_t> starts, boundaries;
  std::vector<std::size_t> metro_of;
  {
    util::RunControl control;
    control.budget =
        util::DeadlineBudget::after_ms(1ULL << 40, &polling_clock);
    const std::uint64_t armed = g_clock_reads;
    eval::CampaignHooks hooks;
    hooks.on_metro = [&](const std::string&) {
      starts.push_back(g_clock_reads - armed);
    };
    hooks.on_checkpoint = [&](int) {
      boundaries.push_back(g_clock_reads - armed);
      metro_of.push_back(starts.size() - 1);
    };
    const eval::CampaignOutcome out =
        eval::Campaign(config("ref")).run(&control, hooks);
    ASSERT_FALSE(out.stopped_early);
    ASSERT_EQ(out.metros_done, 4u);
  }
  ASSERT_EQ(starts.size(), 4u);
  // Per metro: its first rank boundary, its last rank boundary and its
  // completion (the last generation it writes).
  std::vector<std::uint64_t> first(4), last_rank(4), done(4);
  for (std::size_t k = boundaries.size(); k-- > 0;) {
    const std::size_t m = metro_of[k];
    first[m] = boundaries[k];
    if (done[m] == 0) {
      done[m] = boundaries[k];
    } else if (last_rank[m] == 0) {
      last_rank[m] = boundaries[k];
    }
  }
  for (std::size_t m = 0; m < 4; ++m) {
    ASSERT_GT(last_rank[m], first[m]) << "metro " << m << " ran one rank";
    ASSERT_GT(done[m], last_rank[m] + 4) << "no final-completion sweeps";
  }

  struct Stop {
    const char* where;
    std::uint64_t poll;
    std::size_t metros_done;
  };
  const std::vector<Stop> stops = {
      {"rank-loop top after the first boundary", first[0] + 1, 0},
      {"first batch poll of a later rank", first[1] + 2, 1},
      {"batch mid-campaign", first[1] + 4, 1},
      {"check after the last rank's full campaign", last_rank[1] - 1, 1},
      {"first sweep of the final completion", last_rank[2] + 1, 2},
      {"mid final completion", (last_rank[2] + done[2]) / 2, 2},
      {"metro boundary after completion", done[2] + 1, 3},
      {"top of the next metro", done[2] + 2, 3},
      {"last metro's final completion", done[3] - 3, 3},
  };
  for (std::size_t k = 0; k < stops.size(); ++k) {
    const Stop& s = stops[k];
    SCOPED_TRACE(std::string(s.where) + " (poll " + std::to_string(s.poll) +
                 ")");
    const std::string name = "stop" + std::to_string(k);
    util::RunControl control;
    control.budget = util::DeadlineBudget::after_ms(s.poll, &polling_clock);
    const eval::CampaignOutcome out =
        eval::Campaign(config(name)).run(&control);
    EXPECT_TRUE(out.stopped_early);
    EXPECT_EQ(out.metros_done, s.metros_done);
    ASSERT_TRUE(out.resumable);

    eval::Campaign resumed(resuming(config(name)));
    EXPECT_EQ(resumed.resume().metros_done, s.metros_done);
    EXPECT_EQ(resumed.run().metros_done, 4u);
    expect_identical_exports(config("ref").out_dir, config(name).out_dir);
  }
}

TEST_F(CampaignCheckpointTest, StopBeforeTheFirstCheckpointIsNotResumable) {
  util::RunControl control;
  control.budget = util::DeadlineBudget::after_ms(1, &polling_clock);
  const eval::CampaignConfig cfg = config("early");
  const eval::CampaignOutcome out = eval::Campaign(cfg).run(&control);
  EXPECT_TRUE(out.stopped_early);
  EXPECT_EQ(out.checkpoints_written, 0);
  EXPECT_FALSE(out.resumable);
  EXPECT_FALSE(fs::exists(cfg.checkpoint_path));
}

// Bytes read from disk are untrusted input, the campaign's own prefix --
// fingerprint, completed-metro summaries, next metro -- included.  Past the
// envelope checksum every corruption must resume cleanly or be refused
// with CampaignError, never abort or throw anything else.
TEST_F(CampaignCheckpointTest, MutationCorpusResumesOrIsRefused) {
  const std::string payload = payload_in_metro("corpus", 2);
  ASSERT_FALSE(payload.empty());
  const eval::CampaignConfig cfg = resuming(config("corpus"));
  publish(cfg.checkpoint_path, payload);
  eval::Campaign campaign(cfg);
  ASSERT_EQ(campaign.resume().metros_done, 1u);

  int clean = 0, refused = 0;
  auto resume = [&](const std::string& bytes, const std::string& what) {
    publish(cfg.checkpoint_path, bytes);
    try {
      campaign.resume();
      ++clean;
    } catch (const eval::CampaignError&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };

  constexpr std::size_t kTruncations = 48;
  for (std::size_t k = 0; k < kTruncations; ++k) {
    const std::size_t len = payload.size() * k / kTruncations;
    const int before = refused;
    resume(payload.substr(0, len), "truncated to " + std::to_string(len));
    EXPECT_EQ(refused, before + 1) << "truncation to " << len << " resumed";
  }

  constexpr std::size_t kWords = 64;
  const std::size_t stride = (payload.size() / 8 / kWords) * 8;
  for (std::size_t at = 0; at + 8 <= payload.size(); at += stride) {
    for (u64 v : {u64{0}, u64{1} << 32, ~u64{0}}) {
      std::string bytes = payload;
      std::memcpy(bytes.data() + at, &v, sizeof v);
      resume(bytes, "word at " + std::to_string(at) + " = " +
                        std::to_string(v));
    }
  }

  util::Rng rng(4242);
  constexpr int kBitFlips = 128;
  for (int k = 0; k < kBitFlips; ++k) {
    const std::size_t bit = rng.index(payload.size() * 8);
    std::string bytes = payload;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    resume(bytes, "bit " + std::to_string(bit) + " flipped");
  }

  EXPECT_GT(clean, 0);
  EXPECT_GT(refused, 0);
}

// Payloads that pass the envelope checksum but decode to impossible state:
// each must be refused as a corrupt payload, not abort the run.
TEST_F(CampaignCheckpointTest, ImpossibleMetroCountIsRefused) {
  std::string payload = payload_in_metro("count", 2);
  const std::size_t at = map_payload(payload).metro_count;
  u64 count = 0;
  std::memcpy(&count, payload.data() + at, sizeof count);
  ASSERT_EQ(count, 1u);
  count = u64{1} << 60;
  std::memcpy(payload.data() + at, &count, sizeof count);
  expect_corrupt("count", payload);
}

// resume() decodes the phase blob as the next metro's pipeline would, and
// its error takes the same path.
TEST_F(CampaignCheckpointTest, UnparseableRankRngStateIsRefused) {
  std::string payload = payload_in_metro("rng", 2);
  const std::size_t text = map_payload(payload).rank_rng + sizeof(u64);
  ASSERT_LT(text, payload.size());
  ASSERT_TRUE(payload[text] >= '0' && payload[text] <= '9');
  payload[text] = 'x';
  expect_corrupt("rng", payload);
}

TEST_F(CampaignCheckpointTest, OverlongPhaseStringIsRefused) {
  std::string payload = payload_in_metro("overlong", 2);
  const std::size_t at = map_payload(payload).rank_rng;
  // A string length that runs past the end of the phase blob.
  const u64 len = payload.size() - at;
  std::memcpy(payload.data() + at, &len, sizeof len);
  expect_corrupt("overlong", payload);
}

// The pipeline replays the resumed search's (rank, MSE) history, fills
// rows to its next rank and fits the final completion at its best rank.
// A history no run writes must be refused before any of that: a rank out
// of order or past max_rank would reach ALS as an invalid rank or size
// its factor matrices, and an MSE that is NaN or negative steers the
// acceptance rule where no holdout can.
TEST_F(CampaignCheckpointTest, ImpossibleRankSearchIsRefused) {
  const std::string payload = payload_in_metro("rank", 2);
  ASSERT_EQ(patch_rank_search(payload, [](RankSearchShape&) {}), payload);
  const core::RankEstimatorConfig rc;
  struct Case {
    const char* what;
    std::function<void(RankSearchShape&)> patch;
  };
  // The history as (rank, MSE) pairs.
  auto history = [](RankSearchShape& s) -> auto& { return std::get<1>(s); };
  const std::vector<Case> cases = {
      {"rank out of order",
       [&](auto& s) {
         history(s).emplace_back(history(s).back().first + 2, 0.5);
       }},
      {"rank 0 first", [&](auto& s) { history(s).front().first = 0; }},
      {"rank past max_rank",
       [&](auto& s) {
         auto& h = history(s);
         h.clear();
         for (int r = 1; r <= rc.max_rank + 1; ++r)
           h.emplace_back(r, 1.0 / r);  // always improving: never finishes
       }},
      {"a pair after the search finished",
       [&](auto& s) {
         auto& h = history(s);
         h.clear();
         for (int r = 1; r <= rc.patience + 2; ++r) h.emplace_back(r, 0.5);
       }},
      {"NaN MSE",
       [&](auto& s) {
         history(s).back().second = std::numeric_limits<double>::quiet_NaN();
       }},
      {"negative MSE", [&](auto& s) { history(s).back().second = -0.25; }},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(cases[k].what);
    expect_corrupt("rank" + std::to_string(k),
                   patch_rank_search(payload, cases[k].patch));
  }
}

// A run's counts only grow from their priors: vp_score weighs candidate
// VPs by their statistics, a strike count sizes a backoff shift, the
// pooled priors set every strategy's success probability, and the
// degradation report and traceroute count sum the scheduler's history.
// The replay hands each record's strategy and estimate to P_m, which
// indexes its counts by the strategy and requires an estimate in [0, 1]
// and an entry off the diagonal.  A value no run reaches must be refused
// before any metro runs on it.
TEST_F(CampaignCheckpointTest, ImpossibleCountsAreRefused) {
  const std::string payload = payload_in_metro("counts", 2);
  ASSERT_EQ(patch_payload(payload, [](auto&, auto&) {}), payload);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    std::function<void(PayloadShape&, testing::PhaseShape&)> patch;
  };
  // The smallest-keyed VP statistics entry: (attempts, confirmed).
  auto vp_stats = [](PayloadShape& s) -> std::pair<int, int>& {
    auto& stats = std::get<4>(std::get<4>(s));
    EXPECT_FALSE(stats.empty());
    return std::min_element(stats.begin(), stats.end(),
                            [](const auto& x, const auto& y) {
                              return x.first < y.first;
                            })
        ->second;
  };
  auto priors = [](PayloadShape& s) -> PriorsShape& { return std::get<2>(s); };
  // The scheduler's first issued record.
  auto first_record = [](testing::PhaseShape& ph) -> testing::RecordShape& {
    auto& history = std::get<1>(std::get<1>(ph));
    EXPECT_FALSE(history.empty());
    return history.front();
  };
  const std::vector<Case> cases = {
      {"VP attempts -2", [&](auto& s, auto&) { vp_stats(s).first = -2; }},
      {"VP confirmed -1", [&](auto& s, auto&) { vp_stats(s).second = -1; }},
      {"VP confirmed past attempts",
       [&](auto& s, auto&) { vp_stats(s).second = vp_stats(s).first + 1; }},
      {"VP health strikes -1",
       [](auto& s, auto&) { std::get<5>(std::get<4>(s))[0] = {-1, 0}; }},
      {"priors alpha +inf",
       [&](auto& s, auto&) { std::get<0>(priors(s))[0] = inf; }},
      {"priors beta NaN",
       [&](auto& s, auto&) { std::get<1>(priors(s))[3] = nan; }},
      {"priors alpha -1",
       [&](auto& s, auto&) { std::get<0>(priors(s))[5] = -1.0; }},
      {"priors metros observed -1",
       [&](auto& s, auto&) { std::get<2>(priors(s)) = -1; }},
      {"history spent -1",
       [&](auto&, auto& ph) { std::get<12>(first_record(ph)) = -1; }},
      {"history faulted -1",
       [&](auto&, auto& ph) { std::get<11>(first_record(ph)) = -1; }},
      {"record strategy 144",
       [&](auto&, auto& ph) {
         std::get<3>(first_record(ph)) = traceroute::kNumStrategies;
       }},
      {"record strategy -2",
       [&](auto&, auto& ph) { std::get<3>(first_record(ph)) = -2; }},
      {"record estimate NaN",
       [&](auto&, auto& ph) { std::get<2>(first_record(ph)) = nan; }},
      {"record estimate 1.5",
       [&](auto&, auto& ph) { std::get<2>(first_record(ph)) = 1.5; }},
      {"record i = j",
       [&](auto&, auto& ph) {
         std::get<1>(first_record(ph)) = std::get<0>(first_record(ph));
       }},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(cases[k].what);
    expect_corrupt("counts" + std::to_string(k),
                   patch_payload(payload, cases[k].patch));
  }
}

// A fault chain advances to the probe clock and no further, and a token
// bucket holds between none and its capacity; execute() sets a retry tick
// at most kRequeueBackoffCap past the scheduler's clock.  A chain ahead of
// the clock fails advance_vp's contract (and in Release wraps its gap to
// about 2^64, killing the VP), a bucket outside its range throttles or
// overspends, and a farther retry tick holds its entry under backoff for
// the rest of the run.  Each must be refused before any metro runs.
TEST_F(CampaignCheckpointTest, ImpossibleFaultStateIsRefused) {
  const traceroute::FaultProfile flaky = traceroute::FaultProfile::flaky();
  const std::string payload = payload_in_metro("faults", 2, flaky);
  auto patched = [&](auto patch) {
    auto shape = testing::decode_shape<FaultPayloadShape>(payload);
    EXPECT_TRUE(std::get<6>(shape)) << "no fault injector";
    EXPECT_TRUE(std::get<8>(shape)) << "no phase blob";
    auto phase = testing::decode_shape<testing::PhaseShape>(std::get<9>(shape));
    patch(std::get<7>(shape), std::get<1>(phase));
    ck::Encoder blob;
    blob(phase);
    std::get<9>(shape) = blob.take();
    ck::Encoder enc;
    enc(shape);
    return enc.take();
  };
  ASSERT_EQ(patched([](auto&, auto&) {}), payload);
  // The smallest-keyed entry of a chain or queue map.
  auto first = [](auto& map) -> auto& {
    EXPECT_FALSE(map.empty());
    return std::min_element(map.begin(), map.end(),
                            [](const auto& x, const auto& y) {
                              return x.first < y.first;
                            })
        ->second;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    std::function<void(testing::FaultShape&,
                       std::tuple_element_t<1, testing::PhaseShape>&)>
        patch;
  };
  const std::vector<Case> cases = {
      {"VP chain two ticks past the clock",
       [&](auto& f, auto&) {
         std::get<1>(first(std::get<2>(f))) = std::get<0>(f) + 2;
       }},
      {"metro chain two ticks past the clock",
       [&](auto& f, auto&) {
         std::get<1>(first(std::get<3>(f))) = std::get<0>(f) + 2;
       }},
      {"tokens -1", [&](auto& f, auto&) { std::get<4>(first(std::get<2>(f))) = -1.0; }},
      {"tokens past capacity",
       [&](auto& f, auto&) {
         std::get<4>(first(std::get<2>(f))) = flaky.bucket_capacity + 1.0;
       }},
      {"tokens NaN", [&](auto& f, auto&) { std::get<4>(first(std::get<2>(f))) = nan; }},
      {"retry tick past the longest backoff",
       [&](auto&, auto& sched) {
         first(std::get<7>(sched)).first =
             std::get<6>(sched) +
             static_cast<u64>(core::kRequeueBackoffCap) + 1;
       }},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(cases[k].what);
    expect_corrupt("faults" + std::to_string(k), patched(cases[k].patch),
                   flaky);
  }
}

// A resume decodes every byte it is given.  Bytes past the last field of
// the phase blob, or of the whole payload, are nothing a run writes, so
// both are refused even under a valid checksum.
TEST_F(CampaignCheckpointTest, TrailingBytesAreRefused) {
  const traceroute::FaultProfile flaky = traceroute::FaultProfile::flaky();
  const std::string payload = payload_in_metro("trailing", 2, flaky);
  const std::string junk(64, 'x');
  auto shape = testing::decode_shape<FaultPayloadShape>(payload);
  ASSERT_TRUE(std::get<8>(shape)) << "no phase blob";
  std::get<9>(shape) += junk;
  ck::Encoder enc;
  enc(shape);
  expect_corrupt("phase", enc.take(), flaky);
  expect_corrupt("payload", payload + junk, flaky);
}

// run() writes a generation at a rank boundary of metro `next_metro`, or
// once `next_metro` metros are complete, so a next metro other than the
// completed count, or a phase blob with no metro left, is refused.
TEST_F(CampaignCheckpointTest, ImpossibleCampaignPositionIsRefused) {
  const std::string payload = payload_in_metro("position", 2);
  const auto shape = testing::decode_shape<PayloadShape>(payload);
  ASSERT_EQ(std::get<1>(shape).size(), 1u);
  ASSERT_EQ(std::get<3>(shape), 1u);
  auto patched = [&](std::size_t completed, u64 next) {
    auto s = shape;
    std::get<1>(s).resize(completed, std::get<1>(s).front());
    std::get<3>(s) = next;
    ck::Encoder enc;
    enc(s);
    return enc.take();
  };
  expect_corrupt("behind", patched(1, 0));
  expect_corrupt("ahead", patched(1, 2));
  expect_corrupt("past", patched(1, 4 + 3));
  expect_corrupt("done", patched(4, 4));
}

// A refused resume leaves nothing behind: the output and checkpoint
// directories are created only once the campaign runs.
TEST_F(CampaignCheckpointTest, RefusedResumeCreatesNoDirectory) {
  const eval::CampaignConfig cfg = resuming(config("refused"));
  eval::Campaign campaign(cfg);
  EXPECT_THROW(campaign.resume(), eval::CampaignError);
  EXPECT_FALSE(fs::exists(cfg.out_dir));
  EXPECT_FALSE(fs::exists(fs::path(cfg.checkpoint_path).parent_path()));
}

// A deadline past the end of the clock's range saturates instead of
// wrapping into the past, so the CLI's largest --deadline-ms never stops a
// run.
TEST(DeadlineBudgetTest, BudgetPastTheClockRangeNeverExpires) {
  const util::DeadlineBudget budget = util::DeadlineBudget::after_ms(
      std::numeric_limits<std::uint64_t>::max(), &polling_clock);
  EXPECT_FALSE(budget.expired());
}

// An explicit threshold is used as given, a negative one too: only an
// unset threshold means the tuned lambda.
TEST_F(CampaignCheckpointTest, ExplicitNegativeThresholdIsUsed) {
  eval::CampaignConfig cfg = config("threshold");
  cfg.all_metros = false;
  cfg.checkpoint_path.clear();
  cfg.threshold = -3.0;
  const eval::CampaignOutcome out = eval::Campaign(cfg).run();
  ASSERT_EQ(out.metros.size(), 1u);
  EXPECT_EQ(out.metros[0].lambda, -3.0);
}

}  // namespace
}  // namespace metas
