// Checkpointed pipeline state (DESIGN.md §12): every library type that a
// resumable run persists round-trips mid-run state byte for byte, a seeded
// corpus of corrupted payloads decodes to a clean load or CheckpointError
// and nothing else, a penalty, a scheduler entry or a metro id outside its
// range is refused, a key repeated in a list loads as one entry, and a
// phase blob from one metro is refused by another.
#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_shapes.hpp"
#include "eval/world.hpp"
#include "test_world.hpp"
#include "util/checkpoint.hpp"

namespace metas {
namespace {

namespace ck = util::checkpoint;
using testing::decode_shape;
using testing::FaultShape;
using testing::PhaseShape;
using testing::PlaneShape;
using testing::PriorsShape;
using testing::u64;

template <class T>
std::string encode(const T& x) {
  ck::Encoder enc;
  x.save(enc);
  return enc.take();
}

/// Loads `bytes` into `fresh` and saves it again.
template <class T>
std::string round_trip(const std::string& bytes, T& fresh) {
  ck::Decoder dec(bytes);
  fresh.load(dec);
  EXPECT_TRUE(dec.done()) << dec.remaining() << " bytes left over";
  return encode(fresh);
}

eval::WorldConfig flaky_world_config() {
  auto cfg = eval::small_world_config(77);
  cfg.public_archive_traces = 3000;
  // Every VP's fault chain carries a ~6 KB RNG state; fewer VPs keep the
  // corpus fast under the sanitizers.
  cfg.vps.coverage_scale = 0.5;
  cfg.faults = traceroute::FaultProfile::flaky();
  return cfg;
}

/// Mid-run state of a small world under flaky faults: the first focus
/// metro is captured at its first rank boundary where the fault chains,
/// the VP health map, the requeue queue and the link penalties are all
/// non-empty, and then cancelled.  The priors are taken after the metro
/// exported its counts into them.
struct Capture {
  Capture();

  eval::World world = eval::build_world(flaky_world_config());
  topology::MetroId metro = -1;
  core::StrategyPriors priors;
  std::string priors_bytes, plane, engine, faults, phase;
};

Capture::Capture() {
  eval::World& w = world;
  metro = w.focus_metros.at(0);
  const core::MetroContext ctx(w.net, metro);
  util::CancelToken stop;
  util::RunControl control;
  control.token = &stop;
  core::PipelineRunOptions po;
  po.control = &control;
  po.checkpoint = [&](const std::string& blob) {
    if (stop.cancelled()) return;
    const std::string ms_bytes = encode(*w.ms);
    const std::string fault_bytes = encode(*w.faults);
    const auto p = decode_shape<PlaneShape>(ms_bytes);
    const auto f = decode_shape<FaultShape>(fault_bytes);
    const auto ph = decode_shape<PhaseShape>(blob);
    if (std::get<5>(p).empty() || std::get<3>(f).empty() ||
        std::get<4>(f).empty() || std::get<9>(std::get<1>(ph)).empty() ||
        std::get<2>(std::get<2>(ph)).empty())
      return;
    plane = ms_bytes;
    engine = encode(*w.engine);
    faults = fault_bytes;
    phase = blob;
    stop.cancel();
  };
  core::MetascriticPipeline(ctx, *w.ms, &priors, {}).run(po);
  priors_bytes = encode(priors);
}

const Capture& capture() {
  static const Capture c;
  return c;
}

/// Fresh instances of every checkpointed library type, wired to the
/// captured world.  load() decodes the library state of a CLI checkpoint
/// in its order: priors, measurement plane, engine, fault injector, then
/// the phase blob.
struct FreshState {
  explicit FreshState(const Capture& c)
      : w(c.world),
        ms(w.net, *w.engine, w.vps, w.targets, 0),
        engine(w.net),
        faults(traceroute::FaultProfile::flaky()),
        ctx(w.net, c.metro),
        pm(ctx, ms, nullptr),
        sched(ctx, ms, pm, {}) {}

  void load(std::string_view payload) {
    ck::Decoder dec(payload);
    priors.load(dec);
    ms.load(dec);
    engine.load(dec);
    faults.load(dec);
    const std::string blob = dec.str();
    ck::Decoder phase(blob);
    phase(rank_search);
    sched.load(phase);
    pm.load(phase);
  }

  const eval::World& w;
  core::StrategyPriors priors;
  core::MeasurementSystem ms;
  traceroute::TracerouteEngine engine;
  traceroute::FaultInjector faults;
  core::MetroContext ctx;
  core::ProbabilityMatrix pm;
  core::MeasurementScheduler sched;
  core::RankSearch rank_search;
};

TEST(CheckpointStateTest, EveryTypeRoundTripsMidRunStateByteIdentically) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty())
      << "no rank boundary had every captured map non-empty";
  EXPECT_FALSE(std::get<5>(decode_shape<PlaneShape>(c.plane)).empty())
      << "VP health map";
  const auto f = decode_shape<FaultShape>(c.faults);
  EXPECT_FALSE(std::get<3>(f).empty()) << "fault injector VP chains";
  EXPECT_FALSE(std::get<4>(f).empty()) << "fault injector metro chains";
  const auto ph = decode_shape<PhaseShape>(c.phase);
  EXPECT_FALSE(std::get<9>(std::get<1>(ph)).empty()) << "requeue queue";
  EXPECT_FALSE(std::get<2>(std::get<2>(ph)).empty()) << "link penalties";
  EXPECT_GT(std::get<2>(decode_shape<PriorsShape>(c.priors_bytes)), 0)
      << "metros pooled into the priors";

  FreshState fresh(c);
  EXPECT_EQ(round_trip(c.priors_bytes, fresh.priors), c.priors_bytes);
  EXPECT_EQ(round_trip(c.plane, fresh.ms), c.plane);
  EXPECT_EQ(round_trip(c.engine, fresh.engine), c.engine);
  EXPECT_EQ(round_trip(c.faults, fresh.faults), c.faults);

  ck::Decoder dec(c.phase);
  dec(fresh.rank_search);
  fresh.sched.load(dec);
  fresh.pm.load(dec);
  EXPECT_TRUE(dec.done());
  ck::Encoder enc;
  enc(fresh.rank_search);
  fresh.sched.save(enc);
  fresh.pm.save(enc);
  EXPECT_EQ(enc.data(), c.phase);
}

// Bytes read from disk are untrusted input.  Past the envelope checksum,
// every corruption must surface as CheckpointError -- never as another
// exception, an abort, or a sanitizer report.
TEST(CheckpointStateTest, MutationCorpusLoadsCleanlyOrThrowsCheckpointError) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  ck::Encoder tail;
  tail.str(c.phase);
  const std::string payload =
      c.priors_bytes + c.plane + c.engine + c.faults + tail.data();

  FreshState fresh(c);
  ASSERT_NO_THROW(fresh.load(payload));

  int clean = 0, rejected = 0;
  auto decode = [&](const std::string& bytes, const std::string& what) {
    try {
      fresh.load(bytes);
      ++clean;
    } catch (const ck::CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };

  constexpr std::size_t kTruncations = 48;
  for (std::size_t k = 0; k < kTruncations; ++k) {
    const std::size_t len = payload.size() * k / kTruncations;
    const int before = rejected;
    decode(payload.substr(0, len), "truncated to " + std::to_string(len));
    EXPECT_EQ(rejected, before + 1) << "truncation to " << len << " loaded";
  }

  constexpr std::size_t kWords = 64;
  const std::size_t stride = (payload.size() / 8 / kWords) * 8;
  for (std::size_t at = 0; at + 8 <= payload.size(); at += stride) {
    for (u64 v : {u64{0}, u64{1} << 32, ~u64{0}}) {
      std::string bytes = payload;
      std::memcpy(bytes.data() + at, &v, sizeof v);
      decode(bytes, "word at " + std::to_string(at) + " = " +
                        std::to_string(v));
    }
  }

  util::Rng rng(4242);
  constexpr int kBitFlips = 128;
  for (int k = 0; k < kBitFlips; ++k) {
    const std::size_t bit = rng.index(payload.size() * 8);
    std::string bytes = payload;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    decode(bytes, "bit " + std::to_string(bit) + " flipped");
  }

  EXPECT_GT(clean, 0);
  EXPECT_GT(rejected, 0);
}

// The probability matrix rebuilds a per-entry penalty flag from every
// penalty key on load, so a key whose (near, far) entry lies outside the
// metro must be refused rather than index past the flag array.
TEST(CheckpointStateTest, PenaltyOutsideTheMetroIsRejected) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  auto ph = decode_shape<PhaseShape>(c.phase);
  const u64 n = core::MetroContext(c.world.net, c.metro).size();
  auto& penalties = std::get<2>(std::get<2>(ph));
  ASSERT_FALSE(penalties.empty());
  const auto first = std::min_element(
      penalties.begin(), penalties.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  const double factor = first->second;
  penalties.erase(first);
  penalties.emplace_back(n * n * traceroute::kNumStrategies, factor);
  ck::Encoder enc;
  enc(ph);

  FreshState fresh(c);
  ck::Decoder dec(enc.data());
  dec(fresh.rank_search);
  fresh.sched.load(dec);
  EXPECT_THROW(fresh.pm.load(dec), ck::CheckpointError);
}

// Scheduler entries name rows of the metro: the CSV export reads rows by
// history record, pick_greedy reads E_m at each greedy key, explored and
// attempted keys index the n x n entry flags, and a requeue failure count
// sizes a backoff shift.  Each must lie inside the metro.
TEST(CheckpointStateTest, SchedulerEntryOutsideTheMetroIsRejected) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  const auto clean = decode_shape<PhaseShape>(c.phase);
  const u64 n = core::MetroContext(c.world.net, c.metro).size();
  auto load_scheduler = [&](const PhaseShape& ph) {
    ck::Encoder enc;
    enc(ph);
    FreshState fresh(c);
    ck::Decoder dec(enc.data());
    dec(fresh.rank_search);
    fresh.sched.load(dec);
  };
  auto patched = [&](auto patch) {
    PhaseShape ph = clean;
    patch(std::get<1>(ph));
    return ph;
  };
  const int rows = static_cast<int>(n);
  for (int bad : {rows, -1}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(load_scheduler(patched([bad](auto& sched) {
                   std::get<0>(std::get<1>(sched).at(0)) = bad;
                 })),
                 ck::CheckpointError)
        << "history row i";
    EXPECT_THROW(load_scheduler(patched([bad](auto& sched) {
                   std::get<1>(std::get<1>(sched).at(0)) = bad;
                 })),
                 ck::CheckpointError)
        << "history row j";
  }
  // lo * n + hi must have lo < hi < n.
  for (u64 key : {n * n, n * n + 1, 1 * n + 0, 2 * n + 2}) {
    SCOPED_TRACE(key);
    EXPECT_THROW(load_scheduler(patched([key](auto& sched) {
                   std::get<5>(sched).emplace_back(0.5, key);
                 })),
                 ck::CheckpointError)
        << "greedy key";
    EXPECT_THROW(load_scheduler(patched([key](auto& sched) {
                   std::get<4>(sched).push_back(key);
                 })),
                 ck::CheckpointError)
        << "explored key";
    EXPECT_THROW(load_scheduler(patched([key](auto& sched) {
                   std::get<7>(sched).push_back(key);
                 })),
                 ck::CheckpointError)
        << "attempted key";
  }
  EXPECT_NO_THROW(load_scheduler(patched([n](auto& sched) {
    std::get<5>(sched).emplace_back(0.5, 0 * n + 1);
    std::get<4>(sched).push_back(0 * n + 1);
    std::get<7>(sched).push_back(0 * n + 1);
  })));
  EXPECT_THROW(load_scheduler(patched([](auto& sched) {
                 auto& requeued = std::get<9>(sched);
                 ASSERT_FALSE(requeued.empty());
                 std::min_element(requeued.begin(), requeued.end(),
                                  [](const auto& x, const auto& y) {
                                    return x.first < y.first;
                                  })
                     ->second.second = -1;
               })),
               ck::CheckpointError)
      << "negative requeue failure count";
  EXPECT_NO_THROW(load_scheduler(clean));
}

// The explored and attempted keys and the penalties were written from a
// set and a map.  A key repeated in their lists loads as the set or map
// would hold it: one flag, and the penalty's last factor.
TEST(CheckpointStateTest, RepeatedKeyLoadsAsOneEntry) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  const auto clean = decode_shape<PhaseShape>(c.phase);
  auto encoded = [](const PhaseShape& ph) {
    ck::Encoder enc;
    enc(ph);
    return enc.take();
  };
  auto resaved = [&](const PhaseShape& ph) {
    FreshState fresh(c);
    const std::string bytes = encoded(ph);
    ck::Decoder dec(bytes);
    dec(fresh.rank_search);
    fresh.sched.load(dec);
    fresh.pm.load(dec);
    EXPECT_TRUE(dec.done());
    ck::Encoder enc;
    enc(fresh.rank_search);
    fresh.sched.save(enc);
    fresh.pm.save(enc);
    return enc.take();
  };

  // `once` holds each key one time, in ascending order; `twice` lists
  // some of them again, out of order.
  PhaseShape once = clean;
  PhaseShape twice = clean;
  auto& explored = std::get<4>(std::get<1>(twice));
  ASSERT_FALSE(explored.empty());
  explored.push_back(explored.front());
  std::set<u64> attempted(std::get<7>(std::get<1>(clean)).begin(),
                          std::get<7>(std::get<1>(clean)).end());
  attempted.insert(1);  // entry (0, 1)
  std::get<7>(std::get<1>(once)).assign(attempted.begin(), attempted.end());
  std::get<7>(std::get<1>(twice)) = std::get<7>(std::get<1>(once));
  std::get<7>(std::get<1>(twice)).push_back(1);
  auto& penalties = std::get<2>(std::get<2>(once));
  ASSERT_FALSE(penalties.empty());
  penalties.front().second *= 0.5;
  std::get<2>(std::get<2>(twice)).push_back(penalties.front());

  EXPECT_EQ(resaved(twice), encoded(once));
  EXPECT_EQ(resaved(clean), c.phase);
}

// Evidence records name metros by id, and the next E_m rebuild or
// consistent-set pass hands those ids to Internet::metro_scope, an
// unchecked metros[] index.  A decoded id outside the world must be
// refused on load, and so must a pair's records out of metro order or
// naming one metro twice: ascending, distinct metros keep one record per
// (pair, metro).
TEST(CheckpointStateTest, MetroIdOutsideTheWorldIsRejected) {
  const Capture& c = capture();
  // Applies `patch` to the records of the smallest-keyed pair with at
  // least two of them.
  auto patched = [&](auto patch) {
    auto plane = decode_shape<PlaneShape>(c.plane);
    std::vector<testing::MetroRecord>* records = nullptr;
    u64 first = ~u64{0};
    for (auto& [key, list] : std::get<0>(plane)) {
      if (list.size() < 2 || key > first) continue;
      first = key;
      records = &list;
    }
    EXPECT_NE(records, nullptr) << "no pair has two metro records";
    if (records != nullptr) patch(*records);
    return plane;
  };
  auto load_plane = [&](const PlaneShape& plane) {
    ck::Encoder enc;
    enc(plane);
    FreshState fresh(c);
    ck::Decoder dec(enc.data());
    fresh.ms.load(dec);
  };
  for (int bad : {static_cast<int>(c.world.net.metros.size()), -1}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(load_plane(patched([bad](auto& records) {
                   std::get<0>(bad < 0 ? records.front() : records.back()) =
                       bad;
                 })),
                 ck::CheckpointError);
  }
  EXPECT_THROW(load_plane(patched([](auto& records) {
                 std::swap(records.front(), records.back());
               })),
               ck::CheckpointError)
      << "records out of metro order";
  EXPECT_THROW(load_plane(patched([](auto& records) {
                 std::get<0>(records[1]) = std::get<0>(records[0]);
               })),
               ck::CheckpointError)
      << "one metro recorded twice";
  EXPECT_NO_THROW(load_plane(decode_shape<PlaneShape>(c.plane)));
}

TEST(CheckpointStateTest, PhaseBlobFromAnotherMetroIsRejected) {
  eval::World& w = testing::shared_world();
  const core::MetroContext from(w.net, w.focus_metros.at(0));
  std::size_t other = 1;
  while (other < w.focus_metros.size() &&
         core::MetroContext(w.net, w.focus_metros[other]).size() ==
             from.size())
    ++other;
  ASSERT_LT(other, w.focus_metros.size()) << "focus metros all one size";
  const core::MetroContext to(w.net, w.focus_metros[other]);

  std::string blob;
  util::CancelToken stop;
  util::RunControl control;
  control.token = &stop;
  core::PipelineRunOptions po;
  po.control = &control;
  po.checkpoint = [&](const std::string& phase) {
    blob = phase;
    stop.cancel();
  };
  core::MetascriticPipeline(from, *w.ms, nullptr, {}).run(po);
  ASSERT_FALSE(blob.empty());

  core::PipelineRunOptions resume;
  resume.resume_blob = &blob;
  core::MetascriticPipeline pipeline(to, *w.ms, nullptr, {});
  EXPECT_THROW(pipeline.run(resume), ck::CheckpointError);
}

}  // namespace
}  // namespace metas
