// Checkpointed pipeline state (DESIGN.md §12): every library type that a
// resumable run persists round-trips mid-run state byte for byte, a phase
// blob decodes into a scheduler, P_m and rank search equal to the live
// ones under every policy and fault setting, a seeded corpus of corrupted
// payloads decodes to a clean load or CheckpointError and nothing else, a
// record, a scheduler entry or a metro id outside its range is refused, a
// key repeated in a map's list loads as one entry, and a phase blob from
// one metro is refused by another.
#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_shapes.hpp"
#include "core/features.hpp"
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
using testing::RecordShape;
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

/// True when P_m learns a link penalty from the record: it had a strategy,
/// found nothing, and was no infrastructure failure.
bool penalizes(const RecordShape& r) {
  return std::get<3>(r) >= 0 && !std::get<5>(r) && !std::get<6>(r) &&
         !std::get<8>(r);
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
/// the VP health map and the requeue queue are non-empty and the history
/// holds a record P_m learns a link penalty from, and then cancelled.  The priors are taken after the metro
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
    const auto& history = std::get<1>(std::get<1>(ph));
    if (std::get<5>(p).empty() || std::get<2>(f).empty() ||
        std::get<3>(f).empty() || std::get<7>(std::get<1>(ph)).empty() ||
        std::none_of(history.begin(), history.end(), penalizes))
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

/// A fresh rank search, P_m and scheduler on `ctx`, as a resumed pipeline
/// builds them before it decodes a phase blob.
struct Phase {
  Phase(const core::MetroContext& ctx, core::MeasurementSystem& ms,
        const core::SchedulerConfig& cfg = {})
      : pm(ctx, ms, nullptr), sched(ctx, ms, pm, cfg) {}

  void decode(const std::string& blob,
              const core::RankEstimatorConfig& cfg = {}) {
    core::decode_phase(blob, cfg, search, sched);
  }
  std::string encode() const {
    ck::Encoder enc;
    enc(search, sched);
    return enc.take();
  }

  core::ProbabilityMatrix pm;
  core::MeasurementScheduler sched;
  core::RankSearch search;
};

/// Fresh instances of every checkpointed library type, wired to the
/// captured world.  load() decodes the library state of a CLI checkpoint
/// in its order: priors, measurement plane, engine, fault injector, then
/// the phase blob, into a fresh Phase.
struct FreshState {
  explicit FreshState(const Capture& c)
      : w(c.world),
        ms(w.net, *w.engine, w.vps, w.targets, 0),
        engine(w.net),
        faults(traceroute::FaultProfile::flaky()),
        ctx(w.net, c.metro) {}

  void load(std::string_view payload) {
    ck::Decoder dec(payload);
    priors.load(dec);
    ms.load(dec);
    engine.load(dec);
    faults.load(dec);
    Phase(ctx, ms).decode(dec.str());
  }

  /// Decodes `blob` into a fresh Phase; throws as decode_phase does.
  void decode_phase(const std::string& blob) { Phase(ctx, ms).decode(blob); }

  const eval::World& w;
  core::StrategyPriors priors;
  core::MeasurementSystem ms;
  traceroute::TracerouteEngine engine;
  traceroute::FaultInjector faults;
  core::MetroContext ctx;
};

/// `clean` with `patch` applied to its scheduler, encoded.
template <class Patch>
std::string patched_phase(const testing::PhaseShape& clean, Patch patch) {
  testing::PhaseShape ph = clean;
  patch(std::get<1>(ph));
  ck::Encoder enc;
  enc(ph);
  return enc.take();
}

TEST(CheckpointStateTest, EveryTypeRoundTripsMidRunStateByteIdentically) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty())
      << "no rank boundary had every captured map non-empty";
  EXPECT_FALSE(std::get<5>(decode_shape<PlaneShape>(c.plane)).empty())
      << "VP health map";
  const auto f = decode_shape<FaultShape>(c.faults);
  EXPECT_FALSE(std::get<2>(f).empty()) << "fault injector VP chains";
  EXPECT_FALSE(std::get<3>(f).empty()) << "fault injector metro chains";
  const auto ph = decode_shape<PhaseShape>(c.phase);
  EXPECT_FALSE(std::get<7>(std::get<1>(ph)).empty()) << "requeue queue";
  const auto& history = std::get<1>(std::get<1>(ph));
  EXPECT_TRUE(std::any_of(history.begin(), history.end(), penalizes))
      << "a record P_m learns a link penalty from";
  EXPECT_GT(std::get<2>(decode_shape<PriorsShape>(c.priors_bytes)), 0)
      << "metros pooled into the priors";

  FreshState fresh(c);
  EXPECT_EQ(round_trip(c.priors_bytes, fresh.priors), c.priors_bytes);
  EXPECT_EQ(round_trip(c.plane, fresh.ms), c.plane);
  EXPECT_EQ(round_trip(c.engine, fresh.engine), c.engine);
  EXPECT_EQ(round_trip(c.faults, fresh.faults), c.faults);

  Phase phase(fresh.ctx, fresh.ms);
  phase.decode(c.phase);
  EXPECT_EQ(phase.encode(), c.phase);
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

// The scheduler's load replays every record into P_m, whose penalty store
// is indexed by the record's ordered (near, far) entry.  A record P_m
// would penalize an entry outside the metro for -- or the diagonal entry
// no pick names -- must be refused before the replay indexes it.
TEST(CheckpointStateTest, PenaltyOutsideTheMetroIsRejected) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  const auto clean = decode_shape<PhaseShape>(c.phase);
  const auto& history = std::get<1>(std::get<1>(clean));
  const auto at = static_cast<std::size_t>(
      std::find_if(history.begin(), history.end(), penalizes) -
      history.begin());
  ASSERT_LT(at, history.size());
  const int n = static_cast<int>(core::MetroContext(c.world.net, c.metro).size());
  FreshState fresh(c);
  for (bool swapped : {false, true}) {
    SCOPED_TRACE(swapped ? "swapped" : "not swapped");
    auto patched = [&](auto patch) {
      return patched_phase(clean, [&](auto& sched) {
        RecordShape& r = std::get<1>(sched).at(at);
        std::get<4>(r) = swapped;
        patch(r);
      });
    };
    EXPECT_THROW(fresh.decode_phase(patched([n](RecordShape& r) {
                   std::get<0>(r) = n;
                 })),
                 ck::CheckpointError)
        << "near row past the metro";
    EXPECT_THROW(fresh.decode_phase(patched([n](RecordShape& r) {
                   std::get<1>(r) = n;
                 })),
                 ck::CheckpointError)
        << "far row past the metro";
    EXPECT_THROW(fresh.decode_phase(patched([](RecordShape& r) {
                   std::get<1>(r) = std::get<0>(r);
                 })),
                 ck::CheckpointError)
        << "diagonal entry";
    EXPECT_NO_THROW(fresh.decode_phase(patched([](RecordShape&) {})));
  }
}

// Scheduler entries name rows of the metro: the CSV export and the replay
// read rows by history record, pick_greedy reads E_m at each greedy key,
// and a requeue failure count sizes a backoff shift.  Each must lie inside
// the metro.
TEST(CheckpointStateTest, SchedulerEntryOutsideTheMetroIsRejected) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  const auto clean = decode_shape<PhaseShape>(c.phase);
  const u64 n = core::MetroContext(c.world.net, c.metro).size();
  FreshState fresh(c);
  const int rows = static_cast<int>(n);
  for (int bad : {rows, -1}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(fresh.decode_phase(patched_phase(clean, [bad](auto& sched) {
                   std::get<0>(std::get<1>(sched).at(0)) = bad;
                 })),
                 ck::CheckpointError)
        << "history row i";
    EXPECT_THROW(fresh.decode_phase(patched_phase(clean, [bad](auto& sched) {
                   std::get<1>(std::get<1>(sched).at(0)) = bad;
                 })),
                 ck::CheckpointError)
        << "history row j";
  }
  // lo * n + hi must have lo < hi < n.
  for (u64 key : {n * n, n * n + 1, 1 * n + 0, 2 * n + 2}) {
    SCOPED_TRACE(key);
    EXPECT_THROW(fresh.decode_phase(patched_phase(clean, [key](auto& sched) {
                   std::get<4>(sched).emplace_back(0.5, key);
                 })),
                 ck::CheckpointError)
        << "greedy key";
  }
  EXPECT_NO_THROW(fresh.decode_phase(patched_phase(clean, [n](auto& sched) {
    std::get<4>(sched).emplace_back(0.5, 0 * n + 1);
  })));
  EXPECT_THROW(fresh.decode_phase(patched_phase(clean, [](auto& sched) {
                 auto& requeued = std::get<7>(sched);
                 ASSERT_FALSE(requeued.empty());
                 std::min_element(requeued.begin(), requeued.end(),
                                  [](const auto& x, const auto& y) {
                                    return x.first < y.first;
                                  })
                     ->second.second = -1;
               })),
               ck::CheckpointError)
      << "negative requeue failure count";
  EXPECT_NO_THROW(fresh.decode_phase(c.phase));
}

// The requeue queue was written from a map.  A key repeated in its list
// loads as the map would hold it: one entry, with the last value.
TEST(CheckpointStateTest, RepeatedKeyLoadsAsOneEntry) {
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  // The phase with the requeue queue spelled as the list it is written as.
  using Requeue = std::pair<u64, std::pair<u64, int>>;
  using SchedulerList = std::tuple<
      std::string, std::vector<RecordShape>, std::vector<int>,
      std::vector<bool>, std::vector<std::pair<double, u64>>, u64, u64,
      std::vector<Requeue>, std::tuple<int, u64, u64, u64, double, u64, u64>>;
  using PhaseList =
      std::tuple<std::tuple_element_t<0, PhaseShape>, SchedulerList>;
  const auto once = decode_shape<PhaseList>(c.phase);
  PhaseList twice = once;
  auto& requeued = std::get<7>(std::get<1>(twice));
  ASSERT_FALSE(requeued.empty());
  // The first entry again: before itself with another failure count, and
  // after the last entry with its own value.
  const Requeue first = requeued.front();
  Requeue stale = first;
  stale.second.second += 1;
  requeued.insert(requeued.begin(), stale);
  requeued.push_back(first);
  ck::Encoder enc;
  enc(twice);

  FreshState fresh(c);
  Phase phase(fresh.ctx, fresh.ms);
  phase.decode(enc.data());
  EXPECT_EQ(phase.encode(), c.phase);
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

/// The ordered pairs at which two P_m's choose differently, to the bit.
int choose_mismatches(const core::ProbabilityMatrix& a,
                      const core::ProbabilityMatrix& b, int n) {
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const core::StrategyChoice x = a.choose(i, j), y = b.choose(i, j);
      if (x.vp_cat != y.vp_cat || x.tgt_cat != y.tgt_cat ||
          x.swapped != y.swapped ||
          std::bit_cast<u64>(x.probability) != std::bit_cast<u64>(y.probability))
        ++mismatches;
    }
  }
  return mismatches;
}

/// P_m as §3.3.2 defines it from a history: a fresh matrix recording the
/// outcome of every pick that had a strategy, except the infrastructure
/// failures a resilient run requeued.
core::ProbabilityMatrix pm_from_history(
    const core::MetroContext& ctx, core::MeasurementSystem& ms,
    core::SelectionPolicy policy,
    const std::vector<core::IssuedRecord>& history) {
  core::ProbabilityMatrix pm(ctx, ms, nullptr);
  if (policy == core::SelectionPolicy::kIxpMapped) pm.restrict_to_ixp_mapped();
  for (const core::IssuedRecord& r : history) {
    if (r.strategy < 0 || (r.infra_failure && ms.resilience())) continue;
    const core::StrategyChoice c{r.strategy / traceroute::kTargetCategories,
                                 r.strategy % traceroute::kTargetCategories,
                                 r.swapped, r.estimated_prob};
    pm.record(r.i, r.j, c, r.found_existence || r.found_nonexistence);
  }
  return pm;
}

std::string history_bytes(const core::MeasurementScheduler& sched) {
  ck::Encoder enc;
  enc(sched.history());
  return enc.take();
}

void expect_same_search(const core::RankSearch& a, const core::RankSearch& b) {
  EXPECT_EQ(a.next_rank, b.next_rank);
  EXPECT_EQ(std::bit_cast<u64>(a.best), std::bit_cast<u64>(b.best));
  EXPECT_EQ(a.no_improve, b.no_improve);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.rng.save_state(), b.rng.save_state());
  EXPECT_EQ(a.result.best_rank, b.result.best_rank);
  EXPECT_EQ(std::bit_cast<u64>(a.result.best_mse),
            std::bit_cast<u64>(b.result.best_mse));
  EXPECT_EQ(a.result.history, b.result.history);
  EXPECT_EQ(a.result.truncated, b.result.truncated);
}

/// A small world under `faults` whose measurement plane has no probe
/// target in every fourth AS: an entry between two such stubs has no
/// usable strategy, so kRandom issues picks that measure nothing.
eval::World sparse_world(const traceroute::FaultProfile& faults,
                         bool resilience) {
  auto wc = eval::small_world_config(91);
  wc.public_archive_traces = 3000;
  wc.vps.coverage_scale = 0.5;
  wc.faults = faults;
  wc.resilience = resilience;
  eval::World w = eval::build_world(wc);
  std::erase_if(w.targets, [](const traceroute::ProbeTarget& t) {
    return t.as % 4 == 0;
  });
  w.ms = std::make_unique<core::MeasurementSystem>(w.net, *w.engine, w.vps,
                                                   w.targets, wc.seed + 1);
  w.ms->set_resilience(resilience);
  w.ms->run_public_archives(wc.public_archive_traces);
  return w;
}

// A resume rebuilds P_m, the rank search and the de-dup flags from the
// records and MSEs its phase blob keeps.  Under every policy, without
// faults and under flaky faults with resilience on and off, a phase
// decoded mid-run holds what the live run held: P_m choosing every entry
// to the bit (and as the records define it), the same pooled counts, the
// same rank search, and a next campaign that picks exactly as the live
// one does.
TEST(CheckpointStateTest, ReplayedPhaseMatchesTheLiveRun) {
  struct Setting {
    const char* name;
    traceroute::FaultProfile faults;
    bool resilience;
  };
  const Setting settings[] = {
      {"none", traceroute::FaultProfile::none(), true},
      {"flaky", traceroute::FaultProfile::flaky(), true},
      {"flaky, resilience off", traceroute::FaultProfile::flaky(), false},
  };
  const core::RankEstimatorConfig rc;
  for (const Setting& setting : settings) {
    for (core::SelectionPolicy policy :
         {core::SelectionPolicy::kMetascritic,
          core::SelectionPolicy::kOnlyExploit,
          core::SelectionPolicy::kOnlyExplore, core::SelectionPolicy::kRandom,
          core::SelectionPolicy::kGreedy, core::SelectionPolicy::kIxpMapped}) {
      SCOPED_TRACE(std::string(setting.name) + ", policy " +
                   std::to_string(static_cast<int>(policy)));
      eval::World live = sparse_world(setting.faults, setting.resilience);
      eval::World resumed = sparse_world(setting.faults, setting.resilience);
      const core::MetroContext ctx(live.net, live.focus_metros.at(0));
      core::SchedulerConfig sc;
      sc.policy = policy;
      sc.batch_size = 60;
      sc.seed = 5;

      // The live run: the pipeline's measured rank loop, three candidates.
      core::ProbabilityMatrix pm(ctx, *live.ms, nullptr);
      core::MeasurementScheduler sched(ctx, *live.ms, pm, sc);
      const core::FeatureMatrix features = core::encode_features(ctx);
      const core::RankEstimator estimator(ctx, features, rc);
      core::RankSearch search(rc.seed);
      for (int k = 0; k < 3; ++k) {
        sched.fill_rows_to(search.next_rank, 400);
        estimator.step(search, live.ms->matrix(ctx));
      }

      // The resumed side: the live measurement plane, then the phase blob.
      ck::Encoder plane;
      plane(*live.ms, *live.engine);
      if (live.faults != nullptr) plane(*live.faults);
      ck::Decoder dec(plane.data());
      dec(*resumed.ms, *resumed.engine);
      if (resumed.faults != nullptr) dec(*resumed.faults);
      ck::Encoder blob;
      blob(search, sched);
      const core::MetroContext rctx(resumed.net, resumed.focus_metros.at(0));
      Phase phase(rctx, *resumed.ms, sc);
      phase.decode(blob.data(), rc);

      const int n = static_cast<int>(ctx.size());
      EXPECT_EQ(choose_mismatches(pm, phase.pm, n), 0) << "decoded P_m";
      EXPECT_EQ(choose_mismatches(pm,
                                  pm_from_history(ctx, *live.ms, policy,
                                                  sched.history()),
                                  n),
                0)
          << "P_m against its records";
      core::StrategyPriors a, b;
      pm.export_priors(a);
      phase.pm.export_priors(b);
      EXPECT_TRUE(a.alpha == b.alpha && a.beta == b.beta) << "pooled counts";
      expect_same_search(search, phase.search);

      EXPECT_EQ(sched.fill_rows_to(12, 1200),
                phase.sched.fill_rows_to(12, 1200));
      EXPECT_EQ(history_bytes(sched), history_bytes(phase.sched));
      EXPECT_EQ(sched.given_up(), phase.sched.given_up());
    }
  }

  // The acceptance rule on a history whose second candidate only ties the
  // improvement it needs: a miss, so rank 1 stays best.
  const Capture& c = capture();
  ASSERT_FALSE(c.phase.empty());
  auto ph = decode_shape<PhaseShape>(c.phase);
  const double tie = 1.0 - std::max(rc.min_improvement, rc.rel_improvement);
  std::get<1>(std::get<0>(ph)) = {{1, 1.0}, {2, tie}};
  ck::Encoder enc;
  enc(ph);
  FreshState fresh(c);
  Phase phase(fresh.ctx, fresh.ms);
  phase.decode(enc.data(), rc);
  EXPECT_EQ(phase.search.next_rank, 3);
  EXPECT_EQ(phase.search.best, 1.0);
  EXPECT_EQ(phase.search.no_improve, 1);
  EXPECT_FALSE(phase.search.finished);
  EXPECT_EQ(phase.search.result.best_rank, 1);
  EXPECT_EQ(phase.search.result.best_mse, 1.0);
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
