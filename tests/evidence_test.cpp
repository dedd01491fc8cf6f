// EvidenceStore and E_m derivation tests (§3.4 transferability rules).
#include "core/evidence.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "eval/world.hpp"
#include "topology/generator.hpp"
#include "util/checkpoint.hpp"
#include "util/telemetry.hpp"

namespace metas::core {
namespace {

using topology::AsId;
using topology::MetroId;

// Geography: 2 continents x 2 countries x 2 metros = 8 metros.
// Metro 0 and 1 share a country; 0 and 2 share a continent; 0 and 4+ do not.
class EvidenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::GeneratorConfig cfg;
    cfg.seed = 61;
    cfg.num_continents = 2;
    cfg.countries_per_continent = 2;
    cfg.metros_per_country = 2;
    cfg.num_focus_metros = 2;
    cfg.latent_dim = 8;
    net_ = std::make_unique<topology::Internet>(topology::generate_internet(cfg));
  }
  static void TearDownTestSuite() { net_.reset(); }

  // Two ASes guaranteed present at metro 0 (taken from the metro universe).
  static std::pair<AsId, AsId> two_ases_at_metro0() {
    const auto& m0 = net_->metros[0].ases;
    return {m0[0], m0[1]};
  }

  static traceroute::TraceResult trace_stub() {
    traceroute::TraceResult t;
    t.vp_id = 42;
    return t;
  }

  // A trace from the stub's VP that traverses only AS 7 at metro 3.  Once
  // it is ingested, the VP is no longer well positioned at metro 0.
  static traceroute::TraceResult trace_elsewhere() {
    traceroute::TraceResult prior = trace_stub();
    prior.src_as = 7;
    prior.src_metro = 3;
    traceroute::Hop h;
    h.as = 7;
    h.observed_ingress = 3;
    h.responsive = true;
    prior.hops = {h};
    return prior;
  }

  static std::unique_ptr<topology::Internet> net_;
};
std::unique_ptr<topology::Internet> EvidenceTest::net_;

TEST_F(EvidenceTest, DirectObservationFillsByScope) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 1, false});  // same country as metro 0
  ev.ingest(trace_stub(), obs, wp);

  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  int ia = ctx.local(a), ib = ctx.local(b);
  ASSERT_GE(ia, 0);
  ASSERT_GE(ib, 0);
  EXPECT_TRUE(e.filled(ia, ib));
  EXPECT_DOUBLE_EQ(e.value(ia, ib), 0.7);  // same-country transfer
}

TEST_F(EvidenceTest, ClosestDirectObservationWins) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 4, false});  // other continent: 0.1
  obs.links.push_back({a, b, 2, false});  // same continent: 0.4
  ev.ingest(trace_stub(), obs, wp);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), 0.4);
}

TEST_F(EvidenceTest, TransitFromWellPositionedVpGivesNegative) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;  // VP never issued: well positioned
  traceroute::TraceObservations obs;
  obs.transits.push_back({a, b, 99, 0, 0});  // transit at the metro itself
  ev.ingest(trace_stub(), obs, wp);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), -1.0);
}

TEST_F(EvidenceTest, TransitFromPoorlyPositionedVpIgnored) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  wp.ingest(trace_elsewhere());

  traceroute::TraceObservations obs;
  obs.transits.push_back({a, b, 99, 0, 0});
  traceroute::TraceResult t = trace_stub();
  ev.ingest(t, obs, wp);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  EXPECT_FALSE(e.filled(ctx.local(a), ctx.local(b)));
}

TEST_F(EvidenceTest, InconsistentPairGetsNoNegative) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 1, false});    // direct at metro 1
  obs.transits.push_back({a, b, 99, 1, 1}); // transit at metro 1 too
  ev.ingest(trace_stub(), obs, wp);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  // The pair is inconsistent at country granularity, so the only fill is the
  // positive same-country transfer.
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), 0.7);
}

// A crossing from a VP that is not well positioned is no E_m negative, yet
// it is still a crossing: beside a direct observation at the same metro it
// makes the pair inconsistent.
TEST_F(EvidenceTest, UnvettedCrossingCountsForConsistencyOnly) {
  MetroContext ctx(*net_, 0);
  const AsId a = ctx.as_at(0), b = ctx.as_at(1), c = ctx.as_at(2);
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  wp.ingest(trace_elsewhere());
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 0, false});
  obs.transits.push_back({a, b, 99, 0, 0});
  obs.transits.push_back({b, c, 99, 0, 0});
  ev.ingest(trace_stub(), obs, wp);

  const PairEvidence& ab = *ev.find(a, b);
  ASSERT_EQ(ab.size(), 1u);
  EXPECT_EQ(ab[0].metro, 0);
  EXPECT_TRUE(ab[0].direct);
  EXPECT_TRUE(ab[0].crossing);
  EXPECT_FALSE(ab[0].transit);
  EXPECT_FALSE(ev.transit_at(a, b, 0));
  EXPECT_FALSE(ev.transit_at(b, c, 0));
  EXPECT_TRUE(ev.pair_inconsistent(*net_, a, b, topology::GeoScope::kSameMetro));
  EXPECT_FALSE(ev.pair_inconsistent(*net_, b, c, topology::GeoScope::kElsewhere));
  // One bad pair at every granularity: its lower local index, a, goes.
  const ConsistentSets sets = ev.consistent_sets(ctx);
  for (const auto& alive : sets) {
    EXPECT_FALSE(alive[0]);
    EXPECT_TRUE(alive[1]);
    EXPECT_TRUE(alive[2]);
  }
  // b and c stay consistent, so only the well-positioned filter keeps the
  // (b, c) crossing out of E_m.
  const EstimatedMatrix e = build_estimated_matrix(ctx, ev, sets);
  EXPECT_DOUBLE_EQ(e.value(0, 1), 1.0);
  EXPECT_FALSE(e.filled(1, 2));
  EXPECT_EQ(e.total_filled(), 1u);
}

TEST_F(EvidenceTest, MixedEvidenceKeepsBiggerAbsolute) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 4, false});     // weak positive 0.1
  obs.transits.push_back({a, b, 99, 0, 0});  // strong negative -1
  ev.ingest(trace_stub(), obs, wp);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), -1.0);
}

TEST_F(EvidenceTest, PairsOutsideMetroIgnored) {
  // Evidence about a pair with no presence at metro 0 must not crash or fill.
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  // Find an AS absent from metro 0.
  AsId outsider = topology::kInvalidAs;
  MetroContext ctx(*net_, 0);
  for (const auto& node : net_->ases)
    if (ctx.local(node.id) < 0) { outsider = node.id; break; }
  ASSERT_NE(outsider, topology::kInvalidAs);
  traceroute::TraceObservations obs;
  obs.links.push_back({outsider, ctx.as_at(0), 1, false});
  ev.ingest(trace_stub(), obs, wp);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  EXPECT_EQ(e.total_filled(), 0u);
}

TEST_F(EvidenceTest, AccessorsWork) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 2, false});
  ev.ingest(trace_stub(), obs, wp);
  EXPECT_TRUE(ev.direct_at(a, b, 2));
  EXPECT_TRUE(ev.direct_at(b, a, 2));
  EXPECT_FALSE(ev.direct_at(a, b, 3));
  EXPECT_FALSE(ev.transit_at(a, b, 2));
  EXPECT_EQ(ev.pairs(), 1u);
  EXPECT_NE(ev.find(a, b), nullptr);
  EXPECT_EQ(ev.find(a, a), nullptr);
}

TEST_F(EvidenceTest, MetroContextLocalRejectsIdsOutsideTheWorld) {
  MetroContext ctx(*net_, 0);
  for (std::size_t i = 0; i < ctx.size(); ++i)
    EXPECT_EQ(ctx.local(ctx.as_at(i)), static_cast<int>(i));
  const auto n = static_cast<AsId>(net_->num_ases());
  for (AsId id : {AsId{-1}, AsId{-2}, std::numeric_limits<AsId>::min(), n,
                  n + 1, std::numeric_limits<AsId>::max()})
    EXPECT_EQ(ctx.local(id), -1) << "id " << id;

  const auto in = static_cast<std::uint64_t>(ctx.as_at(0));
  const auto in2 = static_cast<std::uint64_t>(ctx.as_at(1));
  EXPECT_TRUE(ctx.has_pair(topology::pair_key(ctx.as_at(0), ctx.as_at(1))));
  EXPECT_FALSE(ctx.has_pair((static_cast<std::uint64_t>(n) << 32) | in));
  EXPECT_FALSE(ctx.has_pair((0xffffffffULL << 32) | in));
  EXPECT_FALSE(ctx.has_pair((in2 << 32) | 0xfffffff0ULL));
}

// Pair keys naming an AS outside the world can only come from a corrupted
// checkpoint.  The store must keep such a pair non-local: E_m ignores it
// and it eliminates nobody from the consistent sets.
TEST_F(EvidenceTest, PairsNamingAsesOutsideTheWorldStayNonLocal) {
  MetroContext ctx(*net_, 0);
  const auto a = static_cast<std::uint64_t>(ctx.as_at(0));
  const auto b = static_cast<std::uint64_t>(ctx.as_at(1));
  const auto n = static_cast<std::uint64_t>(net_->num_ases());
  // Per pair, its metro records: (metro, direct, crossing, transit).
  using Records = std::vector<std::tuple<int, bool, bool, bool>>;
  // Every pair is mixed at metro 0; only (a, b) lies inside the world.
  const std::unordered_map<std::uint64_t, Records> pairs{
      {(b << 32) | a, {{0, true, false, false}}},
      {(n << 32) | a, {{0, true, true, true}}},
      {(0xffffffffULL << 32) | a, {{0, true, true, true}}},
      {(b << 32) | 0xfffffff0ULL, {{0, true, true, true}}},
      {(a << 32) | 0x80000000ULL, {{0, true, true, true}}},
  };
  util::checkpoint::Encoder enc;
  enc(pairs);
  EvidenceStore ev;
  util::checkpoint::Decoder dec(enc.data());
  ev.load(dec);

  const auto local = ev.sorted_pairs(ctx);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0].first, (b << 32) | a);
  for (const auto& alive : ev.consistent_sets(ctx))
    EXPECT_TRUE(std::all_of(alive.begin(), alive.end(), [](bool x) { return x; }));
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, ev.consistent_sets(ctx));
  EXPECT_EQ(e.total_filled(), 1u);
  EXPECT_DOUBLE_EQ(e.value(0, 1), 1.0);
}

// A delta refresh clears each listed pair and re-derives it.  Merging the
// new evidence onto the old entry would differ from a full build only on a
// tie: a -0.4 transit entry that gains a direct link at the same
// (continent) scope is +0.4 in a full build, where the positive wins ties,
// but would stay -0.4 merged.
TEST_F(EvidenceTest, RefreshRederivesAPairLikeAFullBuild) {
  auto [a, b] = two_ases_at_metro0();
  MetroContext ctx(*net_, 0);
  ConsistentSets all;
  for (auto& alive : all) alive.assign(ctx.size(), true);
  EvidenceStore ev;
  traceroute::WellPositionedTracker wp;
  traceroute::TraceObservations transit;
  transit.transits.push_back({a, b, 99, 2, 2});  // same continent: -0.4
  ev.ingest(trace_stub(), transit, wp);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev, all);
  const auto ia = static_cast<std::size_t>(ctx.local(a));
  const auto ib = static_cast<std::size_t>(ctx.local(b));
  ASSERT_DOUBLE_EQ(e.value(ia, ib), -0.4);

  traceroute::TraceObservations direct;
  direct.links.push_back({a, b, 2, false});  // same continent: +0.4
  ev.ingest(trace_stub(), direct, wp);
  const auto outside = (static_cast<std::uint64_t>(net_->num_ases()) << 32) |
                       static_cast<std::uint64_t>(a);
  refresh_estimated_pairs(e, ctx, ev, all, {outside, topology::pair_key(a, b)});
  EXPECT_DOUBLE_EQ(build_estimated_matrix(ctx, ev, all).value(ia, ib), 0.4);
  EXPECT_DOUBLE_EQ(e.value(ia, ib), 0.4);
  EXPECT_EQ(e.row_filled(ia), 1u);
  EXPECT_EQ(e.total_filled(), 1u);
}

// ---- E_m against an independent brute-force reference ------------------

/// Reference consistent sets: for each granularity, repeatedly drop the AS
/// with the most live inconsistent pairs (ties: lowest index), judging
/// every pair of the metro with pair_inconsistent().
std::vector<std::vector<bool>> reference_consistent(
    const MetroContext& ctx, const EvidenceStore& ev) {
  const std::size_t n = ctx.size();
  std::vector<std::vector<bool>> sets;
  for (int g = 0; g < topology::kNumGeoScopes; ++g) {
    std::vector<std::vector<bool>> bad(n, std::vector<bool>(n, false));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        bad[i][j] = bad[j][i] = ev.pair_inconsistent(
            ctx.net(), ctx.as_at(i), ctx.as_at(j),
            static_cast<topology::GeoScope>(g));
    std::vector<bool> alive(n, true);
    while (true) {
      std::size_t worst = n, worst_count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        std::size_t c = 0;
        for (std::size_t j = 0; j < n; ++j) c += alive[j] && bad[i][j];
        if (c > worst_count) {
          worst = i;
          worst_count = c;
        }
      }
      if (worst == n) break;
      alive[worst] = false;
    }
    sets.push_back(std::move(alive));
  }
  return sets;
}

struct ReferenceEm {
  std::vector<double> value;  // row-major n x n
  std::vector<bool> filled;
  std::size_t eliminated = 0;  // ASes dropped over all granularities
};

/// Reference E_m (§3.4): the closest direct observation gives the positive
/// rating; the finest transit scope at which both ASes are consistent gives
/// the negative one; the larger magnitude wins, the positive on a tie.
ReferenceEm reference_em(const MetroContext& ctx, const MeasurementSystem& ms) {
  const std::size_t n = ctx.size();
  const auto consistent = reference_consistent(ctx, ms.evidence());
  ReferenceEm ref{std::vector<double>(n * n, 0.0),
                  std::vector<bool>(n * n, false), 0};
  for (const auto& alive : consistent)
    ref.eliminated += static_cast<std::size_t>(
        std::count(alive.begin(), alive.end(), false));
  for (std::uint64_t key : ms.evidence().sorted_keys()) {
    const int ia = ctx.local(static_cast<AsId>(key & 0xffffffffULL));
    const int ib = ctx.local(static_cast<AsId>(key >> 32));
    if (ia < 0 || ib < 0 || ia == ib) continue;
    const PairEvidence& ev = ms.evidence().all().at(key);
    bool has = false;
    double v = 0.0;
    for (const MetroEvidence& r : ev) {
      if (!r.direct) continue;
      v = std::max(v, positive_rating(ctx.net().metro_scope(ctx.metro(), r.metro)));
      has = true;
    }
    for (int g = 0; g < topology::kNumGeoScopes; ++g) {
      const auto scope = static_cast<topology::GeoScope>(g);
      bool seen = false;
      for (const MetroEvidence& r : ev)
        seen = seen || (r.transit &&
                        ctx.net().metro_scope(ctx.metro(), r.metro) == scope);
      if (!seen || !consistent[g][static_cast<std::size_t>(ia)] ||
          !consistent[g][static_cast<std::size_t>(ib)])
        continue;
      const double neg = negative_rating(scope);
      if (!has || std::abs(neg) > std::abs(v)) v = neg;
      has = true;
      break;
    }
    if (!has) continue;
    for (auto [r, c] : {std::pair{ia, ib}, std::pair{ib, ia}}) {
      const std::size_t at = static_cast<std::size_t>(r) * n + static_cast<std::size_t>(c);
      ref.value[at] = v;
      ref.filled[at] = true;
    }
  }
  return ref;
}

/// `e` equals the reference bit for bit: values, mask and row counts.
void expect_equals_reference(const EstimatedMatrix& e, const ReferenceEm& ref) {
  const std::size_t n = e.size();
  ASSERT_EQ(ref.value.size(), n * n);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t row = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t at = i * n + j;
      row += ref.filled[at];
      if (e.filled(i, j) != ref.filled[at] ||
          std::bit_cast<std::uint64_t>(e.value(i, j)) !=
              std::bit_cast<std::uint64_t>(ref.value[at])) {
        if (mismatches++ == 0)
          ADD_FAILURE() << "E_m(" << i << ", " << j << ") = " << e.value(i, j)
                        << (e.filled(i, j) ? "" : " (empty)") << ", reference "
                        << ref.value[at] << (ref.filled[at] ? "" : " (empty)");
      }
    }
    EXPECT_EQ(e.row_filled(i), row) << "row " << i;
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Both build_matrix() and the view matrix() equal the reference.  Returns
/// the reference's eliminated-AS count.
std::size_t expect_matches_reference(const MetroContext& ctx,
                                     MeasurementSystem& ms) {
  const ReferenceEm ref = reference_em(ctx, ms);
  {
    SCOPED_TRACE("build_matrix");
    expect_equals_reference(ms.build_matrix(ctx), ref);
  }
  {
    SCOPED_TRACE("matrix");
    expect_equals_reference(ms.matrix(ctx), ref);
  }
  return ref.eliminated;
}

/// Drives a scheduler on the world's first focus metro batch by batch, each
/// batch from the view, and checks E_m before every batch.  Returns the
/// ASes the reference eliminated over all checks, so callers can see the
/// consistency pass was exercised.
std::size_t drive_and_check(eval::World& w, MeasurementSystem& ms,
                            std::uint64_t seed, int batches) {
  const MetroContext ctx(w.net, w.focus_metros.at(0));
  ProbabilityMatrix pm(ctx, ms, nullptr);
  SchedulerConfig sc;
  sc.batch_size = 40;
  sc.seed = seed;
  MeasurementScheduler sched(ctx, ms, pm, sc);
  std::size_t eliminated = 0;
  for (int b = 0; b < batches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    eliminated += expect_matches_reference(ctx, ms);
    sched.run_batch(ms.matrix(ctx), 40);
  }
  eliminated += expect_matches_reference(ctx, ms);
  return eliminated;
}

/// Reads a telemetry counter (0 when instrumentation is compiled out).
std::uint64_t counter(const char* name) {
  return util::telemetry::Registry::instance().counter(name).value();
}

eval::WorldConfig reference_world_config(std::uint64_t seed, bool flaky) {
  auto cfg = eval::small_world_config(seed);
  cfg.compute_public_view = false;
  if (flaky) cfg.faults = traceroute::FaultProfile::flaky();
  return cfg;
}

TEST(EstimatedMatrixReferenceTest, BuildMatrixMatchesBruteForceEveryBatch) {
  const std::uint64_t rebuilt = counter("measurement.matrices_rebuilt");
  const std::uint64_t refreshed = counter("measurement.matrices_refreshed");
  std::size_t eliminated = 0, worlds = 0;
  for (std::uint64_t seed : {3u, 17u, 42u}) {
    for (bool flaky : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (flaky ? " flaky" : " none"));
      eval::World w = eval::build_world(reference_world_config(seed, flaky));
      eliminated += drive_and_check(w, *w.ms, seed, 6);
      ++worlds;
    }
  }
  EXPECT_GT(eliminated, 0u) << "no world had an inconsistent AS to eliminate";
  if (!util::telemetry::compiled()) return;
  // Each world's first view is a full build; any other full build means a
  // batch moved the consistent sets.  Both view paths must have run.
  EXPECT_GT(counter("measurement.matrices_rebuilt") - rebuilt, worlds)
      << "no consistent-set change forced a full rebuild";
  EXPECT_GT(counter("measurement.matrices_refreshed") - refreshed, 0u)
      << "no delta refresh ran";
}

// One view serves whichever metro asks: it follows a switch to another
// metro and back, public-archive traces processed between two batches, and
// a load() of an earlier plane into the same MeasurementSystem.
TEST(EstimatedMatrixReferenceTest, ViewFollowsMetroSwitchesArchivesAndLoad) {
  eval::World w = eval::build_world(reference_world_config(9, false));
  MeasurementSystem& ms = *w.ms;
  const MetroContext first(w.net, w.focus_metros.at(0));
  const MetroContext second(w.net, w.focus_metros.at(1));
  ProbabilityMatrix pm_first(first, ms, nullptr);
  ProbabilityMatrix pm_second(second, ms, nullptr);
  SchedulerConfig sc;
  sc.batch_size = 40;
  sc.seed = 9;
  MeasurementScheduler at_first(first, ms, pm_first, sc);
  MeasurementScheduler at_second(second, ms, pm_second, sc);
  auto batch = [&ms](const MetroContext& ctx, MeasurementScheduler& sched) {
    expect_matches_reference(ctx, ms);
    sched.run_batch(ms.matrix(ctx), 40);
  };
  const std::uint64_t refreshed = counter("measurement.matrices_refreshed");
  {
    SCOPED_TRACE("first metro");
    batch(first, at_first);
    batch(first, at_first);
  }
  {
    SCOPED_TRACE("public archives between two batches");
    ms.run_public_archives(500);
    batch(first, at_first);
  }
  {
    SCOPED_TRACE("second metro");
    batch(second, at_second);
    batch(second, at_second);
  }
  {
    SCOPED_TRACE("first metro again");
    batch(first, at_first);
  }
  util::checkpoint::Encoder saved;
  ms.save(saved);
  batch(first, at_first);
  batch(first, at_first);
  expect_matches_reference(first, ms);
  {
    SCOPED_TRACE("after load");
    util::checkpoint::Decoder dec(saved.data());
    ms.load(dec);
    ASSERT_TRUE(dec.done());
    batch(first, at_first);
    expect_matches_reference(first, ms);
  }
  if (util::telemetry::compiled()) {
    EXPECT_GT(counter("measurement.matrices_refreshed") - refreshed, 0u);
  }
}

TEST(EstimatedMatrixReferenceTest, BuildMatrixMatchesAfterPlaneRoundTrip) {
  eval::World w = eval::build_world(reference_world_config(5, true));
  drive_and_check(w, *w.ms, 5, 4);
  util::checkpoint::Encoder enc;
  w.ms->save(enc);
  MeasurementSystem fresh(w.net, *w.engine, w.vps, w.targets, 0);
  util::checkpoint::Decoder dec(enc.data());
  fresh.load(dec);
  ASSERT_TRUE(dec.done());

  const MetroContext ctx(w.net, w.focus_metros.at(0));
  const EstimatedMatrix before = w.ms->build_matrix(ctx);
  const EstimatedMatrix after = fresh.build_matrix(ctx);
  for (std::size_t i = 0; i < ctx.size(); ++i)
    for (std::size_t j = 0; j < ctx.size(); ++j)
      ASSERT_TRUE(before.filled(i, j) == after.filled(i, j) &&
                  std::bit_cast<std::uint64_t>(before.value(i, j)) ==
                      std::bit_cast<std::uint64_t>(after.value(i, j)))
          << "(" << i << ", " << j << ")";
  // The loaded plane keeps measuring: its rebuilt mixed set must keep up.
  EXPECT_GT(drive_and_check(w, fresh, 6, 4), 0u);
}

}  // namespace
}  // namespace metas::core
