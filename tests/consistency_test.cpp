// Consistent-routing detection and well-positioned-VP tests (§3.4).
#include "traceroute/consistency.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "core/evidence.hpp"
#include "topology/generator.hpp"

namespace metas::traceroute {
namespace {

using topology::AsId;
using topology::GeoScope;
using topology::MetroId;

// A fixed small world whose metro/country/continent layout the tests rely
// on: 2 metros per country, 2 countries per continent.  The consistent-set
// analysis reads the pair records of core::EvidenceStore; a VP that never
// issued is well positioned, so every crossing here is also E_m evidence.
class ConsistencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::GeneratorConfig cfg;
    cfg.seed = 51;
    cfg.num_continents = 2;
    cfg.countries_per_continent = 2;
    cfg.metros_per_country = 2;
    cfg.num_focus_metros = 2;
    net_ = std::make_unique<topology::Internet>(topology::generate_internet(cfg));
  }
  static void TearDownTestSuite() { net_.reset(); }

  void direct(AsId a, AsId b, MetroId m) {
    TraceObservations o;
    o.links.push_back({a, b, m, false});
    store_.ingest(TraceResult{}, o, wp_);
  }
  void transit(AsId a, AsId b, MetroId m) {
    TraceObservations o;
    o.transits.push_back({a, b, 99, m, m});
    store_.ingest(TraceResult{}, o, wp_);
  }
  bool inconsistent(AsId a, AsId b, GeoScope g) const {
    return store_.pair_inconsistent(*net_, a, b, g);
  }

  static std::unique_ptr<topology::Internet> net_;
  core::EvidenceStore store_;
  WellPositionedTracker wp_;
};
std::unique_ptr<topology::Internet> ConsistencyTest::net_;

TEST_F(ConsistencyTest, NoEvidenceIsConsistent) {
  EXPECT_FALSE(inconsistent(1, 2, GeoScope::kSameMetro));
}

TEST_F(ConsistencyTest, SameMetroMixMakesInconsistent) {
  direct(1, 2, 0);
  transit(1, 2, 0);
  EXPECT_TRUE(inconsistent(1, 2, GeoScope::kSameMetro));
  EXPECT_TRUE(inconsistent(1, 2, GeoScope::kElsewhere));
}

TEST_F(ConsistencyTest, GranularityHierarchy) {
  // Direct at metro 0, transit at metro 1 (same country as 0 with
  // metros_per_country = 2): consistent at metro granularity, inconsistent
  // at country and coarser. This mirrors the paper's NY/Seattle/Toronto
  // example.
  direct(3, 4, 0);
  transit(3, 4, 1);
  EXPECT_FALSE(inconsistent(3, 4, GeoScope::kSameMetro));
  EXPECT_TRUE(inconsistent(3, 4, GeoScope::kSameCountry));
  EXPECT_TRUE(inconsistent(3, 4, GeoScope::kElsewhere));
}

TEST_F(ConsistencyTest, ConsistentSetEliminatesWorstOffenders) {
  const core::MetroContext ctx(*net_, 0);
  ASSERT_GE(ctx.size(), 4u);
  // Local AS 0 is inconsistent with both 1 and 2; 1 and 2 are otherwise
  // clean.
  direct(ctx.as_at(0), ctx.as_at(1), 0);
  transit(ctx.as_at(0), ctx.as_at(1), 0);
  direct(ctx.as_at(0), ctx.as_at(2), 0);
  transit(ctx.as_at(0), ctx.as_at(2), 0);
  auto alive = store_.consistent_sets(
      ctx)[mac::enum_cast<std::size_t>(GeoScope::kSameMetro)];
  EXPECT_FALSE(alive[0]);  // eliminated
  EXPECT_TRUE(alive[1]);
  EXPECT_TRUE(alive[2]);
  EXPECT_TRUE(alive[3]);
}

TEST_F(ConsistencyTest, OnlyDirectOrOnlyTransitStaysConsistent) {
  const core::MetroContext ctx(*net_, 0);
  ASSERT_GE(ctx.size(), 4u);
  direct(ctx.as_at(0), ctx.as_at(1), 0);
  direct(ctx.as_at(0), ctx.as_at(1), 3);
  transit(ctx.as_at(2), ctx.as_at(3), 0);
  transit(ctx.as_at(2), ctx.as_at(3), 1);
  auto alive = store_.consistent_sets(
      ctx)[mac::enum_cast<std::size_t>(GeoScope::kElsewhere)];
  for (bool a : alive) EXPECT_TRUE(a);
}

TEST(WellPositioned, NeverIssuedIsWellPositioned) {
  WellPositionedTracker wp;
  EXPECT_TRUE(wp.well_positioned(5, 1, 0));
}

TEST(WellPositioned, TraversedInterfaceQualifies) {
  WellPositionedTracker wp;
  TraceResult t;
  t.vp_id = 3;
  t.src_as = 1;
  t.src_metro = 0;
  Hop h0;
  h0.as = 1; h0.observed_ingress = 0; h0.responsive = true;
  Hop h1;
  h1.as = 2; h1.true_ingress = 4; h1.observed_ingress = 4; h1.responsive = true;
  t.hops = {h0, h1};
  wp.ingest(t);
  EXPECT_TRUE(wp.well_positioned(3, 2, 4));   // traversed AS 2 at metro 4
  EXPECT_TRUE(wp.well_positioned(3, 1, 0));   // its own interface
  EXPECT_FALSE(wp.well_positioned(3, 2, 5));  // wrong metro
  EXPECT_FALSE(wp.well_positioned(3, 9, 4));  // wrong AS
  // Another VP that never issued is still well positioned anywhere.
  EXPECT_TRUE(wp.well_positioned(4, 9, 9));
}

TEST(WellPositioned, UnresponsiveHopsNotRecorded) {
  WellPositionedTracker wp;
  TraceResult t;
  t.vp_id = 1;
  t.src_as = 0;
  t.src_metro = 0;
  Hop h;
  h.as = 2; h.true_ingress = 3; h.observed_ingress = -1; h.responsive = false;
  t.hops = {h};
  wp.ingest(t);
  EXPECT_FALSE(wp.well_positioned(1, 2, 3));
}

}  // namespace
}  // namespace metas::traceroute
