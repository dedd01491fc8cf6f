// Traceroute-engine tests: paths follow BGP, hop metros come from the link's
// true metro set, noise behaves as configured.
#include "traceroute/engine.hpp"

#include <algorithm>
#include <memory>
#include <type_traits>

#include <gtest/gtest.h>

#include "topology/generator.hpp"
#include "traceroute/vantage_point.hpp"

namespace metas::traceroute {
namespace {

// The routing engine points at the traceroute engine's own graph, so a copy
// or a move would route over the source engine's graph.
static_assert(!std::is_copy_constructible_v<TracerouteEngine> &&
              !std::is_copy_assignable_v<TracerouteEngine> &&
              !std::is_move_constructible_v<TracerouteEngine> &&
              !std::is_move_assignable_v<TracerouteEngine>);

topology::GeneratorConfig small_cfg(std::uint64_t seed = 31) {
  topology::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_continents = 3;
  cfg.countries_per_continent = 2;
  cfg.metros_per_country = 2;
  cfg.num_focus_metros = 3;
  cfg.num_tier1 = 4;
  cfg.num_tier2 = 8;
  cfg.num_hypergiant = 4;
  cfg.num_transit = 10;
  cfg.num_large_isp = 12;
  cfg.num_content = 24;
  cfg.num_enterprise = 20;
  cfg.num_stub = 60;
  cfg.latent_dim = 9;
  return cfg;
}

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = std::make_unique<topology::Internet>(
        topology::generate_internet(small_cfg()));
  }
  static void TearDownTestSuite() { net_.reset(); }
  static std::unique_ptr<topology::Internet> net_;
};
std::unique_ptr<topology::Internet> EngineTest::net_;

TEST_F(EngineTest, TraceFollowsBgpPathAndLinkMetros) {
  TracerouteConfig tc;
  tc.geoloc_accuracy = 1.0;  // no geolocation noise for this test
  TracerouteEngine engine(*net_, tc);
  util::Rng rng(1);

  ASSERT_GT(net_->num_ases(), 120u);
  const auto& src = net_->ases[10];
  const auto& dst = net_->ases[120];
  VantagePoint vp{0, src.id, src.footprint.front()};
  ProbeTarget tgt{0, dst.id, dst.footprint.front(), false, 1.0};
  TraceResult res = engine.trace(vp, tgt, rng);

  ASSERT_FALSE(res.hops.empty());
  EXPECT_EQ(res.hops.front().as, src.id);
  auto expected = engine.routing().path(src.id, dst.id);
  ASSERT_EQ(res.hops.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_EQ(res.hops[k].as, expected[k]);

  // Every hop's true ingress is one of the link's actual metros.
  for (std::size_t k = 1; k < res.hops.size(); ++k) {
    const auto* link = net_->find_link(res.hops[k - 1].as, res.hops[k].as);
    ASSERT_NE(link, nullptr);
    EXPECT_TRUE(link->present_at(res.hops[k].true_ingress));
    if (res.hops[k].responsive) {
      EXPECT_EQ(res.hops[k].observed_ingress, res.hops[k].true_ingress);
    }
  }
  EXPECT_EQ(engine.issued(), 1u);
}

TEST_F(EngineTest, UnreachableTargetYieldsNoHops) {
  TracerouteEngine engine(*net_);
  util::Rng rng(2);
  // Same AS to itself via another AS is always reachable in our generated
  // graph, so instead probe from an AS to itself (path of length 1).
  const auto& a = net_->ases[3];
  VantagePoint vp{0, a.id, a.footprint.front()};
  ProbeTarget tgt{0, a.id, a.footprint.front(), false, 1.0};
  TraceResult res = engine.trace(vp, tgt, rng);
  EXPECT_EQ(res.hops.size(), 1u);  // just the source
}

TEST_F(EngineTest, GeolocationNoiseBounded) {
  TracerouteConfig tc;
  tc.geoloc_accuracy = 0.5;
  TracerouteEngine engine(*net_, tc);
  util::Rng rng(3);
  std::size_t total = 0, correct = 0;
  for (int t = 0; t < 400; ++t) {
    const auto& src = net_->ases[rng.index(net_->num_ases())];
    const auto& dst = net_->ases[rng.index(net_->num_ases())];
    if (src.id == dst.id) continue;
    VantagePoint vp{0, src.id, src.footprint.front()};
    ProbeTarget tgt{0, dst.id, dst.footprint.front(), false, 1.0};
    TraceResult res = engine.trace(vp, tgt, rng);
    for (std::size_t k = 1; k < res.hops.size(); ++k) {
      if (!res.hops[k].responsive || res.hops[k].observed_ingress < 0) continue;
      ++total;
      if (res.hops[k].observed_ingress == res.hops[k].true_ingress) ++correct;
    }
  }
  // Among geolocated hops, accuracy is the configured rate plus nothing:
  // erroneous geolocations never return the true metro.
  ASSERT_GT(total, 100u);
  double acc = static_cast<double>(correct) / total;
  EXPECT_GT(acc, 0.5);
  EXPECT_LT(acc, 0.8);
}

TEST_F(EngineTest, ConsistentAsPicksDeterministicMetros) {
  TracerouteConfig tc;
  tc.geoloc_accuracy = 1.0;
  util::Rng rng_a(7), rng_b(8);  // different noise streams
  TracerouteEngine ea(*net_, tc), eb(*net_, tc);
  // Find a consistently-routing source.
  const topology::AsNode* src = nullptr;
  for (const auto& a : net_->ases)
    if (a.consistent_routing && a.footprint.size() > 2) { src = &a; break; }
  ASSERT_NE(src, nullptr);
  const auto& dst = net_->ases[net_->num_ases() - 1];
  VantagePoint vp{0, src->id, src->footprint.front()};
  ProbeTarget tgt{0, dst.id, dst.footprint.front(), false, 1.0};
  TraceResult ra = ea.trace(vp, tgt, rng_a);
  TraceResult rb = eb.trace(vp, tgt, rng_b);
  ASSERT_EQ(ra.hops.size(), rb.hops.size());
  // First hop out of a consistent AS picks the same interconnection metro
  // regardless of the RNG stream.
  if (ra.hops.size() > 1 &&
      net_->ases[static_cast<std::size_t>(ra.hops[0].as)].consistent_routing) {
    EXPECT_EQ(ra.hops[1].true_ingress, rb.hops[1].true_ingress);
  }
}

TEST(VantagePoints, PlacementRespectsFootprintAndBias) {
  topology::Internet net = topology::generate_internet(small_cfg(77));
  util::Rng rng(5);
  auto vps = place_vantage_points(net, rng);
  ASSERT_FALSE(vps.empty());
  for (const auto& vp : vps) {
    const auto& fp = net.ases[static_cast<std::size_t>(vp.as)].footprint;
    EXPECT_TRUE(std::binary_search(fp.begin(), fp.end(), vp.metro));
  }

  // Ids are unique.
  std::set<int> ids;
  for (const auto& vp : vps) ids.insert(vp.id);
  EXPECT_EQ(ids.size(), vps.size());
}

TEST(Targets, EnumerationCoversFootprints) {
  topology::Internet net = topology::generate_internet(small_cfg(78));
  util::Rng rng(6);
  auto targets = enumerate_targets(net, rng);
  std::size_t expected = 0;
  for (const auto& a : net.ases) expected += a.footprint.size();
  EXPECT_EQ(targets.size(), expected);
  for (const auto& t : targets) {
    EXPECT_GE(t.responsiveness, 0.0);
    EXPECT_LE(t.responsiveness, 1.0);
  }
  // Some IXP-adjacent targets exist.
  EXPECT_TRUE(std::any_of(targets.begin(), targets.end(),
                          [](const ProbeTarget& t) { return t.ixp_adjacent; }));
}

}  // namespace
}  // namespace metas::traceroute
