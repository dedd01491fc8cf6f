// Public-BGP-view visibility tests: the bias that motivates metAScritic.
#include "bgp/public_view.hpp"

#include <gtest/gtest.h>

#include "topology/generator.hpp"

namespace metas::bgp {
namespace {

// Hierarchy: 0 top; 1, 2 customers of 0; 3 customer of 1; 4 customer of 2.
// Peer link 3 -- 4 at the edge.
AsGraph edge_peering_graph() {
  AsGraph g(5);
  g.add_c2p(1, 0);
  g.add_c2p(2, 0);
  g.add_c2p(3, 1);
  g.add_c2p(4, 2);
  g.add_peer(3, 4);
  return g;
}

TEST(PublicView, EdgePeeringInvisibleFromTop) {
  AsGraph g = edge_peering_graph();
  RoutingEngine eng(g);
  // Collector at the top of the hierarchy: never sees the 3--4 peer link
  // because peer routes are not exported upward.
  LinkSet v = compute_public_view(eng, {0});
  EXPECT_FALSE(v.contains(3, 4));
  // The c2p links on its best paths are visible.
  EXPECT_TRUE(v.contains(0, 1));
  EXPECT_TRUE(v.contains(1, 3));
}

TEST(PublicView, EdgePeeringVisibleFromPeerItself) {
  AsGraph g = edge_peering_graph();
  RoutingEngine eng(g);
  LinkSet v = compute_public_view(eng, {3});
  EXPECT_TRUE(v.contains(3, 4));  // 3 itself uses the peer route to 4
}

TEST(PublicView, MoreCollectorsSeeMoreLinks) {
  AsGraph g = edge_peering_graph();
  RoutingEngine eng(g);
  LinkSet few = compute_public_view(eng, {0});
  LinkSet more = compute_public_view(eng, {0, 3, 4});
  EXPECT_GE(more.size(), few.size());
  for (auto key : few.raw()) EXPECT_TRUE(more.raw().count(key));
}

TEST(PublicView, GeneratedInternetMostPeeringHidden) {
  topology::GeneratorConfig cfg;
  cfg.seed = 3;
  cfg.num_continents = 3;
  cfg.countries_per_continent = 2;
  cfg.metros_per_country = 2;
  cfg.num_focus_metros = 3;
  cfg.num_tier1 = 4;
  cfg.num_tier2 = 8;
  cfg.num_hypergiant = 4;
  cfg.num_transit = 12;
  cfg.num_large_isp = 14;
  cfg.num_content = 30;
  cfg.num_enterprise = 25;
  cfg.num_stub = 80;
  cfg.latent_dim = 9;
  topology::Internet net = topology::generate_internet(cfg);
  AsGraph g = AsGraph::from_internet(net);
  util::Rng rng(4);
  auto collectors = place_collectors(net, rng);
  ASSERT_FALSE(collectors.empty());
  RoutingEngine eng(g);
  LinkSet visible = compute_public_view(eng, collectors);

  std::size_t peer_total = 0, peer_visible = 0;
  for (const auto& [key, li] : net.link_map) {
    if (li.rel != topology::Relationship::kPeerToPeer) continue;
    ++peer_total;
    auto a = static_cast<topology::AsId>(key & 0xffffffffULL);
    auto b = static_cast<topology::AsId>(key >> 32);
    if (visible.contains(a, b)) ++peer_visible;
  }
  ASSERT_GT(peer_total, 0u);
  // The majority of peering links stay invisible (the paper's motivation).
  EXPECT_LT(static_cast<double>(peer_visible) / peer_total, 0.6);
  EXPECT_GT(peer_visible, 0u);
}

TEST(PlaceCollectors, SkewedTowardCoveredContinents) {
  topology::GeneratorConfig cfg;
  cfg.seed = 8;
  topology::Internet net = topology::generate_internet(cfg);
  util::Rng rng(9);
  auto collectors = place_collectors(net, rng);
  std::size_t north = 0, south = 0, north_total = 0, south_total = 0;
  for (const auto& a : net.ases)
    (a.home_continent < 2 ? north_total : south_total)++;
  for (auto c : collectors)
    (net.ases[static_cast<std::size_t>(c)].home_continent < 2 ? north : south)++;
  ASSERT_GT(north_total, 0u);
  ASSERT_GT(south_total, 0u);
  double north_rate = static_cast<double>(north) / north_total;
  double south_rate = static_cast<double>(south) / south_total;
  EXPECT_GT(north_rate, south_rate);
}

}  // namespace
}  // namespace metas::bgp
