// Invariant and property tests for the synthetic Internet generator.
#include "topology/generator.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/eigen_sym.hpp"
#include "util/rng.hpp"

namespace metas::topology {
namespace {

GeneratorConfig tiny_config(std::uint64_t seed = 7) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_continents = 3;
  cfg.countries_per_continent = 2;
  cfg.metros_per_country = 2;
  cfg.num_focus_metros = 3;
  cfg.num_tier1 = 4;
  cfg.num_tier2 = 6;
  cfg.num_hypergiant = 4;
  cfg.num_transit = 10;
  cfg.num_large_isp = 12;
  cfg.num_content = 25;
  cfg.num_enterprise = 20;
  cfg.num_stub = 60;
  cfg.latent_dim = 9;
  return cfg;
}

TEST(Generator, ConfigValidation) {
  GeneratorConfig cfg = tiny_config();
  cfg.metros_per_country = 100;  // > 64 metros
  EXPECT_THROW(generate_internet(cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.latent_dim = 3;
  EXPECT_THROW(generate_internet(cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.num_focus_metros = 1000;
  EXPECT_THROW(generate_internet(cfg), std::invalid_argument);
}

TEST(Generator, BasicCounts) {
  GeneratorConfig cfg = tiny_config();
  Internet net = generate_internet(cfg);
  EXPECT_EQ(net.num_ases(), static_cast<std::size_t>(cfg.total_ases()));
  EXPECT_EQ(net.metros.size(), static_cast<std::size_t>(cfg.total_metros()));
  EXPECT_EQ(net.truth.size(), net.metros.size());
  int per_class[kNumAsClasses] = {};
  for (const auto& a : net.ases) ++per_class[static_cast<int>(a.cls)];
  EXPECT_EQ(per_class[static_cast<int>(AsClass::kTier1)], cfg.num_tier1);
  EXPECT_EQ(per_class[static_cast<int>(AsClass::kStub)], cfg.num_stub);
}

TEST(Generator, AsInvariants) {
  Internet net = generate_internet(tiny_config());
  const int M = static_cast<int>(net.metros.size());
  for (const auto& a : net.ases) {
    EXPECT_EQ(a.id, static_cast<AsId>(&a - net.ases.data()));
    ASSERT_FALSE(a.footprint.empty());
    EXPECT_TRUE(std::is_sorted(a.footprint.begin(), a.footprint.end()));
    for (MetroId m : a.footprint) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, M);
    }
    // Footprint has no duplicates.
    std::set<MetroId> uniq(a.footprint.begin(), a.footprint.end());
    EXPECT_EQ(uniq.size(), a.footprint.size());
    EXPECT_GE(a.home_country, 0);
    EXPECT_LT(a.home_country, net.num_countries);
    EXPECT_EQ(a.features.footprint_size,
              static_cast<int>(a.footprint.size()));
  }
}

TEST(Generator, HierarchyInvariants) {
  Internet net = generate_internet(tiny_config());
  for (const auto& a : net.ases) {
    if (a.cls == AsClass::kTier1) {
      EXPECT_TRUE(net.providers[static_cast<std::size_t>(a.id)].empty());
    } else {
      EXPECT_FALSE(net.providers[static_cast<std::size_t>(a.id)].empty())
          << "AS " << a.id << " (" << to_string(a.cls) << ") has no provider";
    }
    // provider/customer lists are mutually consistent.
    for (AsId p : net.providers[static_cast<std::size_t>(a.id)]) {
      const auto& custs = net.customers[static_cast<std::size_t>(p)];
      EXPECT_NE(std::find(custs.begin(), custs.end(), a.id), custs.end());
    }
  }
  // Cones include self and all customers.
  for (const auto& a : net.ases) {
    EXPECT_TRUE(net.in_cone(a.id, a.id));
    for (AsId c : net.customers[static_cast<std::size_t>(a.id)])
      EXPECT_TRUE(net.in_cone(a.id, c));
  }
}

TEST(Generator, Tier1CliquePeersGlobally) {
  Internet net = generate_internet(tiny_config());
  std::vector<AsId> tier1;
  for (const auto& a : net.ases)
    if (a.cls == AsClass::kTier1) tier1.push_back(a.id);
  for (std::size_t i = 0; i < tier1.size(); ++i)
    for (std::size_t j = i + 1; j < tier1.size(); ++j)
      EXPECT_TRUE(net.linked(tier1[i], tier1[j]));
}

TEST(Generator, LinkMetrosWithinFootprints) {
  Internet net = generate_internet(tiny_config());
  for (const auto& [key, li] : net.link_map) {
    AsId a = static_cast<AsId>(key & 0xffffffffULL);
    AsId b = static_cast<AsId>(key >> 32);
    ASSERT_FALSE(li.metros.empty());
    EXPECT_TRUE(std::is_sorted(li.metros.begin(), li.metros.end()));
    const auto& fa = net.ases[static_cast<std::size_t>(a)].footprint;
    const auto& fb = net.ases[static_cast<std::size_t>(b)].footprint;
    for (MetroId m : li.metros) {
      EXPECT_TRUE(std::binary_search(fa.begin(), fa.end(), m));
      EXPECT_TRUE(std::binary_search(fb.begin(), fb.end(), m));
    }
  }
}

TEST(Generator, TruthMatchesLinkMap) {
  Internet net = generate_internet(tiny_config());
  for (const auto& truth : net.truth) {
    for (std::size_t i = 0; i < truth.size(); ++i) {
      for (std::size_t j = i + 1; j < truth.size(); ++j) {
        bool expected =
            net.linked_at(truth.ases()[i], truth.ases()[j], truth.metro());
        EXPECT_EQ(truth.link(i, j), expected);
      }
    }
  }
}

TEST(Generator, MetroMembershipMatchesFootprints) {
  Internet net = generate_internet(tiny_config());
  for (const auto& metro : net.metros) {
    for (AsId as : metro.ases) {
      const auto& fp = net.ases[static_cast<std::size_t>(as)].footprint;
      EXPECT_TRUE(std::binary_search(fp.begin(), fp.end(), metro.id));
    }
  }
}

TEST(Generator, DeterministicUnderSeed) {
  Internet a = generate_internet(tiny_config(5));
  Internet b = generate_internet(tiny_config(5));
  ASSERT_EQ(a.link_map.size(), b.link_map.size());
  for (const auto& [key, li] : a.link_map) {
    auto it = b.link_map.find(key);
    ASSERT_NE(it, b.link_map.end());
    EXPECT_EQ(li.metros, it->second.metros);
  }
  Internet c = generate_internet(tiny_config(6));
  EXPECT_NE(a.link_map.size(), c.link_map.size());
}

TEST(Generator, FocusMetrosAreLarger) {
  Internet net = generate_internet(tiny_config());
  // First focus metro is metro 0 by construction.
  double focus_size = static_cast<double>(net.metros[0].ases.size());
  double other_total = 0.0;
  int others = 0;
  for (const auto& m : net.metros)
    if (m.name.rfind("Metro", 0) == 0) {
      other_total += static_cast<double>(m.ases.size());
      ++others;
    }
  ASSERT_GT(others, 0);
  EXPECT_GT(focus_size, other_total / others);
}

TEST(Generator, FocusMetroDensityInRealisticRange) {
  Internet net = generate_internet(tiny_config());
  const auto& truth = net.truth[0];
  ASSERT_GT(truth.size(), 20u);
  double pairs = 0.5 * static_cast<double>(truth.size()) *
                 static_cast<double>(truth.size() - 1);
  double density = static_cast<double>(truth.link_count()) / pairs;
  EXPECT_GT(density, 0.04);
  EXPECT_LT(density, 0.45);
}

TEST(Generator, IxpMembersArePresentAtMetro) {
  Internet net = generate_internet(tiny_config());
  ASSERT_FALSE(net.ixps.empty());
  for (const auto& ixp : net.ixps) {
    for (AsId m : ixp.members) {
      const auto& fp = net.ases[static_cast<std::size_t>(m)].footprint;
      EXPECT_TRUE(std::binary_search(fp.begin(), fp.end(), ixp.metro));
    }
    // Route-server users are members.
    for (AsId rs : ixp.route_server_users)
      EXPECT_NE(std::find(ixp.members.begin(), ixp.members.end(), rs),
                ixp.members.end());
  }
}

TEST(Generator, PairScoreIsSymmetric) {
  Internet net = generate_internet(tiny_config());
  const auto& a = net.ases[5];
  const auto& b = net.ases[50];
  EXPECT_DOUBLE_EQ(pair_score(a, b, net.num_continents),
                   pair_score(b, a, net.num_continents));
}

// Property sweep: the focus-metro truth matrix is substantially lower rank
// than a comparable random matrix -- the low-rankness premise (Appx. B).
class LowRanknessTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Tail energy past rank n/4 of the symmetric n x n matrix that holds +1
/// where `link(i, j)`, -1 elsewhere off the diagonal and 0 on it.
template <class Link>
double quarter_rank_tail_energy(std::size_t n, Link link) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) m(i, j) = link(i, j) ? 1.0 : -1.0;
  return linalg::relative_tail_energy(linalg::singular_values(m), n / 4);
}

TEST_P(LowRanknessTest, TruthTailEnergyDropsFast) {
  GeneratorConfig cfg = tiny_config(GetParam());
  Internet net = generate_internet(cfg);
  const auto& truth = net.truth[0];
  const std::size_t n = truth.size();
  ASSERT_GT(n, 20u);
  // 25% of the dimensions capture most of the energy.
  constexpr double kBound = 0.45;
  EXPECT_LT(quarter_rank_tail_energy(
                n, [&truth](std::size_t i, std::size_t j) {
                  return truth.link(i, j);
                }),
            kBound);

  // The control: as many links as the truth, placed uniformly at random.
  // Its tail stays above the bound, so the bound separates structure from
  // density.
  std::vector<char> cells(n * (n - 1) / 2, 0);
  std::fill_n(cells.begin(), truth.link_count(), 1);
  util::Rng rng(GetParam());
  rng.shuffle(cells);
  std::vector<char> control(n * n, 0);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      control[i * n + j] = control[j * n + i] = cells[next++];
  EXPECT_GT(quarter_rank_tail_energy(
                n, [&control, n](std::size_t i, std::size_t j) {
                  return control[i * n + j] != 0;
                }),
            kBound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowRanknessTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace metas::topology
