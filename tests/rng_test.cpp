// Tests for the deterministic RNG wrapper.
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

namespace metas::util {
namespace {

TEST(Rng, DeterministicUnderSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(2, 5));
  EXPECT_EQ(seen, (std::set<int>{2, 3, 4, 5}));
  EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
}

TEST(Rng, IndexErrorsOnZero) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(22);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(5);
  auto idx = rng.sample_indices(10, 4);
  EXPECT_EQ(idx.size(), 4u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 4u);
  for (std::size_t i : idx) EXPECT_LT(i, 10u);
  // Requesting more than available returns everything.
  auto all = rng.sample_indices(3, 10);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(6);
  std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.35);
}

TEST(Rng, WeightedIndexErrors) {
  Rng rng(1);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{}), std::invalid_argument);
  // A non-finite weight or total would send every draw to the last index.
  EXPECT_THROW(rng.weighted_index({1.0, nan, 1.0, 5.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({inf, 1.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({1.0, -inf}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({big, big}), std::invalid_argument);
  EXPECT_THROW(CumulativeWeights({2.0, nan}), std::invalid_argument);
  // A rejected table draws nothing: the stream is where a fresh one starts.
  EXPECT_EQ(rng.uniform(), Rng(1).uniform());
}

// The per-call linear scan over the weights, the reference for the
// prefix-sum draw: the same sums in the same order, one uniform() per draw.
std::size_t linear_scan_draw(Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  const double r = rng.uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

TEST(Rng, PrefixSumDrawsMatchLinearScan) {
  Rng gen(77);
  std::size_t draws = 0;
  for (int v = 0; v < 500; ++v) {
    const std::size_t n = 1 + gen.index(48);
    std::vector<double> w(n, 0.0);
    if (v % 5 == 0) {
      // A single positive weight anywhere.
      w[gen.index(n)] = std::pow(10.0, gen.uniform(-6.0, 6.0));
    } else {
      // Magnitudes over 24 decades with interior zero runs, then a leading
      // and a trailing zero run.
      for (double& x : w)
        x = gen.bernoulli(0.35) ? 0.0 : std::pow(10.0, gen.uniform(-12.0, 12.0));
      const auto run = [&] { return static_cast<std::ptrdiff_t>(gen.index(n)); };
      std::fill(w.begin(), w.begin() + run(), 0.0);
      std::fill(w.end() - run(), w.end(), 0.0);
      if (std::all_of(w.begin(), w.end(), [](double x) { return x == 0.0; }))
        w[gen.index(n)] = 1.0;
    }
    const CumulativeWeights sums(w);
    const std::uint64_t seed = gen.engine()();
    Rng a(seed), b(seed);
    for (int k = 0; k < 25; ++k, ++draws) {
      const std::size_t expected = linear_scan_draw(b, w);
      // Alternate the two entry points: both take one uniform() per draw.
      const std::size_t got =
          k % 2 == 0 ? a.weighted_index(sums) : a.weighted_index(w);
      ASSERT_EQ(got, expected) << "vector " << v << " draw " << k;
    }
  }
  EXPECT_GE(draws, 10000u);
}

TEST(Rng, PickErrorsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, ForkIndependence) {
  Rng a(99);
  Rng child = a.fork();
  // The fork and the parent produce different streams.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform() == child.uniform()) ++same;
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace metas::util
