// Deterministic random number generation for all stochastic components.
//
// Every stochastic piece of metAScritic (topology generation, traceroute
// failure, scheduler tie-breaking, split selection, ...) draws from an
// explicitly seeded Rng passed by reference.  There is no global RNG state,
// so benches and tests regenerate identical tables from identical seeds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/numeric.hpp"

namespace metas::util {

/// Running sums of a weight vector, built once for any number of
/// Rng::weighted_index draws over the same weights.  Weights must be finite
/// and non-negative with a positive, finite total.
class CumulativeWeights {
 public:
  explicit CumulativeWeights(const std::vector<double>& weights) {
    sums_.reserve(weights.size());
    double total = 0.0;
    for (double w : weights) {
      if (w < 0.0) throw std::invalid_argument("Rng::weighted_index: negative weight");
      if (!std::isfinite(w))
        throw std::invalid_argument("Rng::weighted_index: non-finite weight");
      total += w;
      sums_.push_back(total);
    }
    if (total <= 0.0)
      throw std::invalid_argument("Rng::weighted_index: all weights zero");
    if (!std::isfinite(total))
      throw std::invalid_argument("Rng::weighted_index: weights overflow");
  }

  const std::vector<double>& sums() const { return sums_; }

 private:
  std::vector<double> sums_;
};

/// Seeded pseudo-random generator wrapping std::mt19937_64 with the
/// convenience draws used throughout the code base.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform size_t index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Standard normal draw scaled to N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Geometric-ish draw: exponential with given mean, useful for sizes.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Pareto draw with scale x_m and shape alpha (heavy-tailed sizes, e.g.
  /// customer cones and eyeball populations).
  double pareto(double x_m, double alpha) {
    double u = 1.0 - uniform();
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Pick a uniformly random element (by const reference). Requires !v.empty().
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    if (v.empty()) throw std::invalid_argument("Rng::pick: empty vector");
    return v[index(v.size())];
  }

  /// Sample k distinct indices from [0, n) without replacement.
  /// If k >= n, returns all n indices (shuffled).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    shuffle(idx);
    if (k < n) idx.resize(k);
    return idx;
  }

  /// Weighted index draw: the first index whose running sum exceeds
  /// uniform() * total, one uniform() per draw.
  std::size_t weighted_index(const CumulativeWeights& weights) {
    const std::vector<double>& sums = weights.sums();
    const double r = uniform() * sums.back();
    const auto i = std::upper_bound(sums.begin(), sums.end(), r) - sums.begin();
    // uniform() * total can round up to the total, which no running sum
    // exceeds: that draw returns the last index.
    return std::min(mac::checked_cast<std::size_t>(i), sums.size() - 1);
  }

  /// Weighted index draw proportional to non-negative, finite weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights) {
    return weighted_index(CumulativeWeights(weights));
  }

  /// Derive an independent child generator (for parallel or per-entity use).
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

  /// Serializes the engine's exact stream position (checkpoint/resume).
  /// mt19937_64's textual state is fully specified by the standard, so the
  /// round trip is portable and byte-stable.
  std::string save_state() const {
    std::ostringstream os;
    os << engine_;
    return os.str();
  }

  /// Restores a state produced by save_state().  Resets the cached unit
  /// distribution so no stale per-distribution state leaks across restore.
  void restore_state(const std::string& state) {
    std::istringstream is(state);
    is >> engine_;
    if (is.fail())
      throw std::invalid_argument("Rng::restore_state: malformed state");
    unit_.reset();
  }

 private:
  std::mt19937_64 engine_;  // lint: allow(unseeded-engine) seeded in the ctor
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace metas::util
