// Bagged regression trees ("random forest" baseline of Appx. E.2 / Fig. 8).
//
// A feature-only classifier that ignores the global structure of the
// connectivity matrix: trained on pair-feature vectors with +/-1 labels, it
// serves both as the decision-tree comparison point and as the surrogate
// model on which Shapley explanations are computed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace metas::baselines {

struct ForestConfig {
  int trees = 40;
  int max_depth = 6;
  std::uint64_t seed = 31;
};

/// CART-style regression tree (axis-aligned splits, mean leaves).
class RegressionTree {
 public:
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y,
           const std::vector<std::size_t>& rows, int max_depth,
           std::size_t min_leaf, double feature_subsample, util::Rng& rng);
  double predict(const std::vector<double>& x) const;
  bool empty() const { return nodes_.empty(); }

 private:
  struct Node {
    int feature = -1;       // -1 for leaves
    double threshold = 0.0;
    double value = 0.0;     // leaf mean
    int left = -1, right = -1;
  };
  int build(const std::vector<std::vector<double>>& x,
            const std::vector<double>& y, std::vector<std::size_t>& rows,
            int depth, int max_depth, std::size_t min_leaf,
            double feature_subsample, util::Rng& rng);
  std::vector<Node> nodes_;
};

/// Bagged ensemble of regression trees.
class RandomForest {
 public:
  explicit RandomForest(ForestConfig cfg = {}) : cfg_(cfg) {}

  /// Fits on feature rows and real-valued targets (e.g. ratings in [-1,1]).
  /// Throws std::invalid_argument on empty or ragged input.
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y);

  double predict(const std::vector<double>& x) const;

 private:
  ForestConfig cfg_;
  std::vector<RegressionTree> trees_;
};

}  // namespace metas::baselines
