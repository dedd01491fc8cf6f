#include "baselines/forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/numeric.hpp"

namespace metas::baselines {

namespace {

constexpr std::size_t kMinLeaf = 4;
constexpr double kFeatureSubsample = 0.7;  // features considered per split
constexpr double kRowSubsample = 0.8;      // bootstrap fraction per tree

double subset_mean(const std::vector<double>& y,
                   const std::vector<std::size_t>& rows) {
  double s = 0.0;
  for (std::size_t r : rows) s += y[r];
  return rows.empty() ? 0.0 : s / static_cast<double>(rows.size());
}

}  // namespace

int RegressionTree::build(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y,
                          std::vector<std::size_t>& rows, int depth,
                          int max_depth, std::size_t min_leaf,
                          double feature_subsample, util::Rng& rng) {
  Node node;
  node.value = subset_mean(y, rows);
  int idx = mac::checked_cast<int>(nodes_.size());
  nodes_.push_back(node);

  if (depth >= max_depth || rows.size() < 2 * min_leaf) return idx;

  const std::size_t d = x.front().size();
  // Variance-reduction split search over a random feature subset.
  double parent_sse = 0.0;
  for (std::size_t r : rows) {
    double dlt = y[r] - node.value;
    parent_sse += dlt * dlt;
  }
  int best_feature = -1;
  double best_threshold = 0.0, best_sse = parent_sse - 1e-12;

  std::vector<double> column(rows.size());
  for (std::size_t f = 0; f < d; ++f) {
    if (!rng.bernoulli(feature_subsample)) continue;
    for (std::size_t k = 0; k < rows.size(); ++k) column[k] = x[rows[k]][f];
    std::vector<std::size_t> order(rows.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return column[a] < column[b];
    });
    // Prefix sums over the sorted order allow O(1) SSE at each cut.
    double total = 0.0, total_sq = 0.0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      double v = y[rows[order[k]]];
      total += v;
      total_sq += v * v;
    }
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t k = 0; k + 1 < rows.size(); ++k) {
      double v = y[rows[order[k]]];
      left_sum += v;
      left_sq += v * v;
      if (mac::exact_eq(column[order[k]], column[order[k + 1]])) continue;  // no cut here
      std::size_t nl = k + 1, nr = rows.size() - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      double right_sum = total - left_sum, right_sq = total_sq - left_sq;
      double sse = (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
                   (right_sq - right_sum * right_sum / static_cast<double>(nr));
      if (sse < best_sse) {
        best_sse = sse;
        best_feature = mac::checked_cast<int>(f);
        best_threshold = 0.5 * (column[order[k]] + column[order[k + 1]]);
      }
    }
  }
  if (best_feature < 0) return idx;

  std::vector<std::size_t> left, right;
  for (std::size_t r : rows) {
    (x[r][mac::checked_cast<std::size_t>(best_feature)] <= best_threshold ? left
                                                                    : right)
        .push_back(r);
  }
  if (left.empty() || right.empty()) return idx;

  nodes_[mac::checked_cast<std::size_t>(idx)].feature = best_feature;
  nodes_[mac::checked_cast<std::size_t>(idx)].threshold = best_threshold;
  int l = build(x, y, left, depth + 1, max_depth, min_leaf, feature_subsample,
                rng);
  int r = build(x, y, right, depth + 1, max_depth, min_leaf, feature_subsample,
                rng);
  nodes_[mac::checked_cast<std::size_t>(idx)].left = l;
  nodes_[mac::checked_cast<std::size_t>(idx)].right = r;
  return idx;
}

void RegressionTree::fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y,
                         const std::vector<std::size_t>& rows, int max_depth,
                         std::size_t min_leaf, double feature_subsample,
                         util::Rng& rng) {
  nodes_.clear();
  std::vector<std::size_t> r = rows;
  build(x, y, r, 0, max_depth, min_leaf, feature_subsample, rng);
}

double RegressionTree::predict(const std::vector<double>& x) const {
  if (nodes_.empty()) return 0.0;
  int cur = 0;
  while (true) {
    const Node& n = nodes_[mac::checked_cast<std::size_t>(cur)];
    if (n.feature < 0 || n.left < 0 || n.right < 0) return n.value;
    cur = x[mac::checked_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                : n.right;
  }
}

void RandomForest::fit(const std::vector<std::vector<double>>& x,
                       const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size())
    throw std::invalid_argument("RandomForest::fit: bad training data");
  const std::size_t d = x.front().size();
  for (const auto& row : x)
    if (row.size() != d)
      throw std::invalid_argument("RandomForest::fit: ragged features");

  util::Rng rng(cfg_.seed);
  trees_.assign(mac::checked_cast<std::size_t>(cfg_.trees), {});
  for (auto& tree : trees_) {
    // Bootstrap sample of row indices.
    auto want = mac::trunc_cast<std::size_t>(
        std::max(1.0, kRowSubsample * static_cast<double>(x.size())));
    std::vector<std::size_t> rows(want);
    for (std::size_t k = 0; k < want; ++k) rows[k] = rng.index(x.size());
    tree.fit(x, y, rows, cfg_.max_depth, kMinLeaf, kFeatureSubsample, rng);
  }
}

double RandomForest::predict(const std::vector<double>& x) const {
  if (trees_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& t : trees_) s += t.predict(x);
  return s / static_cast<double>(trees_.size());
}

}  // namespace metas::baselines
