// Neural collaborative filtering comparison model (Appx. E.2 / Fig. 8).
//
// Learns per-AS embeddings and a one-hidden-layer MLP scoring head trained
// jointly by SGD on observed ratings -- the non-linear recommender the paper
// compares against its linear ALS (finding near-identical AUC at higher
// complexity). Deterministic under the config seed.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace metas::baselines {

struct NcfConfig {
  int embedding_dim = 12;
  int epochs = 30;
  std::uint64_t seed = 37;
};

/// One observed symmetric rating.
struct NcfEntry {
  int i = 0, j = 0;
  double value = 0.0;  // in [-1, 1]
};

class NeuralCollabFilter {
 public:
  NeuralCollabFilter(int num_items, NcfConfig cfg = {});

  /// SGD training on observed entries (each entry used in both (i,j) and
  /// (j,i) orientations to respect symmetry).
  void fit(const std::vector<NcfEntry>& observed);

  /// Predicted rating, squashed to (-1, 1) by tanh.
  double predict(int i, int j) const;

 private:
  double forward(int i, int j, std::vector<double>* hidden_out) const;

  int n_;
  NcfConfig cfg_;
  std::vector<std::vector<double>> emb_;              // n x d embeddings
  std::vector<std::vector<double>> w1_;               // hidden x 2d
  std::vector<double> b1_;                            // hidden
  std::vector<double> w2_;                            // hidden
  double b2_ = 0.0;
};

}  // namespace metas::baselines
