// Hybrid matrix completion with Alternating Least Squares (§3.1, Appx. D.4).
//
// The symmetric rating matrix E_m is augmented with one extra row/column per
// encoded AS feature; feature entries are observed ratings down-weighted by
// `feature_weight`.  Two factor matrices P and Q over the augmented index
// space are alternately refit by ridge-regularized least squares, and the
// completed rating for an AS pair is the symmetrized clamped inner product.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimated_matrix.hpp"
#include "core/features.hpp"
#include "linalg/matrix.hpp"
#include "util/cancel.hpp"

namespace metas::core {

struct AlsConfig {
  int rank = 8;
  double lambda = 0.08;          // ridge regularizer
  double feature_weight = 0.5;   // weight of feature entries
  int iterations = 10;
  /// Weight observations by |rating| (transferred low-confidence entries
  /// count less). Floor keeps weak entries from vanishing entirely.
  bool confidence_weighting = true;
  /// Reweight negative entries so both classes carry equal total weight
  /// (the "balanced" estimated connectivity matrix of Table 1); capped.
  bool balance_classes = true;
  std::uint64_t seed = 7;
};

inline constexpr double kConfidenceFloor = 0.05;  // least confidence weight
inline constexpr double kBalanceCap = 4.0;        // most negative-entry boost

/// One observed entry of the (AS x AS) block in matrix coordinates.
struct RatingEntry {
  std::size_t i = 0, j = 0;  // i != j, unordered pair given once
  double value = 0.0;
};

/// Extracts the upper-triangle rating entries of an EstimatedMatrix.
std::vector<RatingEntry> rating_entries(const EstimatedMatrix& e);

/// Feature-augmented symmetric ALS completer.
class AlsCompleter {
 public:
  /// `n` ASes, plus the encoded features. The feature matrix may be empty.
  /// Throws std::invalid_argument unless rank >= 1, iterations >= 1, lambda
  /// is positive and finite, and feature_weight is non-negative and finite.
  AlsCompleter(std::size_t n, const FeatureMatrix& features, AlsConfig cfg);

  /// Fits the factors on the given observed ratings.  `control` (may be
  /// null) is polled between ALS sweeps: a stop finishes the sweep in
  /// flight, and at least one full sweep always runs, so the factors are
  /// usable after any interrupted fit.
  void fit(const std::vector<RatingEntry>& observed,
           const util::RunControl* control = nullptr);

  /// Completed rating for an AS pair, clamped to [-1, 1].
  double predict(std::size_t i, std::size_t j) const;

  /// Mean squared error over held-out entries.
  double mse(const std::vector<RatingEntry>& held_out) const;

  /// Full completed matrix (symmetric, diagonal zero).
  linalg::Matrix completed() const;

  const AlsConfig& config() const { return cfg_; }
  std::size_t num_ases() const { return n_; }

  /// Iterations the last fit() actually ran (== cfg.iterations unless a
  /// stop control truncated the sweep loop).
  int iterations_run() const { return iterations_run_; }

  /// Fitted factors (total x rank): the AS rows, then one per feature.
  const linalg::Matrix& p() const { return p_; }
  const linalg::Matrix& q() const { return q_; }

 private:
  /// One weighted rating an AS row observes.
  struct Observation {
    std::size_t col = 0;
    double value = 0.0, weight = 0.0;
  };

  /// Refits one factor side; returns the summed |delta| of updated entries
  /// (the per-iteration convergence signal surfaced via telemetry).  R is
  /// the rank as a compile-time constant, or linalg::kDynamic to read it
  /// from the config (DESIGN.md §15).
  template <std::size_t R>
  double solve_side(const linalg::Matrix& fixed, linalg::Matrix& solved);

  using SolveSide = double (AlsCompleter::*)(const linalg::Matrix&,
                                             linalg::Matrix&);
  /// The solve_side instantiation a fit at `rank` runs.
  static SolveSide solve_side_for(std::size_t rank);

  std::size_t n_ = 0;       // AS count
  std::size_t total_ = 0;   // n + feature count
  AlsConfig cfg_;
  linalg::Matrix p_, q_;    // total_ x rank factors
  // CSR observations built at fit(): AS row i observes obs_[obs_start_[i]
  // .. obs_start_[i + 1]) in input order.  Feature entries stay in place.
  std::vector<std::size_t> obs_start_;
  std::vector<Observation> obs_;
  // Every AS row's feature weights fw v, built at fit() in the lane order
  // solve_side reads them: for each block of rows solved together, feature
  // by feature, a weight per lane, zero past n (DESIGN.md §15).
  std::vector<double> feature_w_;
  const FeatureMatrix* features_;  // lint: allow(view-member) -- caller-owned matrix bound at fit() time; solvers are transient helpers
  int iterations_run_ = 0;
  bool fitted_ = false;
};

}  // namespace metas::core
