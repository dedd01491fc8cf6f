// The probability matrix P_m (§3.3.2): for every candidate link, the
// estimated probability that a targeted traceroute can be selected that will
// be informative, tracked per measurement strategy.
//
// Per-strategy success rates are Beta-Bernoulli counters; a new metro's
// counters are initialized from a hierarchical prior pooled over previously
// processed metros (Appx. D.6).  Per-(link, strategy) multiplicative
// penalties shrink after uninformative attempts so the scheduler diversifies
// away from elusive links.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/measurement_system.hpp"
#include "core/metro_context.hpp"
#include "traceroute/strategy.hpp"

namespace metas::core {
// Encoder/Decoder come via measurement_system.hpp -> evidence.hpp's forward
// declarations; checkpoint.hpp itself is only needed in the .cpp.

/// Pooled per-strategy outcome counts carried across metros.
struct StrategyPriors {
  std::array<double, traceroute::kNumStrategies> alpha{};  // informative
  std::array<double, traceroute::kNumStrategies> beta{};   // uninformative
  int metros_observed = 0;

  /// Adds one metro's posterior counts into the pool.
  void absorb(const std::array<double, traceroute::kNumStrategies>& a,
              const std::array<double, traceroute::kNumStrategies>& b);

  /// Checkpoint serialization (the pool crosses metro boundaries, so it is
  /// part of every CLI snapshot).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar);
};

/// The chosen way to measure a link.
struct StrategyChoice {
  int vp_cat = -1;
  int tgt_cat = -1;
  bool swapped = false;  // probe near j, target in i
  double probability = 0.0;
};

inline constexpr double kPenaltyFactor = 0.6;   // link penalty per failed try
inline constexpr double kPriorAlpha = 1.0;      // optimistic uniform prior
inline constexpr double kPriorBeta = 2.0;
inline constexpr double kPriorStrength = 20.0;  // max pooled pseudo-counts

class ProbabilityMatrix {
 public:
  /// Bounds for the entries (i, j) of one row i, from P_m's state when
  /// row_bound(i) built them: per category of j, the best success(v, t) *
  /// the largest pool factor over the allowed strategies i can pair it with.
  struct RowBound {
    std::array<double, traceroute::kTargetCategories> near_i{};  // i probes
    std::array<double, traceroute::kVpCategories> near_j{};      // j probes
  };

  /// Takes availability for every AS in the context (both VP and target
  /// categories) from the measurement plane's candidate index, and
  /// initializes strategy counters from `priors` (may be null).
  ProbabilityMatrix(const MetroContext& ctx, MeasurementSystem& ms,
                    const StrategyPriors* priors);

  /// Current success estimate of a strategy (before link penalties).
  double strategy_prob(int strategy) const;

  /// Best strategy and its probability for entry (i, j) (local indices),
  /// considering both probe-near-i and probe-near-j orientations.
  StrategyChoice choose(int i, int j) const;

  /// P_ijm: the probability of the best available strategy.
  double entry_prob(int i, int j) const { return choose(i, j).probability; }

  RowBound row_bound(int i) const;
  /// At least entry_prob(i, j) while P_m is as row_bound(i) found it
  /// (DESIGN.md §14).
  double bound(const RowBound& b, int j) const;

  /// Records a measurement outcome for entry (i, j) with the used strategy;
  /// the choice must name one (a pick without a strategy measured nothing).
  void record(int i, int j, const StrategyChoice& choice, bool informative);

  /// Exports posterior counts into the hierarchical pool.
  void export_priors(StrategyPriors& pool) const;

  /// Restricts usable strategies (used by the IXP-mapped baseline):
  /// only VP categories with topo in {InAs, InCone} and targets in the far
  /// AS itself, at metro or country geo scope.
  void restrict_to_ixp_mapped();

  // No checkpoint of its own: P_m is its constructor plus the records the
  // scheduler replays into it on load.

 private:
  /// One link penalty of an ordered (near, far) entry.
  struct Penalty {
    int strategy = 0;
    double factor = 1.0;
  };

  double dir_prob(int near, int far, int* best_vp, int* best_tgt) const;
  std::size_t entry(int near, int far) const;  // index into penalty_list_
  /// The factor of `strategy` at entry `at`, inserted at 1.0 when absent.
  double& penalty(std::size_t at, int strategy);
  void refresh_success(std::size_t s);

  std::size_t n_ = 0;
  std::array<double, traceroute::kNumStrategies> alpha_{}, beta_{};
  std::array<bool, traceroute::kNumStrategies> allowed_{};
  // Link penalties, one list per ordered (near, far) entry in ascending
  // strategy order: penalty_list_[entry] is 0 for an entry without any,
  // else 1 + the index of its list in penalty_lists_.
  std::vector<std::uint32_t> penalty_list_;
  std::vector<std::vector<Penalty>> penalty_lists_;

  // alpha / (alpha + beta) per strategy, the candidate-pool factor per
  // pool size and its largest value, and, built by the constructor, per
  // local AS its non-empty VP and target categories in ascending order
  // with their counts -- the only categories dir_prob can score.
  std::array<double, traceroute::kNumStrategies> success_{};
  std::vector<double> pool_factor_;
  double pool_max_ = 0.0;
  template <std::size_t N>
  struct Available {
    std::size_t size = 0;
    std::array<int, N> category{};
    std::array<std::size_t, N> count{};
  };
  std::vector<Available<traceroute::kVpCategories>> vp_available_;
  std::vector<Available<traceroute::kTargetCategories>> tgt_available_;
};

}  // namespace metas::core
