#include "core/probability.hpp"

#include <algorithm>
#include <cmath>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using traceroute::kNumStrategies;
using traceroute::kNumTargetTopo;
using traceroute::kNumVpTopo;
using traceroute::kTargetCategories;
using traceroute::kVpCategories;

namespace {

// The candidate-pool term of dir_prob saturates once pool + 1 passes 1000,
// so every pool from kPoolSaturated on shares the last memo entry.
constexpr std::size_t kPoolSaturated = 1000;

/// A pooled count a run can reach: finite and non-negative.
bool valid_count(double c) { return std::isfinite(c) && c >= 0.0; }

}  // namespace

void StrategyPriors::absorb(
    const std::array<double, kNumStrategies>& a,
    const std::array<double, kNumStrategies>& b) {
  for (int s = 0; s < kNumStrategies; ++s) {
    alpha[mac::checked_cast<std::size_t>(s)] += a[mac::checked_cast<std::size_t>(s)];
    beta[mac::checked_cast<std::size_t>(s)] += b[mac::checked_cast<std::size_t>(s)];
  }
  ++metros_observed;
}

ProbabilityMatrix::ProbabilityMatrix(const MetroContext& ctx,
                                     MeasurementSystem& ms,
                                     const StrategyPriors* priors)
    : n_(ctx.size()), vp_available_(n_), tgt_available_(n_) {
  const CandidateIndex& candidates = ms.candidates(ctx);
  auto collect = [](auto& a, int c, std::size_t count) {
    if (count == 0) return;
    a.category[a.size] = c;
    a.count[a.size++] = count;
  };
  for (std::size_t i = 0; i < n_; ++i) {
    for (int c = 0; c < kVpCategories; ++c)
      collect(vp_available_[i], c, candidates.vps(i, c).size());
    for (int c = 0; c < kTargetCategories; ++c)
      collect(tgt_available_[i], c, candidates.targets(i, c).size());
  }
  allowed_.fill(true);

  for (int s = 0; s < kNumStrategies; ++s) {
    auto si = mac::checked_cast<std::size_t>(s);
    alpha_[si] = kPriorAlpha;
    beta_[si] = kPriorBeta;
    if (priors != nullptr && priors->metros_observed > 0) {
      // Shrink the pooled counts to at most kPriorStrength pseudo-
      // observations: hierarchical partial pooling (Appx. D.6).
      double tot = priors->alpha[si] + priors->beta[si];
      if (tot > 0.0) {
        double scale = std::min(1.0, kPriorStrength / tot);
        alpha_[si] += priors->alpha[si] * scale;
        beta_[si] += priors->beta[si] * scale;
      }
    }
    refresh_success(si);
  }
  penalty_list_.assign(n_ * n_, 0);
  // Larger candidate pools make a strategy more likely to pan out.  The
  // memo is filled at run time on purpose: a table the compiler folds
  // may round log10 differently from the C library.
  pool_factor_.resize(kPoolSaturated + 1);
  for (std::size_t pool = 0; pool < pool_factor_.size(); ++pool)
    pool_factor_[pool] =
        1.0 + 0.08 * std::min(3.0, std::log10(static_cast<double>(pool) + 1.0));
  pool_max_ = *std::max_element(pool_factor_.begin(), pool_factor_.end());
}

void ProbabilityMatrix::refresh_success(std::size_t s) {
  success_[s] = alpha_[s] / (alpha_[s] + beta_[s]);
}

double ProbabilityMatrix::strategy_prob(int strategy) const {
  MAC_REQUIRE(strategy >= 0 && strategy < kNumStrategies,
              "strategy=", strategy);
  auto si = mac::checked_cast<std::size_t>(strategy);
  double p = success_[si];
  MAC_ENSURE(p >= 0.0 && p <= 1.0, "p=", p, " alpha=", alpha_[si],
             " beta=", beta_[si]);
  return p;
}

std::size_t ProbabilityMatrix::entry(int near, int far) const {
  // Ordered (near, far): the orientation matters for the penalty.
  return mac::checked_cast<std::size_t>(near) * n_ +
         mac::checked_cast<std::size_t>(far);
}

double& ProbabilityMatrix::penalty(std::size_t at, int strategy) {
  std::uint32_t& list = penalty_list_[at];
  if (list == 0) {
    penalty_lists_.emplace_back();
    list = mac::checked_cast<std::uint32_t>(penalty_lists_.size());
  }
  auto& pens = penalty_lists_[list - 1];
  auto it = std::lower_bound(
      pens.begin(), pens.end(), strategy,
      [](const Penalty& p, int s) { return p.strategy < s; });
  if (it == pens.end() || it->strategy != strategy)
    it = pens.insert(it, Penalty{strategy, 1.0});
  return it->factor;
}

double ProbabilityMatrix::dir_prob(int near, int far, int* best_vp,
                                   int* best_tgt) const {
  const auto& va = vp_available_[mac::checked_cast<std::size_t>(near)];
  const auto& ta = tgt_available_[mac::checked_cast<std::size_t>(far)];
  // The strategies below come in ascending order, and so does the entry's
  // penalty list: one forward walk finds each strategy's penalty.
  const Penalty* pen = nullptr;
  const Penalty* pen_end = nullptr;
  if (const std::uint32_t list = penalty_list_[entry(near, far)]; list != 0) {
    const auto& pens = penalty_lists_[list - 1];
    pen = pens.data();
    pen_end = pen + pens.size();
  }
  double best = 0.0;
  for (std::size_t a = 0; a < va.size; ++a) {
    const int v = va.category[a];
    const std::size_t nv = va.count[a];
    for (std::size_t b = 0; b < ta.size; ++b) {
      const int t = ta.category[b];
      // traceroute::strategy_index(v, t), inline.
      const int s = v * kTargetCategories + t;
      const auto si = mac::checked_cast<std::size_t>(s);
      if (!allowed_[si]) continue;
      double p = success_[si];
      p *= pool_factor_[std::min(nv * ta.count[b], kPoolSaturated)];
      while (pen != pen_end && pen->strategy < s) ++pen;
      if (pen != pen_end && pen->strategy == s) p *= pen->factor;
      if (p > best) {
        best = p;
        if (best_vp != nullptr) *best_vp = v;
        if (best_tgt != nullptr) *best_tgt = t;
      }
    }
  }
  MAC_ENSURE(best >= 0.0, "best=", best);
  return std::min(best, 1.0);
}

ProbabilityMatrix::RowBound ProbabilityMatrix::row_bound(int i) const {
  MAC_REQUIRE(i >= 0 && mac::checked_cast<std::size_t>(i) < n_, "i=", i,
              " n=", n_);
  // dir_prob(i, j) pairs i's VP categories with j's target categories, and
  // dir_prob(j, i) j's VP categories with i's target categories.
  RowBound b;
  auto raise = [&](int v, int t, double& to) {
    const auto si = mac::checked_cast<std::size_t>(v * kTargetCategories + t);
    if (allowed_[si]) to = std::max(to, success_[si] * pool_max_);
  };
  const auto at = mac::checked_cast<std::size_t>(i);
  for (std::size_t a = 0; a < vp_available_[at].size; ++a)
    for (int t = 0; t < kTargetCategories; ++t)
      raise(vp_available_[at].category[a], t,
            b.near_i[mac::checked_cast<std::size_t>(t)]);
  for (std::size_t a = 0; a < tgt_available_[at].size; ++a)
    for (int v = 0; v < kVpCategories; ++v)
      raise(v, tgt_available_[at].category[a],
            b.near_j[mac::checked_cast<std::size_t>(v)]);
  return b;
}

double ProbabilityMatrix::bound(const RowBound& b, int j) const {
  const auto at = mac::checked_cast<std::size_t>(j);
  double best = 0.0;
  for (std::size_t a = 0; a < tgt_available_[at].size; ++a)
    best = std::max(best, b.near_i[mac::checked_cast<std::size_t>(
                              tgt_available_[at].category[a])]);
  for (std::size_t a = 0; a < vp_available_[at].size; ++a)
    best = std::max(best, b.near_j[mac::checked_cast<std::size_t>(
                              vp_available_[at].category[a])]);
  return best;
}

StrategyChoice ProbabilityMatrix::choose(int i, int j) const {
  MAC_REQUIRE(i >= 0 && j >= 0 && mac::checked_cast<std::size_t>(i) < n_ &&
                  mac::checked_cast<std::size_t>(j) < n_ && i != j,
              "i=", i, " j=", j, " n=", n_);
  StrategyChoice c;
  int vp_a = -1, tgt_a = -1, vp_b = -1, tgt_b = -1;
  double pa = dir_prob(i, j, &vp_a, &tgt_a);
  double pb = dir_prob(j, i, &vp_b, &tgt_b);
  if (pa >= pb) {
    c.vp_cat = vp_a;
    c.tgt_cat = tgt_a;
    c.swapped = false;
    c.probability = pa;
  } else {
    c.vp_cat = vp_b;
    c.tgt_cat = tgt_b;
    c.swapped = true;
    c.probability = pb;
  }
  return c;
}

void ProbabilityMatrix::record(int i, int j, const StrategyChoice& choice,
                               bool informative) {
  MAC_REQUIRE(choice.probability >= 0.0 && choice.probability <= 1.0,
              "probability=", choice.probability);
  MAC_REQUIRE(choice.vp_cat >= 0 && choice.vp_cat < kVpCategories &&
                  choice.tgt_cat >= 0 && choice.tgt_cat < kTargetCategories,
              "vp_cat=", choice.vp_cat, " tgt_cat=", choice.tgt_cat);
  int s = traceroute::strategy_index(choice.vp_cat, choice.tgt_cat);
  auto si = mac::checked_cast<std::size_t>(s);
  if (informative) {
    alpha_[si] += 1.0;
  } else {
    beta_[si] += 1.0;
    int near = choice.swapped ? j : i;
    int far = choice.swapped ? i : j;
    penalty(entry(near, far), s) *= kPenaltyFactor;
  }
  refresh_success(si);
}

void ProbabilityMatrix::export_priors(StrategyPriors& pool) const {
  std::array<double, kNumStrategies> da{}, db{};
  for (int s = 0; s < kNumStrategies; ++s) {
    auto si = mac::checked_cast<std::size_t>(s);
    da[si] = std::max(0.0, alpha_[si] - kPriorAlpha);
    db[si] = std::max(0.0, beta_[si] - kPriorBeta);
  }
  pool.absorb(da, db);
}

void ProbabilityMatrix::restrict_to_ixp_mapped() {
  using traceroute::Strategy;
  using traceroute::TargetTopo;
  using traceroute::VpTopo;
  using topology::GeoScope;
  for (int s = 0; s < kNumStrategies; ++s) {
    Strategy st = traceroute::strategy_from_index(s);
    bool ok = (st.vp_topo == VpTopo::kInAs || st.vp_topo == VpTopo::kInCone) &&
              (st.vp_geo == GeoScope::kSameMetro ||
               st.vp_geo == GeoScope::kSameCountry) &&
              st.tgt_topo != TargetTopo::kInCone;
    allowed_[mac::checked_cast<std::size_t>(s)] = ok;
  }
}

template <class Self, class Ar>
void StrategyPriors::io(Self& s, Ar& ar) {
  ar(s.alpha, s.beta, s.metros_observed);
  // ProbabilityMatrix scales the pooled counts into its Beta priors.
  if constexpr (Ar::kLoading) {
    if (!std::all_of(s.alpha.begin(), s.alpha.end(), valid_count) ||
        !std::all_of(s.beta.begin(), s.beta.end(), valid_count) ||
        s.metros_observed < 0)
      throw util::checkpoint::CheckpointError(
          "strategy priors hold a negative or non-finite count");
  }
}

void StrategyPriors::save(util::checkpoint::Encoder& enc) const {
  io(*this, enc);
}

void StrategyPriors::load(util::checkpoint::Decoder& dec) { io(*this, dec); }

}  // namespace metas::core
