#include "core/als.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/solve.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace metas::core {

std::vector<RatingEntry> rating_entries(const EstimatedMatrix& e) {
  std::vector<RatingEntry> out;
  for (auto [i, j] : e.filled_entries()) out.push_back({i, j, e.value(i, j)});
  return out;
}

AlsCompleter::AlsCompleter(std::size_t n, const FeatureMatrix& features,
                           AlsConfig cfg)
    : n_(n), total_(n + features.count()), cfg_(cfg), features_(&features) {
  if (cfg.rank < 1) throw std::invalid_argument("AlsCompleter: rank < 1");
  if (cfg.iterations < 1)
    throw std::invalid_argument("AlsCompleter: iterations < 1");
  // Written so a NaN fails each test.
  if (!(cfg.lambda > 0.0 && std::isfinite(cfg.lambda)))
    throw std::invalid_argument("AlsCompleter: lambda not positive and finite");
  if (!(cfg.feature_weight >= 0.0 && std::isfinite(cfg.feature_weight)))
    throw std::invalid_argument(
        "AlsCompleter: feature_weight negative or not finite");
  for (const auto& row : features.rows)
    if (row.size() != n)
      throw std::invalid_argument("AlsCompleter: feature row size mismatch");
}

void AlsCompleter::fit(const std::vector<RatingEntry>& observed,
                       const util::RunControl* control) {
  MAC_SPAN("als.fit");
  MAC_COUNT("als.fits_started");
  MAC_COUNT_N("als.observed_entries", observed.size());
  const auto r = mac::checked_cast<std::size_t>(cfg_.rank);
  // Count each row's observations (an entry is a rating of both its rows)
  // and the class weights.  Class-balance factor: equalize the total weight
  // of positive and negative observations so the completion does not
  // collapse toward the over-observed existing links.
  obs_start_.assign(n_ + 1, 0);
  double pos_w = 0.0, neg_w = 0.0;
  for (const RatingEntry& e : observed) {
    if (e.i == e.j || e.i >= n_ || e.j >= n_)
      throw std::invalid_argument("AlsCompleter::fit: bad entry index");
    ++obs_start_[e.i + 1];
    ++obs_start_[e.j + 1];
    (e.value > 0.0 ? pos_w : neg_w) += std::fabs(e.value);
  }
  for (std::size_t i = 0; i < n_; ++i) obs_start_[i + 1] += obs_start_[i];
  obs_.resize(obs_start_[n_]);
  std::vector<std::size_t> next(obs_start_.begin(), obs_start_.end() - 1);
  double neg_boost = 1.0;
  if (cfg_.balance_classes && neg_w > 0.0 && pos_w > 0.0)
    neg_boost = std::min(kBalanceCap, std::max(1.0, pos_w / neg_w));
  for (const RatingEntry& e : observed) {
    double w = 1.0;
    double target = e.value;
    if (cfg_.confidence_weighting) {
      // Connectivity mode: the rating magnitude is *confidence*, not signal
      // strength -- train against the sign and weight by the magnitude.
      w = std::max(kConfidenceFloor, std::fabs(e.value));
      target = e.value > 0.0 ? 1.0 : -1.0;
    }
    if (e.value < 0.0) w *= neg_boost;
    MAC_ASSERT(w > 0.0 && std::isfinite(w), "w=", w, " value=", e.value);
    obs_[next[e.i]++] = {e.j, target, w};
    obs_[next[e.j]++] = {e.i, target, w};
  }

  // Random small init; deterministic under the config seed.
  util::Rng rng(cfg_.seed);
  p_ = linalg::Matrix(total_, r);
  q_ = linalg::Matrix(total_, r);
  for (std::size_t i = 0; i < total_; ++i)
    for (std::size_t k = 0; k < r; ++k) {
      p_(i, k) = rng.normal(0.0, 0.1);
      q_(i, k) = rng.normal(0.0, 0.1);
    }

  const SolveSide half_sweep = solve_side_for(r);
  iterations_run_ = 0;
  for (int it = 0; it < cfg_.iterations; ++it) {
    // Cooperative stop between sweeps: the first sweep always completes so
    // the factors are fitted, later ones may be cut by cancellation or a
    // deadline.  Without a control this is a no-op (identical iterations).
    if (it > 0 && control != nullptr && control->stop_requested()) {
      MAC_COUNT("als.fits_truncated");
      break;
    }
    MAC_SPAN("als.iteration");
    double delta = (this->*half_sweep)(q_, p_);
    delta += (this->*half_sweep)(p_, q_);
    ++iterations_run_;
    MAC_COUNT("als.iterations_run");
    // Summed factor-update magnitude: the per-iteration convergence signal.
    MAC_HISTOGRAM("als.factor_delta", delta);
  }
  MAC_COUNT("als.fits_completed");
#if METASCRITIC_CONTRACTS
  // Convergence postcondition: every factor entry must stay finite -- a NaN
  // here would silently poison every downstream rating.
  for (double x : p_.data()) MAC_ENSURE(std::isfinite(x), "NaN/Inf in P");
  for (double x : q_.data()) MAC_ENSURE(std::isfinite(x), "NaN/Inf in Q");
#endif
  fitted_ = true;
}

namespace {

/// Ranks up to this bound solve at a compile-time rank; larger ones read it
/// at run time.  The largest rank a `paper` run fits over seeds 1-10 is 24.
constexpr std::size_t kMaxFixedRank = 32;

/// A zeroed kernel buffer of N doubles on the stack, or of `size` doubles
/// on the heap when N is linalg::kDynamic.
template <std::size_t N>
auto zeroed(std::size_t size) {
  if constexpr (N == linalg::kDynamic)
    return linalg::Vector(size, 0.0);
  else
    return std::array<double, N>{};
}

}  // namespace

AlsCompleter::SolveSide AlsCompleter::solve_side_for(std::size_t rank) {
  constexpr auto table = []<std::size_t... Ks>(std::index_sequence<Ks...>) {
    return std::array<SolveSide, sizeof...(Ks)>{
        &AlsCompleter::solve_side<Ks + 1>...};
  }(std::make_index_sequence<kMaxFixedRank>());
  MAC_REQUIRE(rank >= 1, "rank=", rank);
  return rank <= kMaxFixedRank ? table[rank - 1]
                               : &AlsCompleter::solve_side<linalg::kDynamic>;
}

template <std::size_t R>
double AlsCompleter::solve_side(const linalg::Matrix& fixed,
                                linalg::Matrix& solved) {
  MAC_SPAN("als.solve_side");
  const std::size_t r =
      linalg::dim<R>(mac::checked_cast<std::size_t>(cfg_.rank));
  MAC_REQUIRE(fixed.cols() == r && solved.cols() == r, "rank=", r);
  const std::size_t nf = features_->count();
  const double fw = cfg_.feature_weight;
  // Every AS row observes every feature row of `fixed`, and every feature
  // row every AS row, all with weight fw: each AS row's Gram starts from the
  // shared g_feat, and all feature rows share g_as.  Grams fill only the
  // upper triangle, which is all the factorization reads.
  auto g_feat = zeroed<R * R>(r * r);
  auto g_as = g_feat, gram = g_feat;
  auto x = zeroed<R>(r);
  const double* q = fixed.data().data();
  auto add_gram = [&](auto& g, std::size_t c, double w) {
    const double* qc = q + c * r;
    for (std::size_t a = 0; a < r; ++a) {
      const double wa = w * qc[a];
      for (std::size_t b = a; b < r; ++b) g[a * r + b] += wa * qc[b];
    }
  };
  auto add_rhs = [&](std::size_t c, double wv) {
    const double* qc = q + c * r;
    for (std::size_t a = 0; a < r; ++a) x[a] += wv * qc[a];
  };
  for (std::size_t f = 0; f < nf; ++f) add_gram(g_feat, n_ + f, fw);

  double delta = 0.0;
  std::size_t rows_solved = 0, rows_degenerate = 0;
  auto store = [&](std::size_t row) {
    ++rows_solved;
    double* out = solved.data().data() + row * r;
    for (std::size_t a = 0; a < r; ++a) {
      delta += std::fabs(x[a] - out[a]);
      out[a] = x[a];
    }
  };
  for (std::size_t row = 0; row < n_; ++row) {
    const std::size_t begin = obs_start_[row], end = obs_start_[row + 1];
    if (begin == end && nf == 0) continue;
    gram = g_feat;
    std::fill(x.begin(), x.end(), 0.0);
    for (std::size_t t = begin; t < end; ++t) {
      add_rhs(obs_[t].col, obs_[t].weight * obs_[t].value);
      add_gram(gram, obs_[t].col, obs_[t].weight);
    }
    for (std::size_t f = 0; f < nf; ++f)
      add_rhs(n_ + f, fw * features_->rows[f][row]);
    const double reg = cfg_.lambda * static_cast<double>(end - begin + nf);
    if (!linalg::cholesky_in_place<R>(gram, r, reg)) {
      ++rows_degenerate;  // numerically degenerate row: keep previous factors
      continue;
    }
    linalg::cholesky_solve_in_place<R>(gram, x);
    store(row);
  }

  if (nf > 0 && n_ > 0) {
    // One factorization of g_as + lambda n I serves every feature row.
    for (std::size_t i = 0; i < n_; ++i) add_gram(g_as, i, fw);
    const double reg = cfg_.lambda * static_cast<double>(n_);
    const bool ok = linalg::cholesky_in_place<R>(g_as, r, reg);
    if (!ok) rows_degenerate += nf;
    for (std::size_t f = 0; ok && f < nf; ++f) {
      std::fill(x.begin(), x.end(), 0.0);
      for (std::size_t i = 0; i < n_; ++i)
        add_rhs(i, fw * features_->rows[f][i]);
      linalg::cholesky_solve_in_place<R>(g_as, x);
      store(n_ + f);
    }
  }
  MAC_COUNT_N("als.rows_solved", rows_solved);
  MAC_COUNT_N("als.rows_degenerate", rows_degenerate);
  return delta;
}

double AlsCompleter::predict(std::size_t i, std::size_t j) const {
  if (!fitted_) throw std::logic_error("AlsCompleter::predict before fit");
  if (i >= n_ || j >= n_)
    throw std::out_of_range("AlsCompleter::predict: index out of range");
  const auto r = mac::checked_cast<std::size_t>(cfg_.rank);
  double s = 0.0;
  for (std::size_t k = 0; k < r; ++k)
    s += p_(i, k) * q_(j, k) + p_(j, k) * q_(i, k);
  double out = std::clamp(0.5 * s, -1.0, 1.0);
  MAC_ENSURE(out >= -1.0 && out <= 1.0, "out=", out);
  return out;
}

double AlsCompleter::mse(const std::vector<RatingEntry>& held_out) const {
  if (held_out.empty()) return 0.0;
  double s = 0.0;
  for (const RatingEntry& e : held_out) {
    double d = predict(e.i, e.j) - e.value;
    s += d * d;
  }
  return s / static_cast<double>(held_out.size());
}

linalg::Matrix AlsCompleter::completed() const {
  linalg::Matrix m(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = i + 1; j < n_; ++j) {
      double v = predict(i, j);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

}  // namespace metas::core
