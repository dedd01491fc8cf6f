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

namespace {

/// Consecutive AS rows a half-sweep solves together, as the lanes of one
/// Cholesky (DESIGN.md §15).
constexpr std::size_t kLanes = 4;

}  // namespace

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
    if (!std::isfinite(e.value))
      throw std::invalid_argument("AlsCompleter::fit: non-finite rating");
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
  // Every AS row's feature weights, as solve_side's lanes read them.
  const std::size_t nf = features_->count();
  feature_w_.assign((n_ + kLanes - 1) / kLanes * kLanes * nf, 0.0);
  for (std::size_t f = 0; f < nf; ++f)
    for (std::size_t i = 0; i < n_; ++i)
      feature_w_[(i / kLanes * nf + f) * kLanes + i % kLanes] =
          cfg_.feature_weight * features_->rows[f][i];

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

/// The most rows and columns of a tile: the block of an AS row's system that
/// one pass over the row's observations sums in locals.
constexpr std::size_t kTileRows = 4, kTileCols = 8;

/// The most right-hand side entries whose feature terms one pass over the
/// feature rows sums in locals, for every lane.
constexpr std::size_t kFeatureBlock = 4;

/// Sums one tile of an AS row's system, augmented by its right-hand side,
/// over the row's observations [o, end) in CSR order, and writes it to one
/// lane of `gram` and `rhs`.  Augmented row 0 is the right-hand side: its
/// entry j starts from zero and adds (w v) q_c[j] for each observation (c,
/// v, w).  Augmented row k + 1 is Gram row k: its entry (k, j), j >= k,
/// starts from `g_feat`'s and adds (w q_c[k]) q_c[j].  The tile spans
/// augmented rows [t, t + Rows) and columns [b, b + Cols) of an R x R
/// system.  Head says t == 0, and Diagonal that b is the first column of
/// the tile's first Gram row, so that the entries left of the diagonal lie
/// in the lower triangle and are not summed.  Rows, Cols and R may be
/// linalg::kDynamic, read from `rows`, `cols` and `r`.  The tile lives in
/// locals across the observations.
template <bool Head, bool Diagonal, std::size_t Rows, std::size_t Cols,
          std::size_t R, typename Observation>
[[gnu::noinline]] void sum_tile(std::size_t t, std::size_t b,
                                std::size_t rows, std::size_t cols,
                                const Observation* o, const Observation* end,
                                const double* q, std::size_t r,
                                const double* g_feat, double* gram,
                                double* rhs) {
  rows = linalg::dim<Rows>(rows);
  cols = linalg::dim<Cols>(cols);
  r = linalg::dim<R>(r);
  auto summed = [](std::size_t i, std::size_t j) {
    return !Diagonal || i <= j + (Head ? 1 : 0);
  };
  auto is_rhs = [](std::size_t i) { return Head && i == 0; };
  std::array<std::array<double, Cols == linalg::kDynamic ? kTileCols : Cols>,
             Rows == linalg::kDynamic ? kTileRows : Rows>
      acc;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (summed(i, j))
        acc[i][j] = is_rhs(i) ? 0.0 : g_feat[(t + i - 1) * r + b + j];
  for (; o != end; ++o) {
    const double* qc = q + o->col * r;
    for (std::size_t i = 0; i < rows; ++i) {
      const double m = is_rhs(i) ? o->weight * o->value
                                 : o->weight * qc[t + i - 1];
      for (std::size_t j = 0; j < cols; ++j)
        if (summed(i, j)) acc[i][j] += m * qc[b + j];
    }
  }
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (summed(i, j)) {
        if (is_rhs(i))
          rhs[(b + j) * kLanes] = acc[i][j];
        else
          gram[((t + i - 1) * r + b + j) * kLanes] = acc[i][j];
      }
}

/// A tile's place and shape (see sum_tile).
struct Tile {
  std::size_t t = 0, b = 0, rows = 0, cols = 0;
  bool head = false, diagonal = false;
};

/// The tiles of an r x r system and its right-hand side: groups of
/// kTileRows augmented rows, each over the columns its first Gram row
/// needs, in blocks of kTileCols.
template <typename Visit>
constexpr void for_each_tile(std::size_t r, Visit&& visit) {
  for (std::size_t t = 0; t <= r; t += kTileRows) {
    const std::size_t first = t == 0 ? 0 : t - 1;
    for (std::size_t b = first; b < r; b += kTileCols)
      visit(Tile{t, b, std::min(kTileRows, r + 1 - t),
                 std::min(kTileCols, r - b), t == 0, b == first});
  }
}

template <std::size_t R>
constexpr std::size_t kTileCount = [] {
  std::size_t count = 0;
  for_each_tile(R, [&](Tile) { ++count; });
  return count;
}();

/// for_each_tile's tiles at a compile-time rank.
template <std::size_t R>
constexpr auto kTiles = [] {
  std::array<Tile, kTileCount<R>> out{};
  std::size_t next = 0;
  for_each_tile(R, [&](Tile tile) { out[next++] = tile; });
  return out;
}();

/// Sums one AS row's Gram and right-hand side into one lane of `gram` and
/// `rhs`, tile by tile.  At a compile-time rank every tile's place and shape
/// is a constant; at a run-time rank the same tiles are walked at run time.
template <std::size_t R, typename Observation>
void sum_row(const Observation* o, const Observation* end, const double* q,
             std::size_t r, const double* g_feat, double* gram, double* rhs) {
  if constexpr (R != linalg::kDynamic) {
    [&]<std::size_t... T>(std::index_sequence<T...>) {
      (sum_tile<kTiles<R>[T].head, kTiles<R>[T].diagonal, kTiles<R>[T].rows,
                kTiles<R>[T].cols, R>(kTiles<R>[T].t, kTiles<R>[T].b, 0, 0, o,
                                      end, q, R, g_feat, gram, rhs),
       ...);
    }(std::make_index_sequence<kTileCount<R>>());
  } else {
    constexpr std::size_t D = linalg::kDynamic;
    for_each_tile(r, [&](Tile tile) {
      auto sum = [&](auto kernel) {
        kernel(tile.t, tile.b, tile.rows, tile.cols, o, end, q, r, g_feat,
               gram, rhs);
      };
      if (tile.head && tile.diagonal)
        sum(sum_tile<true, true, D, D, D, Observation>);
      else if (tile.head)
        sum(sum_tile<true, false, D, D, D, Observation>);
      else if (tile.diagonal)
        sum(sum_tile<false, true, D, D, D, Observation>);
      else
        sum(sum_tile<false, false, D, D, D, Observation>);
    });
  }
}

/// Adds the feature terms of right-hand side entries [a, a + Block) of every
/// lane: for each feature f in index order, w[f][l] q_f[a + i], with q_f the
/// feature row's factor (rows r apart from `q_f`) and w[f] the lanes'
/// weights fw v (kLanes apart from `w`).  The sums live in locals.
template <std::size_t Block>
[[gnu::noinline]] void add_feature_block(std::size_t a, const double* q_f,
                                         std::size_t r, std::size_t nf,
                                         const double* w, double* rhs) {
  std::array<double, Block * kLanes> acc;
  for (std::size_t e = 0; e < acc.size(); ++e) acc[e] = rhs[a * kLanes + e];
  q_f += a;
  for (std::size_t f = 0; f < nf; ++f, q_f += r, w += kLanes)
    for (std::size_t i = 0; i < Block; ++i)
      for (std::size_t l = 0; l < kLanes; ++l)
        acc[i * kLanes + l] += w[l] * q_f[i];
  for (std::size_t e = 0; e < acc.size(); ++e) rhs[a * kLanes + e] = acc[e];
}

/// Adds the feature terms of every lane's right-hand side, kFeatureBlock
/// entries at a time.
void add_feature_terms(const double* q_f, std::size_t r, std::size_t nf,
                       const double* w, double* rhs) {
  std::size_t a = 0;
  for (; a + kFeatureBlock <= r; a += kFeatureBlock)
    add_feature_block<kFeatureBlock>(a, q_f, r, nf, w, rhs);
  [&]<std::size_t... B>(std::index_sequence<B...>) {
    ((r - a == B + 1 ? add_feature_block<B + 1>(a, q_f, r, nf, w, rhs)
                     : void()),
     ...);
  }(std::make_index_sequence<kFeatureBlock - 1>());
}

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
  auto g_as = g_feat;
  auto x = zeroed<R>(r);
  // The Grams and right-hand sides of kLanes consecutive AS rows, as lanes.
  auto grams = zeroed<R * R * kLanes>(r * r * kLanes);
  auto rhs = zeroed<R * kLanes>(r * kLanes);
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
  auto store = [&](std::size_t row, const double* sol, std::size_t stride) {
    ++rows_solved;
    double* out = solved.data().data() + row * r;
    for (std::size_t a = 0; a < r; ++a) {
      delta += std::fabs(sol[a * stride] - out[a]);
      out[a] = sol[a * stride];
    }
  };
  for (std::size_t row0 = 0; row0 < n_; row0 += kLanes) {
    std::array<double, kLanes> reg{};
    linalg::LaneMask active = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t row = row0 + l;
      if (row >= n_ || (obs_start_[row] == obs_start_[row + 1] && nf == 0)) {
        // No system: a zero lane, which fails its first pivot.
        for (std::size_t e = 0; e < r * r; ++e) grams[e * kLanes + l] = 0.0;
        for (std::size_t a = 0; a < r; ++a) rhs[a * kLanes + l] = 0.0;
        continue;
      }
      const std::size_t begin = obs_start_[row], end = obs_start_[row + 1];
      active |= linalg::LaneMask{1} << l;
      reg[l] = cfg_.lambda * static_cast<double>(end - begin + nf);
      sum_row<R>(obs_.data() + begin, obs_.data() + end, q, r, g_feat.data(),
                 grams.data() + l, rhs.data() + l);
    }
    add_feature_terms(q + n_ * r, r, nf, feature_w_.data() + row0 * nf,
                      rhs.data());
    const linalg::LaneMask ok =
        linalg::cholesky_in_place<R, kLanes>(grams, r, reg) & active;
    if (ok != 0) linalg::cholesky_solve_in_place<R, kLanes>(grams, rhs, ok);
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (!(active >> l & 1u)) continue;
      if (ok >> l & 1u)
        store(row0 + l, rhs.data() + l, kLanes);
      else
        ++rows_degenerate;  // numerically degenerate row: keep previous factors
    }
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
      store(n_ + f, x.data(), 1);
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
