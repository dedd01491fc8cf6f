// The one dense SPD solver: an in-place Cholesky factorization of a
// ridge-regularized system (A + lambda I) and the triangular solves that use
// it.  Both work on caller-owned buffers, so ALS, which solves thousands of
// rank x rank systems per sweep, allocates nothing per system.
//
// Both are templates over the dimension N and a lane count L.  A fixed N
// gives every loop a constant bound, and both are always inlined, so a
// caller holding its systems in stack arrays gets loops unrolled and
// vectorized over buffers the compiler knows apart; N == kDynamic reads the
// dimension at run time.  L independent systems of one dimension are stored
// interleaved as lanes: entry (i, j) of lane l at (i n + j) L + l, and entry
// i of lane l's right-hand side at i L + l.  Every operation then runs on L
// contiguous doubles at once, so the serial chains of pivots, divisions and
// substitutions of L systems overlap.  L = 1 is one row-major system.
//
// Each entry sums its terms in the same order at every N and L: the factor
// entry U(j, i) is A(j, i) (+ lambda when i == j) minus U(k, j) U(k, i) for
// k = 0, 1, ..., j - 1, then divided by U(j, j) (or square-rooted); a solve
// entry likewise subtracts its terms in ascending k before its division.
// That is the order of the textbook row-by-row (dot-form) Cholesky, so the
// bits of a lane depend neither on N, on L, on its neighbours nor on which
// loop form computes them.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "util/contracts.hpp"

namespace metas::linalg {

/// The dimension argument of a kernel whose dimension is read at run time.
inline constexpr std::size_t kDynamic = 0;

/// The dimension a kernel over N works at: N, or `n` when N is kDynamic.
template <std::size_t N>
constexpr std::size_t dim(std::size_t n) {
  return N == kDynamic ? n : N;
}

/// A set of lanes: bit l stands for lane l.
using LaneMask = unsigned;

/// Every lane of an L-lane call.
template <std::size_t L>
constexpr LaneMask all_lanes() {
  static_assert(L >= 1 && L < 32, "lane count out of range");
  return (LaneMask{1} << L) - 1;
}

/// Factors L systems A_l + lambda[l] I = U_l^T U_l in place, U_l upper
/// triangular.  `a` holds L n x n matrices as lanes (see above), n =
/// dim<N>(n).  Only the upper triangles (entries (i, j) with j >= i) are
/// read, and each U_l replaces its lane's; the strict lower triangles are
/// left as they were.  Returns the lanes whose every pivot was positive and
/// finite (the systems numerically positive definite).  A failed lane goes
/// on with a stand-in pivot of 1, so its entries are meaningless but its
/// neighbours' bits are untouched; the call returns 0, with `a` partly
/// overwritten, once no lane is left.  Throws std::invalid_argument if `a`
/// does not hold L n x n entries or a fixed N disagrees with `n`.
///
/// Right-looking: step k takes pivot k, divides row k of U by it, and
/// subtracts that row's outer product from the trailing upper triangle.
template <std::size_t N = kDynamic, std::size_t L = 1>
[[gnu::always_inline]] inline LaneMask cholesky_in_place(
    std::span<double> a, std::size_t n, const std::array<double, L>& lambda) {
  if (n != dim<N>(n) || a.size() != n * n * L)
    throw std::invalid_argument("cholesky_in_place: buffer is not n x n");
  for (std::size_t l = 0; l < L; ++l)
    MAC_REQUIRE(lambda[l] >= 0.0, "lambda=", lambda[l], " lane=", l);
  const std::size_t d = dim<N>(n);
  double* u = a.data();
  for (std::size_t k = 0; k < d; ++k)
    for (std::size_t l = 0; l < L; ++l) u[(k * d + k) * L + l] += lambda[l];
  LaneMask good = all_lanes<L>();
  for (std::size_t k = 0; k < d; ++k) {
    double* uk = u + k * d * L;
    std::array<double, L> pivot;
    for (std::size_t l = 0; l < L; ++l) {
      const double s = uk[k * L + l];
      const bool ok = s > 0.0 && std::isfinite(s);
      if (!ok) good &= ~(LaneMask{1} << l);
      pivot[l] = std::sqrt(ok ? s : 1.0);
      MAC_ENSURE(pivot[l] > 0.0, "non-positive Cholesky pivot at k=", k,
                 " lane=", l);
    }
    if (good == 0) return 0;
    for (std::size_t l = 0; l < L; ++l) uk[k * L + l] = pivot[l];
    for (std::size_t j = k + 1; j < d; ++j)
      for (std::size_t l = 0; l < L; ++l) uk[j * L + l] /= pivot[l];
    for (std::size_t i = k + 1; i < d; ++i) {
      double* ui = u + i * d * L;
      std::array<double, L> uki;
      for (std::size_t l = 0; l < L; ++l) uki[l] = uk[i * L + l];
      for (std::size_t j = i; j < d; ++j)
        for (std::size_t l = 0; l < L; ++l)
          ui[j * L + l] -= uki[l] * uk[j * L + l];
    }
  }
  return good;
}

/// One system: true when A + lambda I factored.
template <std::size_t N = kDynamic>
[[gnu::always_inline]] inline bool cholesky_in_place(std::span<double> a,
                                                     std::size_t n,
                                                     double lambda) {
  return cholesky_in_place<N, 1>(a, n, {lambda}) != 0;
}

/// Solves U_l^T U_l x = b_l in place for every lane (`b` becomes x), with
/// U_l the factors cholesky_in_place left in `u`; `b` holds the L right-hand
/// sides as lanes, n = dim<N>(b.size() / L).  The forward substitution
/// U^T y = b runs a column of U^T at a time, the back substitution U x = y a
/// row of U at a time as a dot product.  Every lane is solved; `lanes` (the
/// factorization's result) names those whose solution must be finite.
/// Throws std::invalid_argument on a shape mismatch.
template <std::size_t N = kDynamic, std::size_t L = 1>
[[gnu::always_inline]] inline void cholesky_solve_in_place(
    std::span<const double> u, std::span<double> b,
    LaneMask lanes = all_lanes<L>()) {
  const std::size_t d = dim<N>(b.size() / L);
  if (b.size() != d * L || u.size() != d * d * L)
    throw std::invalid_argument("cholesky_solve_in_place: shape mismatch");
  const double* f = u.data();
  double* x = b.data();
  for (std::size_t k = 0; k < d; ++k) {
    const double* uk = f + k * d * L;
    std::array<double, L> yk;
    for (std::size_t l = 0; l < L; ++l) yk[l] = x[k * L + l] /= uk[k * L + l];
    for (std::size_t i = k + 1; i < d; ++i)
      for (std::size_t l = 0; l < L; ++l) x[i * L + l] -= uk[i * L + l] * yk[l];
  }
  for (std::size_t i = d; i-- > 0;) {
    const double* ui = f + i * d * L;
    std::array<double, L> s;
    for (std::size_t l = 0; l < L; ++l) s[l] = x[i * L + l];
    for (std::size_t k = i + 1; k < d; ++k)
      for (std::size_t l = 0; l < L; ++l) s[l] -= ui[k * L + l] * x[k * L + l];
    for (std::size_t l = 0; l < L; ++l) {
      x[i * L + l] = s[l] / ui[i * L + l];
      MAC_ENSURE(!(lanes >> l & 1u) || std::isfinite(x[i * L + l]),
                 "non-finite solution at i=", i, " lane=", l);
    }
  }
}

}  // namespace metas::linalg
