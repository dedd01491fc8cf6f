// The one dense SPD solver: an in-place Cholesky factorization of a
// ridge-regularized system (A + lambda I) and the triangular solves that use
// it.  Both work on caller-owned row-major buffers, so ALS, which solves
// thousands of rank x rank systems per sweep, allocates nothing per system.
//
// Both are templates over the dimension N.  A fixed N gives every loop a
// constant bound, and both are always inlined, so a caller holding its
// systems in stack arrays gets loops unrolled and vectorized over buffers
// the compiler knows apart; N == kDynamic reads the dimension at run time.
// Each entry sums its terms in the same order at every N: the factor entry
// U(j, i) is A(j, i) (+ lambda when i == j) minus U(k, j) U(k, i) for
// k = 0, 1, ..., j - 1, then divided by U(j, j) (or square-rooted); a solve
// entry likewise subtracts its terms in ascending k before its division.
// That is the order of the textbook row-by-row (dot-form) Cholesky, so the
// bits do not depend on N or on which loop form computes them.
#pragma once

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

/// Factors A + lambda I = U^T U in place, U upper triangular.  `a` holds an
/// n x n row-major matrix, n = dim<N>(n).  Only its upper triangle (entries
/// (i, j) with j >= i) is read, and U replaces it; the strict lower triangle
/// is left as it was.  Returns false, with `a` partly overwritten, if a pivot
/// is non-positive or non-finite (the system is not numerically positive
/// definite).  Throws std::invalid_argument if `a` does not hold n x n
/// entries or a fixed N disagrees with `n`.
///
/// Right-looking: step k takes pivot k, divides row k of U by it, and
/// subtracts that row's outer product from the trailing upper triangle.
template <std::size_t N = kDynamic>
[[gnu::always_inline]] inline bool cholesky_in_place(std::span<double> a,
                                                     std::size_t n,
                                                     double lambda) {
  if (n != dim<N>(n) || a.size() != n * n)
    throw std::invalid_argument("cholesky_in_place: buffer is not n x n");
  MAC_REQUIRE(lambda >= 0.0, "lambda=", lambda);
  const std::size_t d = dim<N>(n);
  double* u = a.data();
  for (std::size_t k = 0; k < d; ++k) u[k * d + k] += lambda;
  for (std::size_t k = 0; k < d; ++k) {
    double* uk = u + k * d;
    const double s = uk[k];
    if (s <= 0.0 || !std::isfinite(s)) return false;
    const double pivot = std::sqrt(s);
    MAC_ENSURE(pivot > 0.0, "non-positive Cholesky pivot at k=", k);
    uk[k] = pivot;
    for (std::size_t j = k + 1; j < d; ++j) uk[j] /= pivot;
    for (std::size_t i = k + 1; i < d; ++i) {
      double* ui = u + i * d;
      const double uki = uk[i];
      for (std::size_t j = i; j < d; ++j) ui[j] -= uki * uk[j];
    }
  }
  return true;
}

/// Solves U^T U x = b in place (`b` becomes x), with U the factor that
/// cholesky_in_place left in the upper triangle of `u`; n = dim<N>(b.size()).
/// The forward substitution U^T y = b runs a column of U^T at a time, the
/// back substitution U x = y a row of U at a time as a dot product.  Throws
/// std::invalid_argument on a shape mismatch.
template <std::size_t N = kDynamic>
[[gnu::always_inline]] inline void cholesky_solve_in_place(
    std::span<const double> u, std::span<double> b) {
  const std::size_t d = dim<N>(b.size());
  if (b.size() != d || u.size() != d * d)
    throw std::invalid_argument("cholesky_solve_in_place: shape mismatch");
  const double* f = u.data();
  double* x = b.data();
  for (std::size_t k = 0; k < d; ++k) {
    const double* uk = f + k * d;
    x[k] /= uk[k];
    const double yk = x[k];
    for (std::size_t i = k + 1; i < d; ++i) x[i] -= uk[i] * yk;
  }
  for (std::size_t i = d; i-- > 0;) {
    const double* ui = f + i * d;
    double s = x[i];
    for (std::size_t k = i + 1; k < d; ++k) s -= ui[k] * x[k];
    x[i] = s / ui[i];
    MAC_ENSURE(std::isfinite(x[i]), "non-finite solution at i=", i);
  }
}

}  // namespace metas::linalg
