#include "linalg/solve.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace metas::linalg {

bool cholesky_in_place(Matrix& a, double lambda) {
  if (!a.is_square())
    throw std::invalid_argument("cholesky_in_place: non-square matrix");
  MAC_REQUIRE(lambda >= 0.0, "lambda=", lambda);
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      // A(i, j) read from the upper triangle, which L never overwrites.
      double s = a(j, i);
      if (i == j) s += lambda;
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return false;
        a(i, i) = std::sqrt(s);
      } else {
        a(i, j) = s / a(j, j);
      }
    }
  }
#if METASCRITIC_CONTRACTS
  for (std::size_t i = 0; i < n; ++i)
    MAC_ENSURE(a(i, i) > 0.0, "non-positive Cholesky pivot at i=", i);
#endif
  return true;
}

void cholesky_solve_in_place(const Matrix& l, Vector& b) {
  if (!l.is_square() || l.rows() != b.size())
    throw std::invalid_argument("cholesky_solve_in_place: shape mismatch");
  const std::size_t n = l.rows();
  // Forward substitution: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * b[k];
    b[i] = s / l(i, i);
  }
  // Back substitution: L^T x = y.
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * b[k];
    b[i] = s / l(i, i);
    MAC_ENSURE(std::isfinite(b[i]), "non-finite solution at i=", i);
  }
}

}  // namespace metas::linalg
