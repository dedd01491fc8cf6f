// The one dense SPD solver: an in-place Cholesky factorization of a
// ridge-regularized system (A + lambda I) and the triangular solves that use
// it.  Both work on caller-owned buffers, so ALS, which solves thousands of
// rank x rank systems per sweep, allocates nothing per system.
#pragma once

#include "linalg/matrix.hpp"

namespace metas::linalg {

/// Factors A + lambda I = L L^T in place.  Only the upper triangle of the
/// square matrix `a` (entries (i, j) with j >= i) is read; on success L
/// occupies the lower triangle and the diagonal, and the strict upper
/// triangle is left as it was.  Returns false, with `a` partly overwritten,
/// if a pivot is non-positive or non-finite (the system is not numerically
/// positive definite).  Throws std::invalid_argument if `a` is not square.
bool cholesky_in_place(Matrix& a, double lambda);

/// Solves L L^T x = b in place (`b` becomes x), with L the factor that
/// cholesky_in_place left in `l`.  Throws std::invalid_argument on a shape
/// mismatch.
void cholesky_solve_in_place(const Matrix& l, Vector& b);

}  // namespace metas::linalg
