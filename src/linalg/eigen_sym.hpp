// Symmetric eigendecomposition via the cyclic Jacobi method, plus spectral
// "effective rank" measures.  No pipeline run computes a spectrum: the
// solver is the reference that tests/generator_test.cpp uses to check the
// low-rank premise of each metro's truth matrix (Appx. B).
//
// The paper (Appx. B, E.5) defines the effective rank of a connectivity
// matrix as the number of dimensions needed to reconstruct the matrix within
// a small error margin, and the controlled experiment builds matrices with a
// known effective rank by adding Gaussian noise of stddev delta to a rank-r
// matrix (at most r eigenvalues then exceed delta [50]).  We expose both the
// threshold-count definition and the entropy-based effective rank so callers
// can cross-check.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace metas::linalg {

/// Result of a symmetric eigendecomposition: A = V diag(w) V^T.
/// Eigenvalues are sorted in decreasing order; columns of V are the
/// corresponding eigenvectors.
struct EigenSym {
  Vector values;
  Matrix vectors;
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
/// Throws std::invalid_argument if `a` is not square.
/// `max_sweeps` bounds the number of full off-diagonal sweeps.
EigenSym eigen_symmetric(Matrix a, int max_sweeps = 64, double tol = 1e-12);

/// Singular values of a general (possibly rectangular) matrix, computed as
/// sqrt of the eigenvalues of A^T A (or A A^T, whichever is smaller).
Vector singular_values(const Matrix& a);

/// Number of singular values strictly above `threshold`.
std::size_t rank_above(const Vector& singular, double threshold);

/// Threshold-relative effective rank: number of singular values above
/// `rel_tol * sigma_max`. This matches the paper's IXP-matrix measurement
/// ("rank ranges between 3.7% and 26% of the matrix dimension").
std::size_t effective_rank_threshold(const Matrix& a, double rel_tol = 0.05);

/// Entropy effective rank (Roy & Vetterli): exp of the Shannon entropy of the
/// normalized singular-value distribution. Returns 0 for a zero matrix.
double effective_rank_entropy(const Matrix& a);

/// Best rank-k approximation error ||A - A_k||_F / ||A||_F from the spectrum,
/// used to verify that a matrix is "effectively" low rank.
double relative_tail_energy(const Vector& singular, std::size_t k);

}  // namespace metas::linalg
