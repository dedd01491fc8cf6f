// Tests for the in-place Cholesky factorization and solve.
#include "linalg/solve.hpp"

#include <optional>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace metas::linalg {
namespace {

/// Solves (A + lambda I) x = b through the in-place entry points, on
/// copies of the inputs.
std::optional<Vector> solve(Matrix a, Vector b, double lambda = 0.0) {
  if (!cholesky_in_place(a, lambda)) return std::nullopt;
  cholesky_solve_in_place(a, b);
  return b;
}

Matrix random_spd(std::size_t n, util::Rng& rng, double ridge = 0.5) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix spd = a.transpose() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

TEST(Cholesky, FactorizesKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  Matrix l = a;
  ASSERT_TRUE(cholesky_in_place(l, 0.0));
  EXPECT_EQ(l(0, 1), a(0, 1));  // the strict upper triangle is left alone
  l(0, 1) = 0.0;
  Matrix rec = l * l.transpose();
  EXPECT_LT(rec.max_abs_diff(a), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_in_place(a, 0.0));
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(cholesky_in_place(a, 0.0), std::invalid_argument);
}

TEST(SolveSpd, RecoversKnownSolution) {
  util::Rng rng(17);
  for (std::size_t n : {1u, 3u, 8u, 20u}) {
    Matrix a = random_spd(n, rng);
    Vector x_true(n);
    for (double& v : x_true) v = rng.normal();
    Vector b = a * x_true;
    auto x = solve(a, b);
    ASSERT_TRUE(x.has_value());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
  }
}

TEST(SolveSpd, ShapeMismatchThrows) {
  Vector b{1.0};
  EXPECT_THROW(cholesky_solve_in_place(Matrix(2, 2), b), std::invalid_argument);
}

TEST(RidgeSolve, ShrinksTowardZero) {
  util::Rng rng(23);
  Matrix a(30, 4);
  Vector x_true{1.0, -2.0, 0.5, 3.0};
  Vector b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.normal();
    b[i] = dot(a.row(i), x_true) + rng.normal(0.0, 0.01);
  }
  // Ridge least squares: (A^T A + lambda I) x = A^T b.
  Vector atb(4, 0.0);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 30; ++i) atb[j] += a(i, j) * b[i];
  auto x_small = solve(a.gram(), atb, 1e-6);
  auto x_big = solve(a.gram(), atb, 1e4);
  ASSERT_TRUE(x_small && x_big);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR((*x_small)[j], x_true[j], 0.05);
    EXPECT_LT(std::abs((*x_big)[j]), std::abs(x_true[j]));
  }
}

TEST(SolveRegularized, HandlesSingularGramWithRidge) {
  // Rank-deficient Gram matrix: solvable once the ridge is added.
  Matrix g(2, 2);
  g(0, 0) = 1; g(0, 1) = 1; g(1, 0) = 1; g(1, 1) = 1;
  auto x = solve(g, {1.0, 1.0}, 0.1);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], (*x)[1], 1e-12);  // symmetric problem, symmetric answer
}

TEST(SolveRegularized, ShapeMismatchThrows) {
  Matrix l(2, 2);
  ASSERT_TRUE(cholesky_in_place(l, 0.1));
  Vector rhs{1.0};
  EXPECT_THROW(cholesky_solve_in_place(l, rhs), std::invalid_argument);
}

// Property: for any SPD system, the Cholesky solution satisfies A x = b.
class SolveResidualTest : public ::testing::TestWithParam<int> {};

TEST_P(SolveResidualTest, ResidualIsTiny) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t n = 5 + static_cast<std::size_t>(GetParam()) * 3;
  Matrix a = random_spd(n, rng);
  Vector b(n);
  for (double& v : b) v = rng.normal();
  auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  Vector r = a * *x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveResidualTest, ::testing::Range(1, 8));

}  // namespace
}  // namespace metas::linalg
