// Tests for the in-place Cholesky factorization and solve, at compile-time
// and run-time dimensions on both sides of ALS's fixed-rank bound (32).
#include "linalg/solve.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace metas::linalg {
namespace {

/// Solves (A + lambda I) x = b through the in-place entry points at
/// dimension template argument N, on copies of the inputs.
template <std::size_t N = kDynamic>
std::optional<Vector> solve(Matrix a, Vector b, double lambda = 0.0) {
  if (!cholesky_in_place<N>(a.data(), a.rows(), lambda)) return std::nullopt;
  cholesky_solve_in_place<N>(a.data(), b);
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

/// The textbook dot-form Cholesky, a row of L at a time, and its two
/// substitutions: each entry sums its terms in ascending k.
std::optional<Vector> dot_form_solve(const Matrix& a, Vector b,
                                     double lambda) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(j, i);
      if (i == j) s += lambda;
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return std::nullopt;
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * b[k];
    b[i] = s / l(i, i);
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * b[k];
    b[i] = s / l(i, i);
  }
  return b;
}

TEST(Cholesky, FactorizesKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  for (bool fixed : {true, false}) {
    SCOPED_TRACE(fixed ? "N = 2" : "N = kDynamic");
    Matrix u = a;
    u(1, 0) = -7.0;  // the strict lower triangle is neither read nor written
    ASSERT_TRUE(fixed ? cholesky_in_place<2>(u.data(), 2, 0.0)
                      : cholesky_in_place(u.data(), 2, 0.0));
    EXPECT_EQ(u(1, 0), -7.0);
    EXPECT_EQ(u(0, 0), 2.0);  // U = L^T: sqrt(4), 2 / 2, sqrt(3 - 1)
    EXPECT_EQ(u(0, 1), 1.0);
    EXPECT_EQ(u(1, 1), std::sqrt(2.0));
    u(1, 0) = 0.0;
    Matrix rec = u.transpose() * u;
    EXPECT_LT(rec.max_abs_diff(a), 1e-12);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  Matrix b = a;
  EXPECT_FALSE(cholesky_in_place(a.data(), 2, 0.0));
  EXPECT_FALSE(cholesky_in_place<2>(b.data(), 2, 0.0));
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(cholesky_in_place(a.data(), 2, 0.0), std::invalid_argument);
  Matrix b(3, 3);  // a fixed N must agree with the run-time n
  EXPECT_THROW(cholesky_in_place<2>(b.data(), 3, 0.0), std::invalid_argument);
}

// Every dimension, fixed or read at run time, gives the dot-form bits.
template <std::size_t N>
void expect_dot_form_bits(util::Rng& rng) {
  const Matrix a = random_spd(N, rng);
  Vector b(N);
  for (double& v : b) v = rng.normal();
  const auto ref = dot_form_solve(a, b, 0.25);
  ASSERT_TRUE(ref.has_value());
  const auto fixed = solve<N>(a, b, 0.25);
  const auto dynamic = solve(a, b, 0.25);
  ASSERT_TRUE(fixed && dynamic);
  EXPECT_TRUE(*fixed == *ref) << "N = " << N;
  EXPECT_TRUE(*dynamic == *ref) << "n = " << N;
}

TEST(Cholesky, MatchesDotFormBitwiseAtEveryDimension) {
  util::Rng rng(5);
  [&]<std::size_t... Ns>(std::index_sequence<Ns...>) {
    (expect_dot_form_bits<Ns>(rng), ...);
  }(std::index_sequence<1, 2, 3, 7, 16, 24, 31, 32, 33, 40, 56>());
}

// L systems factored and solved as lanes give each lane the bits the
// one-system kernel gives that lane's system alone, and leave the strict
// lower triangles as they were.  `bad` lanes are spoiled (a NaN first entry,
// or a last diagonal entry that makes the last pivot negative): they are
// reported degenerate and must not touch their neighbours' bits.
template <std::size_t N, std::size_t L>
void expect_lanes_match(util::Rng& rng, std::size_t n, LaneMask bad) {
  std::array<Matrix, L> a;
  std::array<Vector, L> b;
  std::array<double, L> lambda;
  Vector packed(n * n * L), rhs(n * L);
  for (std::size_t l = 0; l < L; ++l) {
    a[l] = random_spd(n, rng);
    if (bad >> l & 1u) {
      if (l % 2 == 0)
        a[l](0, 0) = std::numeric_limits<double>::quiet_NaN();
      else
        a[l](n - 1, n - 1) = -1e6;
    }
    b[l] = Vector(n);
    for (double& v : b[l]) v = rng.normal();
    lambda[l] = 0.125 * static_cast<double>(l);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i * L + l] = b[l][i];
      for (std::size_t j = 0; j < n; ++j)
        packed[(i * n + j) * L + l] = a[l](i, j);
    }
  }
  const LaneMask ok = cholesky_in_place<N, L>(packed, n, lambda);
  ASSERT_EQ(ok, all_lanes<L>() & ~bad) << "n = " << n << ", L = " << L;
  if (ok == 0) return;
  cholesky_solve_in_place<N, L>(packed, rhs, ok);
  for (std::size_t l = 0; l < L; ++l) {
    if (bad >> l & 1u) continue;
    Matrix u = a[l];
    ASSERT_TRUE(cholesky_in_place<N>(u.data(), n, lambda[l]));
    Vector x = b[l];
    cholesky_solve_in_place<N>(u.data(), x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(rhs[i * L + l], x[i]) << "n = " << n << ", lane " << l;
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(packed[(i * n + j) * L + l], u(i, j))
            << "n = " << n << ", lane " << l << ", (" << i << ", " << j
            << ")";
    }
  }
}

template <std::size_t N, std::size_t L>
void expect_lanes_match(util::Rng& rng) {
  // Every lane good, then each lane spoiled beside good ones.
  expect_lanes_match<N, L>(rng, N, 0);
  expect_lanes_match<kDynamic, L>(rng, N, 0);
  for (std::size_t l = 0; l < L && L > 1; ++l) {
    expect_lanes_match<N, L>(rng, N, LaneMask{1} << l);
    expect_lanes_match<kDynamic, L>(rng, N, LaneMask{1} << l);
  }
  expect_lanes_match<N, L>(rng, N, all_lanes<L>());  // none left
}

TEST(Cholesky, LanesMatchOneSystemBitwise) {
  util::Rng rng(9);
  [&]<std::size_t... Ns>(std::index_sequence<Ns...>) {
    ((expect_lanes_match<Ns + 1, 1>(rng), expect_lanes_match<Ns + 1, 2>(rng),
      expect_lanes_match<Ns + 1, 4>(rng)),
     ...);
  }(std::make_index_sequence<33>());
}

TEST(SolveSpd, RecoversKnownSolution) {
  util::Rng rng(17);
  for (std::size_t n : {1u, 3u, 8u, 20u, 32u, 33u, 56u}) {
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
  Matrix u(2, 2);
  EXPECT_THROW(cholesky_solve_in_place(u.data(), b), std::invalid_argument);
  Vector b2{1.0, 2.0};
  EXPECT_THROW(cholesky_solve_in_place<3>(u.data(), b2), std::invalid_argument);
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
  auto x_small = solve<4>(a.gram(), atb, 1e-6);
  auto x_big = solve<4>(a.gram(), atb, 1e4);
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
  EXPECT_FALSE(solve<2>(g, {1.0, 1.0}, 0.0).has_value());
}

TEST(SolveRegularized, ShapeMismatchThrows) {
  Matrix u(2, 2);
  ASSERT_TRUE(cholesky_in_place<2>(u.data(), 2, 0.1));
  Vector rhs{1.0};
  EXPECT_THROW(cholesky_solve_in_place(u.data(), rhs), std::invalid_argument);
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
