// Hybrid ALS completion tests: recovery of planted low-rank structure,
// feature contributions, API contracts, and agreement with a per-record
// reference implementation and with closed-form row solves.
#include "core/als.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "util/curves.hpp"
#include "util/rng.hpp"

namespace metas::core {
namespace {

FeatureMatrix no_features() { return FeatureMatrix{}; }

// Builds a planted rank-k +-1 matrix from random factor vectors.
struct Planted {
  std::size_t n;
  std::vector<std::vector<double>> x;
  bool link(std::size_t i, std::size_t j) const {
    double s = 0.0;
    for (std::size_t d = 0; d < x[i].size(); ++d) s += x[i][d] * x[j][d];
    return s > 0.0;
  }
};

Planted plant(std::size_t n, std::size_t k, util::Rng& rng) {
  Planted p;
  p.n = n;
  p.x.assign(n, std::vector<double>(k));
  for (auto& row : p.x)
    for (double& v : row) v = rng.normal();
  return p;
}

TEST(Als, ConfigValidation) {
  AlsConfig bad;
  bad.rank = 0;
  auto f = no_features();
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.rank = 2;
  bad.lambda = 0.0;
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  // A fit under any of these would return its random start as the model.
  bad.lambda = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.lambda = std::numeric_limits<double>::infinity();
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.lambda = 0.08;
  bad.iterations = 0;
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.iterations = -3;
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.iterations = 10;
  for (double fw : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()}) {
    bad.feature_weight = fw;
    EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument) << fw;
  }
  bad.feature_weight = 0.0;  // features may be switched off
  EXPECT_NO_THROW(AlsCompleter(5, f, bad));
}

TEST(Als, PredictBeforeFitThrows) {
  auto f = no_features();
  AlsCompleter c(5, f, AlsConfig{});
  EXPECT_THROW(c.predict(0, 1), std::logic_error);
}

TEST(Als, BadEntriesRejected) {
  auto f = no_features();
  AlsCompleter c(3, f, AlsConfig{});
  EXPECT_THROW(c.fit({{1, 1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(c.fit({{0, 5, 1.0}}), std::invalid_argument);
  // A NaN rating would train as a -1 at the floor weight and turn class
  // balancing off; an infinite one would get an infinite weight.
  AlsConfig plain;
  plain.confidence_weighting = false;
  plain.balance_classes = false;
  AlsCompleter unweighted(3, f, plain);
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(c.fit({{0, 1, 1.0}, {1, 2, v}}), std::invalid_argument) << v;
    EXPECT_THROW(unweighted.fit({{1, 2, v}}), std::invalid_argument) << v;
  }
  c.fit({{0, 1, 1.0}, {1, 2, -1.0}});  // a refused call leaves it usable
  EXPECT_TRUE(std::isfinite(c.predict(0, 2)));
}

TEST(Als, RecoverBlockMatrix) {
  // Two communities of 10; links within, none across. Rank-2 structure.
  const std::size_t n = 20;
  util::Rng rng(1);
  std::vector<RatingEntry> train;
  std::vector<std::pair<std::size_t, std::size_t>> heldout;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool link = (i < 10) == (j < 10);
      if (rng.uniform() < 0.5)
        train.push_back({i, j, link ? 1.0 : -1.0});
      else
        heldout.emplace_back(i, j);
    }
  }
  AlsConfig cfg;
  cfg.rank = 3;
  auto f = no_features();
  AlsCompleter c(n, f, cfg);
  c.fit(train);
  std::size_t correct = 0;
  for (auto [i, j] : heldout) {
    bool link = (i < 10) == (j < 10);
    if ((c.predict(i, j) > 0.0) == link) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / heldout.size(), 0.95);
}

TEST(Als, PredictionSymmetricAndClamped) {
  util::Rng rng(2);
  auto p = plant(15, 2, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < 0.6) train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsConfig cfg;
  cfg.rank = 4;
  AlsCompleter c(p.n, f, cfg);
  c.fit(train);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = 0; j < p.n; ++j) {
      if (i == j) continue;
      double v = c.predict(i, j);
      EXPECT_DOUBLE_EQ(v, c.predict(j, i));
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
}

TEST(Als, CompletedMatrixMatchesPredict) {
  util::Rng rng(3);
  auto p = plant(10, 2, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsCompleter c(p.n, f, AlsConfig{});
  c.fit(train);
  linalg::Matrix m = c.completed();
  EXPECT_DOUBLE_EQ(m(3, 7), c.predict(3, 7));
  EXPECT_DOUBLE_EQ(m(7, 3), m(3, 7));
  EXPECT_DOUBLE_EQ(m(4, 4), 0.0);
}

TEST(Als, FeaturesRescueEmptyRows) {
  // Community membership is exposed only through a feature; rows of
  // community B have no observed entries at all (completely-out case).
  const std::size_t n = 24;
  FeatureMatrix feats;
  feats.names = {"community"};
  feats.rows.assign(1, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i)
    feats.rows[0][i] = i % 2 == 0 ? 1.0 : -1.0;

  auto truth = [](std::size_t i, std::size_t j) {
    return (i % 2) == (j % 2);
  };
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = i + 1; j < 16; ++j)
      train.push_back({i, j, truth(i, j) ? 1.0 : -1.0});

  AlsConfig cfg;
  cfg.rank = 4;
  cfg.feature_weight = 1.0;
  AlsCompleter with_f(n, feats, cfg);
  with_f.fit(train);
  auto empty = no_features();
  AlsCompleter without_f(n, empty, cfg);
  without_f.fit(train);

  // Score pairs where at least one side is unobserved (indices >= 16).
  std::vector<util::Scored> sf, snf;
  for (std::size_t i = 16; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sf.push_back({with_f.predict(i, j), truth(i, j)});
      snf.push_back({without_f.predict(i, j), truth(i, j)});
    }
  EXPECT_GT(util::auc(sf), util::auc(snf));
  EXPECT_GT(util::auc(sf), 0.8);
}

TEST(Als, MseDecreasesOnTrainingData) {
  util::Rng rng(5);
  auto p = plant(20, 3, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsConfig weak;
  weak.rank = 1;
  AlsConfig strong;
  strong.rank = 6;
  AlsCompleter cw(p.n, f, weak), cs(p.n, f, strong);
  cw.fit(train);
  cs.fit(train);
  // Compare against the +-1 targets the completer trains on.
  EXPECT_LT(cs.mse(train), cw.mse(train));
}

TEST(Als, DeterministicUnderSeed) {
  util::Rng rng(6);
  auto p = plant(12, 2, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < 0.7) train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsCompleter a(p.n, f, AlsConfig{}), b(p.n, f, AlsConfig{});
  a.fit(train);
  b.fit(train);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      EXPECT_DOUBLE_EQ(a.predict(i, j), b.predict(i, j));
}

// Property sweep: completion accuracy grows with observed fraction.
class AlsCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(AlsCoverageTest, AccuracyAboveBaseline) {
  double frac = GetParam();
  util::Rng rng(7);
  auto p = plant(40, 3, rng);
  std::vector<RatingEntry> train;
  std::vector<util::Scored> test;
  AlsConfig cfg;
  cfg.rank = 5;
  auto f = no_features();
  AlsCompleter c(p.n, f, cfg);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < frac) train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  c.fit(train);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      test.push_back({c.predict(i, j), p.link(i, j)});
  EXPECT_GT(util::auc(test), frac >= 0.4 ? 0.9 : 0.65);
}

INSTANTIATE_TEST_SUITE_P(Fractions, AlsCoverageTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

// ---------------------------------------------------------------------------
// Reference: the per-record algorithm.  Each row's record list includes its
// feature records, its Gram is accumulated record by record (upper triangle,
// mirrored), and the row is solved by a plain dense Cholesky on fresh
// buffers.  It shares no code with the completer's shared Gram blocks, its
// tiles and lanes or its in-place solve.  It sums in the completer's order
// (DESIGN.md §15): an AS row's Gram takes its feature records first, its
// right-hand side takes them last.

struct Record {
  std::size_t col;
  double value, weight;
};

/// Solves (g + reg I) x = rhs by a dense Cholesky; nullopt when a pivot is
/// not positive and finite.
std::optional<linalg::Vector> dense_solve(linalg::Matrix g,
                                          const linalg::Vector& rhs,
                                          double reg) {
  const std::size_t r = g.rows();
  for (std::size_t i = 0; i < r; ++i) g(i, i) += reg;
  linalg::Matrix l(r, r);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double s = g(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return std::nullopt;
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  linalg::Vector y(r), x(r);
  for (std::size_t i = 0; i < r; ++i) {
    double s = rhs[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  for (std::size_t i = r; i-- > 0;) {
    double s = y[i];
    for (std::size_t k = i + 1; k < r; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

struct Factors {
  linalg::Matrix p, q;

  double predict(std::size_t i, std::size_t j) const {
    double s = 0.0;
    for (std::size_t k = 0; k < p.cols(); ++k)
      s += p(i, k) * q(j, k) + p(j, k) * q(i, k);
    return std::clamp(0.5 * s, -1.0, 1.0);
  }
};

/// The factors a fit starts from: both sides drawn row by row from the
/// config seed.
Factors initial_factors(std::size_t total, const AlsConfig& cfg) {
  const auto r = static_cast<std::size_t>(cfg.rank);
  util::Rng rng(cfg.seed);
  Factors f{linalg::Matrix(total, r), linalg::Matrix(total, r)};
  for (std::size_t i = 0; i < total; ++i)
    for (std::size_t k = 0; k < r; ++k) {
      f.p(i, k) = rng.normal(0.0, 0.1);
      f.q(i, k) = rng.normal(0.0, 0.1);
    }
  return f;
}

Factors reference_fit(std::size_t n, const FeatureMatrix& feats,
                      const AlsConfig& cfg,
                      const std::vector<RatingEntry>& observed) {
  const std::size_t total = n + feats.count();
  const auto r = static_cast<std::size_t>(cfg.rank);
  std::vector<std::vector<Record>> records(total);
  double neg_boost = 1.0;
  if (cfg.balance_classes) {
    double pos_w = 0.0, neg_w = 0.0;
    for (const RatingEntry& e : observed)
      (e.value > 0.0 ? pos_w : neg_w) += std::fabs(e.value);
    if (neg_w > 0.0 && pos_w > 0.0)
      neg_boost = std::min(kBalanceCap, std::max(1.0, pos_w / neg_w));
  }
  for (const RatingEntry& e : observed) {
    double w = 1.0, target = e.value;
    if (cfg.confidence_weighting) {
      w = std::max(kConfidenceFloor, std::fabs(e.value));
      target = e.value > 0.0 ? 1.0 : -1.0;
    }
    if (e.value < 0.0) w *= neg_boost;
    records[e.i].push_back({e.j, target, w});
    records[e.j].push_back({e.i, target, w});
  }
  for (std::size_t f = 0; f < feats.count(); ++f)
    for (std::size_t i = 0; i < n; ++i) {
      records[i].push_back({n + f, feats.rows[f][i], cfg.feature_weight});
      records[n + f].push_back({i, feats.rows[f][i], cfg.feature_weight});
    }

  Factors fit = initial_factors(total, cfg);
  auto half_sweep = [&](const linalg::Matrix& fixed, linalg::Matrix& solved) {
    for (std::size_t row = 0; row < total; ++row) {
      if (records[row].empty()) continue;
      linalg::Matrix gram(r, r);
      linalg::Vector rhs(r, 0.0);
      for (const Record& rec : records[row])
        for (std::size_t a = 0; a < r; ++a)
          rhs[a] += rec.weight * rec.value * fixed(rec.col, a);
      for (bool feature_records : {true, false})
        for (const Record& rec : records[row]) {
          if ((rec.col >= n) != feature_records) continue;
          for (std::size_t a = 0; a < r; ++a) {
            const double fa = fixed(rec.col, a);
            for (std::size_t b = a; b < r; ++b)
              gram(a, b) += rec.weight * fa * fixed(rec.col, b);
          }
        }
      for (std::size_t a = 0; a < r; ++a)
        for (std::size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
      const double reg =
          cfg.lambda * static_cast<double>(records[row].size());
      auto x = dense_solve(gram, rhs, reg);
      if (!x) continue;
      for (std::size_t a = 0; a < r; ++a) solved(row, a) = (*x)[a];
    }
  };
  for (int it = 0; it < cfg.iterations; ++it) {
    half_sweep(fit.q, fit.p);
    half_sweep(fit.p, fit.q);
  }
  return fit;
}

struct Problem {
  std::size_t n = 0;
  std::vector<RatingEntry> observed;
  FeatureMatrix feats;
};

/// `density` of the pairs observed with ratings uniform in [-1, 1], and
/// `f` feature rows uniform in [-1, 1].
Problem random_problem(std::size_t n, std::size_t f, double density,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  Problem pr;
  pr.n = n;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.uniform() < density)
        pr.observed.push_back({i, j, rng.uniform(-1.0, 1.0)});
  pr.feats.rows.assign(f, std::vector<double>(n));
  for (auto& row : pr.feats.rows)
    for (double& v : row) v = rng.uniform(-1.0, 1.0);
  pr.feats.names.assign(f, "random");
  return pr;
}

/// +-1 links of a planted rank-k sign pattern, `density` of them observed,
/// and `f` feature rows that squash random projections of the planted
/// vectors into (-1, 1).
Problem planted_problem(std::size_t n, std::size_t k, std::size_t f,
                        double density, std::uint64_t seed) {
  util::Rng rng(seed);
  const Planted truth = plant(n, k, rng);
  Problem pr;
  pr.n = n;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.uniform() < density)
        pr.observed.push_back({i, j, truth.link(i, j) ? 1.0 : -1.0});
  pr.feats.rows.assign(f, std::vector<double>(n));
  for (auto& row : pr.feats.rows) {
    std::vector<double> b(k);
    for (double& v : b) v = rng.normal();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t d = 0; d < k; ++d) s += truth.x[i][d] * b[d];
      row[i] = std::tanh(s);
    }
  }
  pr.feats.names.assign(f, "planted");
  return pr;
}

double max_abs(const linalg::Matrix& m) {
  double out = 0.0;
  for (double v : m.data()) out = std::max(out, std::fabs(v));
  return out;
}

/// How far a fit lies from the reference: largest prediction and factor
/// differences, and the largest reference factor magnitude.
struct Gap {
  double prediction = 0.0, factor = 0.0, scale = 0.0;
};

Gap gap(const AlsCompleter& c, const Factors& ref) {
  Gap g;
  for (std::size_t i = 0; i < c.num_ases(); ++i)
    for (std::size_t j = i + 1; j < c.num_ases(); ++j)
      g.prediction = std::max(
          g.prediction, std::fabs(c.predict(i, j) - ref.predict(i, j)));
  g.factor = std::max(c.p().max_abs_diff(ref.p), c.q().max_abs_diff(ref.q));
  g.scale = std::max(max_abs(ref.p), max_abs(ref.q));
  return g;
}

struct ReferenceCase {
  const char* name;
  Problem problem;
  int rank;
  AlsConfig cfg = {};
};

std::vector<ReferenceCase> cases_without_features() {
  AlsConfig plain;
  plain.confidence_weighting = false;
  plain.balance_classes = false;
  return {
      {"random", random_problem(60, 0, 0.3, 11), 4},
      {"random sparse, empty rows", random_problem(120, 0, 0.02, 12), 8},
      {"random unweighted", random_problem(90, 0, 0.2, 13), 6, plain},
      {"planted", planted_problem(100, 3, 0, 0.4, 14), 5},
      {"planted rank 24", planted_problem(150, 4, 0, 0.25, 15), 24},
      // The last compile-time rank, the first run-time one, and one well
      // above both.
      {"random rank 32", random_problem(80, 0, 0.5, 16), 32},
      {"random rank 33", random_problem(80, 0, 0.5, 17), 33},
      {"random rank 56", random_problem(70, 0, 0.7, 18), 56},
  };
}

std::vector<ReferenceCase> cases_with_features() {
  AlsConfig heavy;
  heavy.feature_weight = 1.5;
  heavy.lambda = 0.02;
  return {
      {"random rank 1", random_problem(60, 5, 0.3, 21), 1},
      {"planted", planted_problem(120, 3, 17, 0.2, 22), 8},
      {"random paper-shaped", random_problem(190, 33, 0.15, 23), 16},
      {"planted paper-shaped rank 24", planted_problem(190, 4, 33, 0.1, 24),
       24},
      {"random sparse, feature-only rows", random_problem(150, 33, 0.01, 25),
       12},
      {"planted heavy features", planted_problem(100, 2, 9, 0.3, 26), 3,
       heavy},
      {"random rank 32", random_problem(80, 12, 0.3, 27), 32},
      {"random rank 33", random_problem(80, 12, 0.3, 28), 33},
      {"random rank 56", random_problem(70, 9, 0.4, 29), 56},
  };
}

TEST(AlsReference, BitEqualWithoutFeatures) {
  for (ReferenceCase& rc : cases_without_features()) {
    SCOPED_TRACE(rc.name);
    rc.cfg.rank = rc.rank;
    AlsCompleter c(rc.problem.n, rc.problem.feats, rc.cfg);
    c.fit(rc.problem.observed);
    const Factors ref =
        reference_fit(rc.problem.n, rc.problem.feats, rc.cfg,
                      rc.problem.observed);
    EXPECT_TRUE(c.p().data() == ref.p.data()) << "P differs";
    EXPECT_TRUE(c.q().data() == ref.q.data()) << "Q differs";
    const Gap g = gap(c, ref);
    EXPECT_EQ(g.prediction, 0.0);
    EXPECT_GT(g.scale, 0.0);
  }
}

// With features the fits agree to rounding; BitEqualWithFeatures below
// requires the bits.
TEST(AlsReference, MatchesWithFeatures) {
  for (ReferenceCase& rc : cases_with_features()) {
    SCOPED_TRACE(rc.name);
    rc.cfg.rank = rc.rank;
    AlsCompleter c(rc.problem.n, rc.problem.feats, rc.cfg);
    c.fit(rc.problem.observed);
    const Factors ref =
        reference_fit(rc.problem.n, rc.problem.feats, rc.cfg,
                      rc.problem.observed);
    const Gap g = gap(c, ref);
    EXPECT_LE(g.prediction, 1e-12);
    EXPECT_LE(g.factor, 1e-12 * g.scale);
    EXPECT_GT(g.scale, 0.0);
  }
}

// With features too, the reference sums every entry in the completer's
// order, so the factors are the same bits: at the cases' compile-time and
// run-time ranks, at ranks 7 and 9 (at 9 the right-hand side's group of
// rows first spans two tiles), and at n = 61, whose last block of AS rows
// fills one lane of four.
TEST(AlsReference, BitEqualWithFeatures) {
  AlsConfig unweighted;
  unweighted.confidence_weighting = false;
  unweighted.balance_classes = false;
  std::vector<ReferenceCase> cases = cases_with_features();
  cases.push_back({"random rank 7", random_problem(90, 11, 0.2, 41), 7});
  cases.push_back({"planted rank 9", planted_problem(130, 3, 21, 0.15, 42), 9});
  cases.push_back({"random n = 61", random_problem(61, 33, 0.2, 43), 5});
  cases.push_back(
      {"random n = 61 unweighted", random_problem(61, 7, 0.25, 44), 10,
       unweighted});
  for (ReferenceCase& rc : cases) {
    SCOPED_TRACE(rc.name);
    rc.cfg.rank = rc.rank;
    AlsCompleter c(rc.problem.n, rc.problem.feats, rc.cfg);
    c.fit(rc.problem.observed);
    const Factors ref =
        reference_fit(rc.problem.n, rc.problem.feats, rc.cfg,
                      rc.problem.observed);
    EXPECT_TRUE(c.p().data() == ref.p.data()) << "P differs";
    EXPECT_TRUE(c.q().data() == ref.q.data()) << "Q differs";
    EXPECT_GT(max_abs(ref.p), 0.0);
  }
}

// A feature row sums its Gram in the order the reference does, so where
// both sides start from the same factors -- the first half-sweep -- the
// feature rows of P are bit-equal.
TEST(AlsReference, FirstHalfSweepFeatureRowsBitEqual) {
  const Problem pr = random_problem(190, 33, 0.15, 31);
  AlsConfig cfg;
  cfg.rank = 16;
  cfg.iterations = 1;
  AlsCompleter c(pr.n, pr.feats, cfg);
  c.fit(pr.observed);
  const Factors ref = reference_fit(pr.n, pr.feats, cfg, pr.observed);
  for (std::size_t row = pr.n; row < pr.n + pr.feats.count(); ++row)
    for (std::size_t k = 0; k < 16; ++k)
      ASSERT_EQ(c.p()(row, k), ref.p(row, k)) << "row " << row;
}

// ---------------------------------------------------------------------------
// Closed form: one sweep on a 5-AS, 2-feature problem, every row's r x r
// system written out as a sum of outer products and solved by Cramer's rule.

double det(const linalg::Matrix& m) {
  if (m.rows() == 1) return m(0, 0);
  if (m.rows() == 2) return m(0, 0) * m(1, 1) - m(0, 1) * m(1, 0);
  return m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1)) -
         m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0)) +
         m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0));
}

linalg::Vector cramer(const linalg::Matrix& a, const linalg::Vector& b) {
  const double d = det(a);
  linalg::Vector x(b.size());
  for (std::size_t c = 0; c < b.size(); ++c) {
    linalg::Matrix ac = a;
    for (std::size_t i = 0; i < b.size(); ++i) ac(i, c) = b[i];
    x[c] = det(ac) / d;
  }
  return x;
}

/// The rows a half-sweep solves against `fixed`, unweighted observations:
/// AS row i solves
///   (sum_j y_j y_j^T + fw sum_f y_f y_f^T + lambda (obs_i + F) I) x
///     = sum_j v_ij y_j + fw sum_f feat_f[i] y_f,
/// and feature row f solves
///   (fw sum_i y_i y_i^T + lambda n I) x = fw sum_i feat_f[i] y_i.
linalg::Matrix closed_form_sweep(const Problem& pr, const AlsConfig& cfg,
                                 const linalg::Matrix& fixed) {
  const std::size_t n = pr.n, nf = pr.feats.count();
  const auto r = static_cast<std::size_t>(cfg.rank);
  const double fw = cfg.feature_weight;
  linalg::Matrix out(n + nf, r);
  auto add = [&](linalg::Matrix& a, linalg::Vector& b, std::size_t c,
                 double w, double v) {
    for (std::size_t s = 0; s < r; ++s) {
      b[s] += w * v * fixed(c, s);
      for (std::size_t t = 0; t < r; ++t)
        a(s, t) += w * fixed(c, s) * fixed(c, t);
    }
  };
  auto solve_row = [&](std::size_t row, linalg::Matrix a,
                       const linalg::Vector& b, std::size_t count) {
    for (std::size_t s = 0; s < r; ++s)
      a(s, s) += cfg.lambda * static_cast<double>(count);
    const linalg::Vector x = cramer(a, b);
    for (std::size_t s = 0; s < r; ++s) out(row, s) = x[s];
  };
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Matrix a(r, r);
    linalg::Vector b(r, 0.0);
    std::size_t obs = 0;
    for (const RatingEntry& e : pr.observed) {
      if (e.i != i && e.j != i) continue;
      add(a, b, e.i == i ? e.j : e.i, 1.0, e.value);
      ++obs;
    }
    for (std::size_t f = 0; f < nf; ++f)
      add(a, b, n + f, fw, pr.feats.rows[f][i]);
    solve_row(i, a, b, obs + nf);
  }
  for (std::size_t f = 0; f < nf; ++f) {
    linalg::Matrix a(r, r);
    linalg::Vector b(r, 0.0);
    for (std::size_t i = 0; i < n; ++i) add(a, b, i, fw, pr.feats.rows[f][i]);
    solve_row(n + f, a, b, n);
  }
  return out;
}

void expect_closed_form_sweep(int rank) {
  Problem pr;
  pr.n = 5;  // AS 4 has no observations: its row is solved from features
  pr.observed = {{0, 1, 0.9}, {0, 2, -0.6}, {1, 3, 0.4}, {2, 3, -0.8},
                 {1, 2, 0.3}};
  pr.feats.names = {"a", "b"};
  pr.feats.rows = {{0.5, -0.3, 0.8, -1.0, 0.6}, {-0.2, 0.7, 0.1, 0.4, -0.9}};
  AlsConfig cfg;
  cfg.rank = rank;
  cfg.iterations = 1;
  cfg.lambda = 0.1;
  cfg.feature_weight = 0.5;
  cfg.confidence_weighting = false;
  cfg.balance_classes = false;
  AlsCompleter c(pr.n, pr.feats, cfg);
  c.fit(pr.observed);
  const Factors init = initial_factors(pr.n + pr.feats.count(), cfg);
  const linalg::Matrix p = closed_form_sweep(pr, cfg, init.q);
  const linalg::Matrix q = closed_form_sweep(pr, cfg, p);
  EXPECT_LE(c.p().max_abs_diff(p), 1e-12 * max_abs(p));
  EXPECT_LE(c.q().max_abs_diff(q), 1e-12 * max_abs(q));
}

TEST(AlsClosedForm, RowSolves2x2) { expect_closed_form_sweep(2); }

TEST(AlsClosedForm, RowSolves3x3) { expect_closed_form_sweep(3); }

// ---------------------------------------------------------------------------
// Planted low-rank recovery with features and known noise.  Ratings are the
// rank-3 matrix X X^T, observed on 40% of the pairs with N(0, sigma^2)
// noise; the feature rows are exact linear read-outs of X, so the augmented
// matrix has rank 3 too.  Each row's fit averages the noise of ~56 ratings,
// so the held-out error against the noise-free truth (RMS ~0.2) must fall
// below sigma / 2.

class AlsPlantedRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(AlsPlantedRecoveryTest, HeldOutRmseWithinNoiseBound) {
  constexpr std::size_t kN = 120, kK = 3, kF = 8;
  constexpr double kSigma = 0.05;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::vector<double>> x(kN, std::vector<double>(kK));
  for (auto& row : x)
    for (double& v : row) v = rng.normal(0.0, 0.35);
  auto truth = [&](std::size_t i, std::size_t j) {
    double s = 0.0;
    for (std::size_t d = 0; d < kK; ++d) s += x[i][d] * x[j][d];
    return s;
  };
  Problem pr;
  pr.n = kN;
  std::vector<std::pair<std::size_t, std::size_t>> held_out;
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t j = i + 1; j < kN; ++j) {
      if (rng.uniform() < 0.4)
        pr.observed.push_back({i, j, truth(i, j) + rng.normal(0.0, kSigma)});
      else
        held_out.emplace_back(i, j);
    }
  pr.feats.names.assign(kF, "readout");
  pr.feats.rows.assign(kF, std::vector<double>(kN));
  for (auto& row : pr.feats.rows) {
    std::vector<double> b(kK);
    for (double& v : b) v = rng.normal(0.0, 0.35);
    for (std::size_t i = 0; i < kN; ++i)
      for (std::size_t d = 0; d < kK; ++d) row[i] += x[i][d] * b[d];
  }

  AlsConfig cfg;
  cfg.rank = static_cast<int>(kK);
  cfg.lambda = 0.002;
  cfg.iterations = 40;
  cfg.confidence_weighting = false;
  cfg.balance_classes = false;
  AlsCompleter c(kN, pr.feats, cfg);
  c.fit(pr.observed);

  double err = 0.0, spread = 0.0;
  for (auto [i, j] : held_out) {
    const double t = truth(i, j);
    err += (c.predict(i, j) - t) * (c.predict(i, j) - t);
    spread += t * t;
  }
  const double rmse = std::sqrt(err / static_cast<double>(held_out.size()));
  const double rms = std::sqrt(spread / static_cast<double>(held_out.size()));
  EXPECT_LT(rmse, 0.5 * kSigma) << "truth RMS " << rms;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlsPlantedRecoveryTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace metas::core
