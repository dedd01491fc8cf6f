// CSV-export tests.
#include "eval/export.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "test_world.hpp"

namespace metas::eval {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_unique<core::MetroContext>(testing::shared_focus_context());
    const std::size_t n = ctx_->size();
    result_.estimated = core::EstimatedMatrix(n);
    result_.estimated.set(0, 1, 1.0);
    result_.estimated.set(0, 2, -1.0);
    result_.ratings = linalg::Matrix(n, n);
    result_.ratings(0, 1) = result_.ratings(1, 0) = 0.9;
    result_.ratings(2, 3) = result_.ratings(3, 2) = 0.6;
    result_.ratings(0, 2) = result_.ratings(2, 0) = -0.8;
    result_.threshold = 0.5;
    core::IssuedRecord rec;
    rec.i = 0;
    rec.j = 1;
    rec.launched = 1;
    rec.found_existence = true;
    rec.estimated_prob = 0.4;
    rec.exploration = true;
    rec.attempts = 2;
    result_.measurement_log.push_back(rec);
  }
  std::vector<std::string> lines(const std::string& s) {
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string line;
    while (std::getline(is, line)) out.push_back(line);
    return out;
  }
  std::unique_ptr<core::MetroContext> ctx_;
  core::PipelineResult result_;
};

TEST_F(ExportTest, LinksCsvContainsThresholdedPairs) {
  std::ostringstream os;
  export_links_csv(os, *ctx_, result_, 0.5);
  auto ls = lines(os.str());
  ASSERT_GE(ls.size(), 3u);
  EXPECT_EQ(ls[0], "as_a,as_b,rating,measured,inferred");
  // (0,1) measured + inferred; (2,3) inferred only; (0,2) excluded.
  bool has01 = false, has23 = false, has02 = false;
  std::string a0 = std::to_string(ctx_->as_at(0));
  std::string a1 = std::to_string(ctx_->as_at(1));
  std::string a2 = std::to_string(ctx_->as_at(2));
  std::string a3 = std::to_string(ctx_->as_at(3));
  for (const auto& l : ls) {
    if (l.rfind(a0 + "," + a1 + ",", 0) == 0) {
      has01 = true;
      EXPECT_NE(l.find(",1,1"), std::string::npos);
    }
    if (l.rfind(a2 + "," + a3 + ",", 0) == 0) {
      has23 = true;
      EXPECT_NE(l.find(",0,1"), std::string::npos);
    }
    if (l.rfind(a0 + "," + a2 + ",", 0) == 0) has02 = true;
  }
  EXPECT_TRUE(has01);
  EXPECT_TRUE(has23);
  EXPECT_FALSE(has02);
}

TEST_F(ExportTest, RatingsCsvIsSquareWithHeader) {
  std::ostringstream os;
  export_ratings_csv(os, *ctx_, result_);
  auto ls = lines(os.str());
  ASSERT_EQ(ls.size(), ctx_->size() + 1);
  // Header has n+1 comma-separated fields.
  std::size_t commas = 0;
  for (char c : ls[0])
    if (c == ',') ++commas;
  EXPECT_EQ(commas, ctx_->size());
}

TEST_F(ExportTest, MeasurementLogRoundTrips) {
  std::ostringstream os;
  export_measurement_log_csv(os, *ctx_, result_);
  auto ls = lines(os.str());
  ASSERT_EQ(ls.size(), 2u);
  EXPECT_EQ(ls[0],
            "as_a,as_b,estimated_prob,ran,informative,found_link,found_nonlink,"
            "exploration,infra_failure,attempts");
  EXPECT_NE(ls[1].find("0.4,1,1,1,0,1,0,2"), std::string::npos);
}

// Every number reads as a default-state std::ostringstream writes it (%.6g
// for doubles), whatever the state of the stream the exporter is given.
TEST_F(ExportTest, NumbersReadAsDefaultOstreamWritesThem) {
  const std::vector<double> values = {
      1e-05, -2.5e-07,                  // exponent form
      0.1234567, 123456.7, 1234567.0,   // rounding to six digits
      1.0, -1.0, 0.0, -0.0};            // integers and negative zero
  const std::size_t n = ctx_->size();
  ASSERT_GT(n, values.size() + 1);
  result_.measurement_log.clear();
  for (std::size_t k = 0; k < values.size(); ++k) {
    const std::size_t i = k % 3, j = k + 3;
    result_.ratings(i, j) = result_.ratings(j, i) = values[k];
    core::IssuedRecord rec;
    rec.i = static_cast<int>(i);
    rec.j = static_cast<int>(j);
    rec.estimated_prob = values[k];
    rec.launched = k % 2 == 0 ? 1 : 0;
    rec.found_nonexistence = k % 3 == 0;
    rec.attempts = static_cast<int>(k) - 4;
    result_.measurement_log.push_back(rec);
  }

  // A state under which operator<< would write other text.
  auto odd_state = [](std::ostringstream& os) {
    os << std::fixed << std::setprecision(2) << std::showpos << std::hex
       << std::uppercase << std::boolalpha;
  };
  std::ostringstream links, ratings, log;
  odd_state(links);
  odd_state(ratings);
  odd_state(log);
  // Below every rating, so every pair is written.
  const double threshold = -std::numeric_limits<double>::infinity();
  export_links_csv(links, *ctx_, result_, threshold);
  export_ratings_csv(ratings, *ctx_, result_);
  export_measurement_log_csv(log, *ctx_, result_);

  // The line a default-state stream builds from the same fields.
  auto line = [](const auto&... fields) {
    std::ostringstream os;
    const char* sep = "";
    ((os << sep << fields, sep = ","), ...);
    return os.str();
  };
  auto as = [&](std::size_t i) { return ctx_->as_at(i); };
  const core::EstimatedMatrix& est = result_.estimated;

  std::vector<std::string> want = {"as_a,as_b,rating,measured,inferred"};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      want.push_back(line(as(i), as(j), result_.ratings(i, j),
                          est.filled(i, j) && est.value(i, j) > 0 ? 1 : 0,
                          1));
  EXPECT_EQ(lines(links.str()), want);

  std::ostringstream header;
  header << "as";
  for (std::size_t j = 0; j < n; ++j) header << ',' << as(j);
  want = {header.str()};
  for (std::size_t i = 0; i < n; ++i) {
    std::ostringstream row;
    row << as(i);
    for (std::size_t j = 0; j < n; ++j)
      row << ',' << (i == j ? 0.0 : result_.ratings(i, j));
    want.push_back(row.str());
  }
  EXPECT_EQ(lines(ratings.str()), want);

  want = {"as_a,as_b,estimated_prob,ran,informative,found_link,found_nonlink,"
          "exploration,infra_failure,attempts"};
  for (const core::IssuedRecord& r : result_.measurement_log)
    want.push_back(line(as(static_cast<std::size_t>(r.i)),
                        as(static_cast<std::size_t>(r.j)), r.estimated_prob,
                        r.ran() ? 1 : 0, r.informative() ? 1 : 0,
                        r.found_existence ? 1 : 0,
                        r.found_nonexistence ? 1 : 0, r.exploration ? 1 : 0,
                        r.infra_failure ? 1 : 0, r.attempts));
  EXPECT_EQ(lines(log.str()), want);

  // The fields the value list was chosen for, spelled out.
  const std::string rows = ratings.str() + log.str();
  for (const char* text : {",1e-05,", ",-2.5e-07,", ",0.123457,", ",123457,",
                           ",1.23457e+06,", ",-0,", ",-1,"})
    EXPECT_NE(rows.find(text), std::string::npos) << text;
}

}  // namespace
}  // namespace metas::eval
