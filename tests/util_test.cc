#include <gtest/gtest.h>

#include <cmath>

#include "test_stats.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace autoview {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing table");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing table");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, Uniform01Bounds) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.Uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(RngTest, ZipfSkewsTowardSmallRanks) {
  Rng rng(5);
  int lo = 0, hi = 0;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.Zipf(100, 1.5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    if (v < 10) ++lo;
    if (v >= 90) ++hi;
  }
  EXPECT_GT(lo, hi * 5);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(5);
  int low_half = 0;
  for (int i = 0; i < 4000; ++i) low_half += rng.Zipf(100, 0.0) < 50;
  EXPECT_NEAR(low_half, 2000, 200);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(9);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(StringsTest, JoinSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
}

TEST(StringsTest, CaseAndTrim) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_EQ(Trim("  x \t"), "x");
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(FormatDouble(1.5000, 4), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 2), "2");
  EXPECT_EQ(HumanCount(1500), "1.5K");
  EXPECT_EQ(HumanCount(2500000), "2.5M");
}

TEST(MetricsTest, MaeMape) {
  std::vector<double> y = {1, 2, 4};
  std::vector<double> yhat = {1, 3, 2};
  EXPECT_NEAR(MeanAbsoluteError(y, yhat), 1.0, 1e-12);
  EXPECT_NEAR(MeanAbsolutePercentError(y, yhat), (0 + 0.5 + 0.5) / 3, 1e-12);
}

TEST(MetricsTest, RmseAndPearson) {
  std::vector<double> y = {1, 2, 3, 4};
  std::vector<double> perfect = y;
  EXPECT_NEAR(RootMeanSquaredError(y, perfect), 0.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(y, perfect), 1.0, 1e-12);
  std::vector<double> inverse = {4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(y, inverse), -1.0, 1e-12);
  std::vector<double> constant = {5, 5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(y, constant), 0.0);
}

TEST(RunningStatTest, TracksMinMaxMeanVar) {
  RunningStat s;
  for (double v : {2.0, 4.0, 6.0}) s.Add(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_NEAR(s.mean(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 8.0 / 3.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 6.0);
  EXPECT_NEAR(s.sum(), 12.0, 1e-12);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "v"});
  tp.AddRow({"long_name", "1"});
  tp.AddRow({"x"});
  std::string out = tp.ToString();
  EXPECT_NE(out.find("| name      | v |"), std::string::npos);
  EXPECT_NE(out.find("| long_name | 1 |"), std::string::npos);
  EXPECT_NE(out.find("| x         |   |"), std::string::npos);
}

}  // namespace
}  // namespace autoview
