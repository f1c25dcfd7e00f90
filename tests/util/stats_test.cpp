#include "util/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace medsen::util {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceIsUnbiased) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Population variance 4; sample variance = 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 10.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitDegenerateX) {
  const std::vector<double> xs = {2.0, 2.0, 2.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, HistogramClampsOutliers) {
  const std::vector<double> xs = {-5.0, 0.5, 1.5, 99.0};
  const auto h = histogram(xs, 0.0, 2.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // -5 clamped into first bucket + 0.5
  EXPECT_EQ(h[1], 2u);  // 1.5 + 99 clamped
}

TEST(RunningStats, MatchesBatchComputation) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

}  // namespace
}  // namespace medsen::util
