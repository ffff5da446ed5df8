#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace hdidx::common {
namespace {

TEST(FitLineTest, RecoversExactLine) {
  std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y = {1, 3, 5, 7, 9};  // y = 2x + 1
  const LineFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r, 1.0, 1e-12);
}

TEST(FitLineTest, NegativeSlopeAndCorrelation) {
  std::vector<double> x = {0, 1, 2, 3};
  std::vector<double> y = {6, 4, 2, 0};
  const LineFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, -2.0, 1e-12);
  EXPECT_NEAR(fit.r, -1.0, 1e-12);
}

TEST(FitLineTest, DegenerateInputs) {
  EXPECT_EQ(FitLine({}, {}).slope, 0.0);
  EXPECT_EQ(FitLine({1.0}, {2.0}).slope, 0.0);
  // Vertical data (constant x) cannot be fit.
  const LineFit fit = FitLine({3, 3, 3}, {1, 2, 3});
  EXPECT_EQ(fit.slope, 0.0);
}

TEST(FitLineTest, NoisyLineSlopeClose) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(0.5 * i + ((i % 2 == 0) ? 0.1 : -0.1));
  }
  const LineFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 1e-3);
  EXPECT_GT(fit.r, 0.999);
}

TEST(StatsTest, MeanAndVariance) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_NEAR(Mean({2, 4, 6}), 4.0, 1e-12);
  EXPECT_EQ(Variance({5.0}), 0.0);
  EXPECT_NEAR(Variance({1, 3}), 1.0, 1e-12);  // population variance
  EXPECT_NEAR(Variance({2, 2, 2, 2}), 0.0, 1e-12);
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  // Uncorrelated-by-construction: symmetric y over monotone x.
  EXPECT_NEAR(PearsonCorrelation({-1, 0, 1}, {1, 0, 1}), 0.0, 1e-12);
}

TEST(StatsTest, PercentileInterpolatesOrderStatistics) {
  EXPECT_EQ(PercentileOfSorted({}, 0.5), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(PercentileOfSorted(one, 0.0), 7.0);
  EXPECT_EQ(PercentileOfSorted(one, 1.0), 7.0);
  // {1..5}: p0=1, p50=3, p100=5, p25 halfway between 2 and 3.
  std::vector<double> v = {5, 1, 4, 2, 3};
  std::sort(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 1.0), 5.0);
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(two, 0.5), 1.5);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 2.0), 5.0);
  // p90 of ten latencies: between the 9th and 10th order statistic.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(ten, 0.9), 9.1);
}

TEST(StatsTest, RelativeErrorSignConvention) {
  // Positive = overestimation, negative = underestimation (paper Table 3).
  EXPECT_NEAR(RelativeError(110, 100), 0.10, 1e-12);
  EXPECT_NEAR(RelativeError(68, 100), -0.32, 1e-12);
  EXPECT_EQ(RelativeError(5, 0), 0.0);
}

}  // namespace
}  // namespace hdidx::common
