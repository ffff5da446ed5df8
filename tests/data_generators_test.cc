#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hdidx::data {
namespace {

/// Coordinate `k` of every row, for the batch statistics in common/stats.h.
std::vector<double> Column(const Dataset& d, size_t k) {
  std::vector<double> column(d.size());
  for (size_t i = 0; i < d.size(); ++i) column[i] = d.row(i)[k];
  return column;
}

TEST(GeneratorsTest, UniformInUnitCube) {
  common::Rng rng(1);
  const Dataset d = GenerateUniform(5000, 4, &rng);
  ASSERT_EQ(d.size(), 5000u);
  ASSERT_EQ(d.dim(), 4u);
  for (float v : d.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
  // Per-dimension mean near 0.5 and variance near 1/12.
  for (size_t k = 0; k < 4; ++k) {
    const std::vector<double> column = Column(d, k);
    EXPECT_NEAR(common::Mean(column), 0.5, 0.02);
    EXPECT_NEAR(common::Variance(column), 1.0 / 12.0, 0.01);
  }
}

TEST(GeneratorsTest, UniformDeterministicPerSeed) {
  common::Rng a(7), b(7), c(8);
  const Dataset da = GenerateUniform(100, 3, &a);
  const Dataset db = GenerateUniform(100, 3, &b);
  const Dataset dc = GenerateUniform(100, 3, &c);
  EXPECT_TRUE(da == db);
  EXPECT_FALSE(da == dc);
}

TEST(GeneratorsTest, ClusteredIsMoreConcentratedThanUniform) {
  common::Rng rng(2);
  ClusteredConfig config;
  config.num_points = 4000;
  config.dim = 8;
  config.num_clusters = 5;
  config.noise_fraction = 0.0;
  const Dataset d = GenerateClustered(config, &rng);
  ASSERT_EQ(d.size(), 4000u);

  // Average nearest-cluster-like behavior: the per-dimension variance of
  // clustered data is far below the uniform 1/12 in trailing dimensions
  // (exponential decay).
  EXPECT_GT(common::Variance(Column(d, 0)),
            common::Variance(Column(d, 7)) * 2.0);
}

TEST(GeneratorsTest, ClusteredPopulationSkew) {
  common::Rng rng(3);
  ClusteredConfig config;
  config.num_points = 2000;
  config.dim = 2;
  config.num_clusters = 2;
  config.population_skew = 0.25;  // cluster 0 gets ~80%
  config.noise_fraction = 0.0;
  config.cluster_spread = 1e-4;
  const Dataset d = GenerateClustered(config, &rng);
  // With two tight clusters, classify by proximity to the two modes.
  // Count points near the first point's mode.
  const auto p0 = d.row(0);
  size_t near0 = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    double dist = 0;
    for (size_t k = 0; k < 2; ++k) {
      dist += (d.row(i)[k] - p0[k]) * (d.row(i)[k] - p0[k]);
    }
    if (dist < 0.01) ++near0;
  }
  const double frac = static_cast<double>(near0) / d.size();
  // One of the clusters holds ~80%; the first point is in one of them.
  EXPECT_TRUE(frac > 0.7 || frac < 0.3);
}

TEST(GeneratorsTest, LineDatasetStaysNearLine) {
  common::Rng rng(4);
  const Dataset d = testing::GenerateLine(1000, 6, 0.0, &rng);
  // With zero jitter all points satisfy x = 0.5 + t*dir: the rank of the
  // centered data is 1, so variance along any two dims is perfectly
  // correlated. Check pairwise correlation magnitude ~1.
  std::vector<double> x0, x1;
  for (size_t i = 0; i < d.size(); ++i) {
    x0.push_back(d.row(i)[0]);
    x1.push_back(d.row(i)[1]);
  }
  EXPECT_GT(std::abs(common::PearsonCorrelation(x0, x1)), 0.999);
}

TEST(GeneratorsTest, SurrogatesHavePaperShapes) {
  // Reduced cardinalities for speed; dimensionality is the paper's.
  const Dataset color = Color64Surrogate(500, 1);
  EXPECT_EQ(color.dim(), 64u);
  EXPECT_EQ(color.size(), 500u);
  const Dataset tex48 = Texture48Surrogate(300, 1);
  EXPECT_EQ(tex48.dim(), 48u);
  const Dataset stock = Stock360Surrogate(100, 1);
  EXPECT_EQ(stock.dim(), 360u);
  EXPECT_EQ(stock.size(), 100u);
}

TEST(GeneratorsTest, SurrogateKltOrdersVariance) {
  // KLT output must have (weakly) decreasing variance in the leading dims.
  const Dataset d = Texture60Surrogate(2000, 5);
  const double v0 = common::Variance(Column(d, 0));
  const double v5 = common::Variance(Column(d, 5));
  const double v30 = common::Variance(Column(d, 30));
  EXPECT_GE(v0, v5 * 0.99);
  EXPECT_GE(v5, v30 * 0.99);
}

TEST(GeneratorsTest, StockSurrogateDftConcentratesEnergyInLowFrequencies) {
  const Dataset d = Stock360Surrogate(50, 2);
  // Random-walk spectra decay ~1/f: DC + first coefficients dominate.
  double low = 0.0, high = 0.0;
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t k = 0; k < 10; ++k) low += std::abs(d.row(i)[k]);
    for (size_t k = 350; k < 360; ++k) high += std::abs(d.row(i)[k]);
  }
  EXPECT_GT(low, high * 10.0);
}

}  // namespace
}  // namespace hdidx::data
