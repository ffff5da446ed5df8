#include "baselines/fractal.h"

#include <cmath>

#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hdidx::baselines {
namespace {

TEST(FractalEstimatorTest, UniformSquareHasDimensionTwo) {
  common::Rng rng(1);
  const auto data = data::GenerateUniform(50000, 2, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 10);
  EXPECT_NEAR(dims.d0, 2.0, 0.35);
  EXPECT_NEAR(dims.d2, 2.0, 0.35);
}

TEST(FractalEstimatorTest, UniformCubeHasDimensionThree) {
  common::Rng rng(2);
  const auto data = data::GenerateUniform(60000, 3, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 8);
  EXPECT_NEAR(dims.d0, 3.0, 0.5);
  EXPECT_NEAR(dims.d2, 3.0, 0.5);
}

TEST(FractalEstimatorTest, EmbeddedLineHasDimensionOne) {
  // A line in 8-d space: intrinsic dimensionality ~1 regardless of the
  // embedding — the scenario where fractal models beat uniform ones.
  common::Rng rng(3);
  const auto data = hdidx::testing::GenerateLine(40000, 8, 0.0, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 10);
  EXPECT_NEAR(dims.d0, 1.0, 0.25);
  EXPECT_NEAR(dims.d2, 1.0, 0.25);
}

TEST(FractalEstimatorTest, ClusteredDataBelowEmbeddingDim) {
  common::Rng rng(4);
  data::ClusteredConfig config;
  config.num_points = 30000;
  config.dim = 12;
  config.intrinsic_dim = 3.0;
  const auto data = data::GenerateClustered(config, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 10);
  EXPECT_LT(dims.d0, 9.0);
  EXPECT_GT(dims.d0, 0.3);
  EXPECT_LT(dims.d2, 9.0);
}

TEST(FractalEstimatorTest, SinglePointCloudIsDimensionZero) {
  data::Dataset data(3);
  for (int i = 0; i < 1000; ++i) {
    data.Append(std::vector<float>{1.f, 2.f, 3.f});
  }
  const FractalDimensions dims = EstimateFractalDimensions(data, 6);
  EXPECT_NEAR(dims.d0, 0.0, 1e-9);
  EXPECT_NEAR(dims.d2, 0.0, 1e-9);
}

TEST(FractalEstimatorTest, D2NeverExceedsD0Substantially) {
  // Theory: D2 <= D0 for any measure; estimation noise allowed.
  common::Rng rng(5);
  const auto data = data::GenerateUniform(30000, 4, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 8);
  EXPECT_LE(dims.d2, dims.d0 + 0.4);
}

TEST(FractalModelTest, CalibratedRadiusOnUniformData) {
  // On uniform 2-d data the correlation law is exact, so the model's radius
  // should be close to the true expected 10-NN L-inf-ish radius.
  common::Rng rng(6);
  const auto data = data::GenerateUniform(50000, 2, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 10);
  FractalModelParams params;
  params.num_points = data.size();
  params.num_leaf_pages = 1000;
  params.k = 10;
  const FractalModelResult result = PredictFractalModel(dims, params);
  ASSERT_TRUE(result.applicable);
  // True radius scale: sqrt(k/(N*pi)) ~ 0.0080 for the L2 ball.
  EXPECT_GT(result.radius, 0.001);
  EXPECT_LT(result.radius, 0.1);
}

TEST(FractalModelTest, AccessesBoundedByPages) {
  common::Rng rng(7);
  const auto data = hdidx::testing::GenerateLine(20000, 6, 0.001, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 10);
  FractalModelParams params;
  params.num_points = data.size();
  params.num_leaf_pages = 500;
  params.k = 21;
  const FractalModelResult result = PredictFractalModel(dims, params);
  EXPECT_LE(result.predicted_accesses, 500.0);
  EXPECT_GE(result.predicted_accesses, 0.0);
}

TEST(FractalModelTest, DegenerateDimensionsAreInapplicable) {
  FractalDimensions dims;  // all zeros
  FractalModelParams params;
  params.num_points = 1000;
  params.num_leaf_pages = 100;
  params.k = 5;
  const FractalModelResult result = PredictFractalModel(dims, params);
  EXPECT_FALSE(result.applicable);
}

TEST(FractalModelTest, RadiusGrowsWithK) {
  common::Rng rng(8);
  const auto data = data::GenerateUniform(30000, 3, &rng);
  const FractalDimensions dims = EstimateFractalDimensions(data, 8);
  FractalModelParams params;
  params.num_points = data.size();
  params.num_leaf_pages = 800;
  params.k = 1;
  const double r1 = PredictFractalModel(dims, params).radius;
  params.k = 50;
  const double r50 = PredictFractalModel(dims, params).radius;
  EXPECT_GT(r50, r1);
}

}  // namespace
}  // namespace hdidx::baselines
