#include "baselines/mtree_model.h"

#include <cmath>

#include "common/random.h"
#include "common/stats.h"
#include "core/sstree_predict.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/sstree.h"
#include "test_util.h"
#include "workload/query_workload.h"

namespace hdidx::baselines {
namespace {

TEST(DistanceDistributionTest, CdfIsMonotoneAndNormalized) {
  const auto data = hdidx::testing::SmallClustered(2000, 4, 1);
  common::Rng rng(2);
  const DistanceDistribution dist(data, 5000, &rng);
  EXPECT_DOUBLE_EQ(dist.Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(dist.Cdf(1e9), 1.0);
  double prev = 0.0;
  for (double x = 0.0; x <= 2.0; x += 0.1) {
    const double c = dist.Cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(DistanceDistributionTest, MatchesAnalyticOnUnitSquare) {
  // Mean pairwise distance of uniform points in the unit square is
  // ~0.5214; the median is ~0.51, so half the pairs lie within it.
  common::Rng gen(5);
  const auto data = data::GenerateUniform(5000, 2, &gen);
  common::Rng rng(6);
  const DistanceDistribution dist(data, 20000, &rng);
  EXPECT_NEAR(dist.Cdf(0.51), 0.5, 0.03);
}

TEST(MTreeModelTest, SaturatesForHugeRadius) {
  const auto data = hdidx::testing::SmallClustered(4000, 6, 10);
  const index::TreeTopology topo(data.size(), 40, 8);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const auto tree = index::BulkLoadInMemory(data, options);
  const auto leaves = index::ComputeLeafSpheres(tree, data);
  common::Rng rng(11);
  const DistanceDistribution dist(data, 10000, &rng);
  EXPECT_NEAR(PredictSphereAccesses(dist, leaves, 1e9),
              static_cast<double>(leaves.size()), 1e-9);
  EXPECT_GE(PredictSphereAccesses(dist, leaves, 0.0), 0.0);
}

TEST(MTreeModelTest, PredictionWithinFactorOfMeasurement) {
  // The locally parametric model with exact workload radii should land in
  // the right ballpark on sphere pages (its home turf), though without the
  // per-query fidelity of the sampling approach.
  common::Rng gen(12);
  data::ClusteredConfig config;
  config.num_points = 8000;
  config.dim = 6;
  config.num_clusters = 6;
  config.noise_fraction = 0.0;
  const auto data = data::GenerateClustered(config, &gen);
  const index::TreeTopology topo(data.size(), 40, 8);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const auto tree = index::BulkLoadInMemory(data, options);
  const auto leaves = index::ComputeLeafSpheres(tree, data);

  common::Rng wrng(13);
  const auto workload = workload::QueryWorkload::Create(data, 30, 8, &wrng);
  const double measured = common::Mean(
      hdidx::core::MeasureSsTreeLeafAccesses(leaves, workload));

  common::Rng drng(14);
  const DistanceDistribution dist(data, 30000, &drng);
  const double predicted =
      PredictAverageSphereAccesses(dist, leaves, workload.radii());
  EXPECT_GT(predicted, measured * 0.3);
  EXPECT_LT(predicted, measured * 4.0);
}

}  // namespace
}  // namespace hdidx::baselines
