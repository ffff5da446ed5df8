#include "core/sstree_predict.h"

#include <cmath>
#include <memory>

#include "common/random.h"
#include "common/stats.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/sstree.h"
#include "test_util.h"

namespace hdidx::core {
namespace {

TEST(BoundingSphereTest, OfPointsCoversAll) {
  common::Rng rng(1);
  const auto data = data::GenerateUniform(200, 5, &rng);
  const auto sphere =
      geometry::BoundingSphere::OfPoints(data.data(), data.size(), 5);
  EXPECT_FALSE(sphere.empty());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_LE(sphere.MinDist(data.row(i)), 1e-6);
  }
}

TEST(BoundingSphereTest, SinglePointHasZeroRadius) {
  const std::vector<float> p = {1, 2, 3};
  const auto sphere = geometry::BoundingSphere::OfPoints(p, 1, 3);
  EXPECT_DOUBLE_EQ(sphere.radius(), 0.0);
  EXPECT_DOUBLE_EQ(sphere.MinDist(p), 0.0);
}

TEST(BoundingSphereTest, MinDistAndIntersection) {
  const geometry::BoundingSphere sphere({0.0f, 0.0f}, 1.0);
  const std::vector<float> far = {3.0f, 0.0f};
  EXPECT_DOUBLE_EQ(sphere.MinDist(far), 2.0);
  EXPECT_TRUE(sphere.IntersectsSphere(far, 2.0));
  EXPECT_FALSE(sphere.IntersectsSphere(far, 1.9));
  const std::vector<float> inside = {0.5f, 0.0f};
  EXPECT_DOUBLE_EQ(sphere.MinDist(inside), 0.0);
}

TEST(BoundingSphereTest, InflateRadius) {
  geometry::BoundingSphere sphere({0.0f}, 2.0);
  sphere.InflateRadius(1.5);
  EXPECT_DOUBLE_EQ(sphere.radius(), 3.0);
}

TEST(BoundingSphereTest, SqrtFreeIntersectionMatchesMinDist) {
  // The squared-domain test must agree with the MinDist definition on
  // random sphere pairs (both are exact at these magnitudes).
  common::Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> c1(4), c2(4);
    for (auto& v : c1) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    for (auto& v : c2) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    const geometry::BoundingSphere sphere(c1, rng.NextUniform(0.0, 1.0));
    const double radius = rng.NextUniform(0.0, 1.0);
    EXPECT_EQ(sphere.IntersectsSphere(c2, radius),
              sphere.MinDist(c2) <= radius)
        << "trial " << trial;
  }
}

TEST(BoundingSphereDeathTest, NegativeQueryRadiusIsFatal) {
  const geometry::BoundingSphere sphere({0.0f, 0.0f}, 1.0);
  const std::vector<float> center = {3.0f, 0.0f};
  EXPECT_DEATH(sphere.IntersectsSphere(center, -0.1), "non-negative");
  const std::vector<geometry::BoundingSphere> leaves = {sphere};
  EXPECT_DEATH(index::CountSphereAccesses(leaves, center, -1.0),
               "non-negative");
  EXPECT_DEATH(index::CountSphereAccesses(leaves, center, std::nan("")),
               "non-negative");
}

TEST(SphereCompensationTest, Limits) {
  // No sampling, fewer than two sampled points or a zero statistic: there
  // is no law to fit, so no growth.
  EXPECT_DOUBLE_EQ(AdaptiveSphereGrowth(0.5, 1.0, 33, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(AdaptiveSphereGrowth(0.5, 1.0, 1, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(AdaptiveSphereGrowth(0.0, 1.0, 33, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(AdaptiveSphereGrowth(0.5, 0.0, 33, 0.1), 1.0);
  EXPECT_GT(AdaptiveSphereGrowth(0.9, 1.0, 33, 0.1), 1.0);
  // Spheres shrink much less than boxes: with the uniform 60-ball's
  // moments (mean d/(d+1), max nd/(nd+1)) growth stays close to 1.
  const double n = 3.0;
  EXPECT_LT(AdaptiveSphereGrowth(60.0 / 61.0, n * 60.0 / (n * 60.0 + 1.0), 3,
                                 0.1),
            1.05);
  // Monotone in zeta, and a page whose points crowd its rim (mean close
  // to max) grows less than one whose points spread inward.
  EXPECT_GT(AdaptiveSphereGrowth(0.75, 1.0, 20, 0.05),
            AdaptiveSphereGrowth(0.75, 1.0, 20, 0.5));
  EXPECT_LT(AdaptiveSphereGrowth(0.98, 1.0, 33, 0.1),
            AdaptiveSphereGrowth(0.6, 1.0, 33, 0.1));
}

TEST(SphereCompensationTest, MatchesMonteCarloInTheBall) {
  // In the uniform d-ball the distance CDF is (r/R)^d, the power law the
  // adaptive fit assumes. Fed a sampled page's mean distance and mean
  // bounding radius, it must predict the measured growth of the bounding
  // radius from n to n / zeta points, here in d=3.
  common::Rng rng(2);
  struct Moments {
    double mean_distance = 0.0;
    double mean_max_radius = 0.0;
  };
  auto moments = [&](size_t n, int trials) {
    Moments m;
    for (int t = 0; t < trials; ++t) {
      double max_r = 0.0;
      for (size_t i = 0; i < n; ++i) {
        // Sample uniform in the unit ball by rejection.
        double x[3];
        double s;
        do {
          s = 0.0;
          for (auto& v : x) {
            v = 2.0 * rng.NextDouble() - 1.0;
            s += v * v;
          }
        } while (s > 1.0);
        m.mean_distance += std::sqrt(s);
        max_r = std::max(max_r, std::sqrt(s));
      }
      m.mean_max_radius += max_r;
    }
    m.mean_distance /= static_cast<double>(n) * trials;
    m.mean_max_radius /= trials;
    return m;
  };
  const size_t c = 64;
  const double zeta = 0.25;
  const Moments full = moments(c, 400);
  const Moments sampled = moments(c / 4, 400);
  EXPECT_NEAR(full.mean_max_radius / sampled.mean_max_radius,
              AdaptiveSphereGrowth(sampled.mean_distance,
                                   sampled.mean_max_radius, c / 4, zeta),
              0.01);
}

class SsTreePredictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Noise-free clusters: bounding-sphere radii are outlier-driven, so a
    // 2% uniform background would make the radius statistic unstable under
    // sampling (see the limitation note in core/sstree_predict.h).
    common::Rng gen(31);
    data::ClusteredConfig config;
    config.num_points = 12000;
    config.dim = 8;
    config.num_clusters = 8;
    config.intrinsic_dim = 3.0;
    config.noise_fraction = 0.0;
    data_ = data::GenerateClustered(config, &gen);
    topo_ = std::make_unique<index::TreeTopology>(data_.size(), 50, 8);
    common::Rng wrng(32);
    workload_ = std::make_unique<workload::QueryWorkload>(
        workload::QueryWorkload::Create(data_, 30, 8, &wrng));

    index::BulkLoadOptions full;
    full.topology = topo_.get();
    const index::RTree tree = index::BulkLoadInMemory(data_, full);
    const auto spheres = index::ComputeLeafSpheres(tree, data_);
    num_leaves_ = spheres.size();
    measured_per_query_ = MeasureSsTreeLeafAccesses(spheres, *workload_);
    measured_ = common::Mean(measured_per_query_);
  }

  data::Dataset data_{1};
  std::unique_ptr<index::TreeTopology> topo_;
  std::unique_ptr<workload::QueryWorkload> workload_;
  std::vector<double> measured_per_query_;
  double measured_ = 0.0;
  size_t num_leaves_ = 0;
};

TEST_F(SsTreePredictTest, LeafSpheresCoverTheirPoints) {
  index::BulkLoadOptions full;
  full.topology = topo_.get();
  const index::RTree tree = index::BulkLoadInMemory(data_, full);
  const auto spheres = index::ComputeLeafSpheres(tree, data_);
  ASSERT_EQ(spheres.size(), tree.num_leaves());
  for (size_t i = 0; i < spheres.size(); ++i) {
    const auto& node = tree.node(tree.leaf_ids()[i]);
    for (uint32_t pos = node.start; pos < node.start + node.count; ++pos) {
      EXPECT_LE(spheres[i].MinDist(data_.row(tree.OrderedIndex(pos))), 1e-5);
    }
  }
}

TEST_F(SsTreePredictTest, FullSampleExact) {
  MiniIndexParams params;
  params.sampling_fraction = 1.0;
  const auto result =
      PredictSsTreeWithMiniIndex(data_, *topo_, *workload_, params);
  EXPECT_NEAR(result.avg_leaf_accesses, measured_, 1e-9);
  EXPECT_EQ(result.num_predicted_leaves, num_leaves_);
}

TEST_F(SsTreePredictTest, SampledPredictionTracksMeasurement) {
  MiniIndexParams params;
  params.sampling_fraction = 0.25;
  const auto result =
      PredictSsTreeWithMiniIndex(data_, *topo_, *workload_, params);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured_);
  EXPECT_LT(std::abs(rel), 0.35) << "relative error " << rel;
  // Per-query correlation should be strong, as for the R-tree predictor.
  EXPECT_GT(common::PearsonCorrelation(result.per_query_accesses,
                                       measured_per_query_),
            0.7);
}

TEST_F(SsTreePredictTest, SphereAccessCountMatchesBruteForce) {
  index::BulkLoadOptions full;
  full.topology = topo_.get();
  const index::RTree tree = index::BulkLoadInMemory(data_, full);
  const auto spheres = index::ComputeLeafSpheres(tree, data_);
  const auto center = data_.row(42);
  size_t brute = 0;
  for (const auto& s : spheres) {
    if (s.MinDist(center) <= 0.25) ++brute;
  }
  EXPECT_EQ(index::CountSphereAccesses(spheres, center, 0.25), brute);
}

}  // namespace
}  // namespace hdidx::core
