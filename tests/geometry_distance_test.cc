#include "geometry/distance.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace hdidx::geometry {
namespace {

TEST(DistanceTest, L2Basics) {
  const std::vector<float> a = {0, 0}, b = {3, 4};
  EXPECT_DOUBLE_EQ(SquaredL2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(L2(a, b), 5.0);
  EXPECT_DOUBLE_EQ(L2(a, a), 0.0);
}

TEST(DistanceTest, MinDistZeroInsideBox) {
  const BoundingBox box({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(MinDist(std::vector<float>{1, 1}, box), 0.0);
  EXPECT_DOUBLE_EQ(MinDist(std::vector<float>{0, 2}, box), 0.0);  // boundary
}

TEST(DistanceTest, MinDistToFaceEdgeCorner) {
  const BoundingBox box({0, 0}, {2, 2});
  // Face: directly right of the box.
  EXPECT_DOUBLE_EQ(MinDist(std::vector<float>{3, 1}, box), 1.0);
  // Corner: diagonal from (2,2).
  EXPECT_DOUBLE_EQ(MinDist(std::vector<float>{5, 6}, box), 5.0);
  // Below-left corner.
  EXPECT_DOUBLE_EQ(MinDist(std::vector<float>{-3, -4}, box), 5.0);
}

TEST(DistanceTest, MinDistNeverExceedsMaxDist) {
  // MINDIST is a lower bound on the distance to every point of the box, so
  // it never exceeds the distance to the farthest corner.
  const BoundingBox box({-1, 2, 0}, {4, 3, 7});
  const std::vector<std::vector<float>> points = {
      {0, 0, 0}, {10, 10, 10}, {-5, 2.5f, 3}, {2, 2.5f, 5}};
  for (const auto& p : points) {
    std::vector<float> far(p.size());
    for (size_t d = 0; d < p.size(); ++d) {
      far[d] = std::abs(p[d] - box.lo()[d]) > std::abs(p[d] - box.hi()[d])
                   ? box.lo()[d]
                   : box.hi()[d];
    }
    EXPECT_LE(MinDist(p, box), L2(p, far));
  }
}

TEST(DistanceDeathTest, NegativeOrNanRadiusIsFatal) {
  const BoundingBox box({0.f, 0.f}, {1.f, 1.f});
  const std::vector<float> center = {0.5f, 0.5f};
  EXPECT_DEATH(SphereIntersectsBox(center, -0.5, box), "non-negative");
  // A NaN radius used to silently make every page count as missed.
  const double nan = std::nan("");
  EXPECT_DEATH(SphereIntersectsBox(center, nan, box), "non-negative");
}

TEST(DistanceTest, SphereBoxIntersection) {
  const BoundingBox box({0, 0}, {1, 1});
  const std::vector<float> center = {2, 0.5f};
  EXPECT_FALSE(SphereIntersectsBox(center, 0.99, box));
  EXPECT_TRUE(SphereIntersectsBox(center, 1.0, box));  // touching counts
  EXPECT_TRUE(SphereIntersectsBox(center, 1.5, box));
}

TEST(DistanceTest, EmptyBoxIsInfinitelyFar) {
  const BoundingBox empty(2);
  const std::vector<float> p = {0, 0};
  EXPECT_TRUE(std::isinf(MinDist(p, empty)));
  EXPECT_FALSE(SphereIntersectsBox(p, 1e12, empty));
}

TEST(UnitSphereVolumeTest, KnownLowDimensions) {
  EXPECT_NEAR(std::exp(LogUnitSphereVolume(1)), 2.0, 1e-12);   // segment
  EXPECT_NEAR(std::exp(LogUnitSphereVolume(2)), M_PI, 1e-12);  // disk
  EXPECT_NEAR(std::exp(LogUnitSphereVolume(3)), 4.0 / 3.0 * M_PI, 1e-12);
}

TEST(UnitSphereVolumeTest, VanishesInHighDimensions) {
  // V_d -> 0 super-exponentially; by d=60 it is astronomically small, and
  // by d=617 (ISOLET) only its logarithm is representable.
  EXPECT_LT(LogUnitSphereVolume(60), std::log(1e-17));
  EXPECT_GT(LogUnitSphereVolume(5), LogUnitSphereVolume(20));
  EXPECT_TRUE(std::isfinite(LogUnitSphereVolume(617)));
  EXPECT_EQ(std::exp(LogUnitSphereVolume(617)), 0.0);
}

}  // namespace
}  // namespace hdidx::geometry
