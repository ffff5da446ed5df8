#include "baselines/mtree_model.h"

#include <algorithm>

#include "common/check.h"
#include "geometry/distance.h"

namespace hdidx::baselines {

DistanceDistribution::DistanceDistribution(const data::Dataset& data,
                                           size_t num_pairs,
                                           common::Rng* rng) {
  HDIDX_CHECK(data.size() >= 2);
  HDIDX_CHECK(num_pairs >= 1);
  distances_.reserve(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    const size_t a = static_cast<size_t>(rng->NextBounded(data.size()));
    size_t b = static_cast<size_t>(rng->NextBounded(data.size() - 1));
    if (b >= a) ++b;  // distinct pair, uniform over off-diagonal pairs
    distances_.push_back(geometry::L2(data.row(a), data.row(b)));
  }
  std::sort(distances_.begin(), distances_.end());
}

double DistanceDistribution::Cdf(double x) const {
  const auto it =
      std::upper_bound(distances_.begin(), distances_.end(), x);
  return static_cast<double>(it - distances_.begin()) /
         static_cast<double>(distances_.size());
}

double PredictSphereAccesses(
    const DistanceDistribution& distribution,
    const std::vector<geometry::BoundingSphere>& leaves, double radius) {
  double expected = 0.0;
  for (const auto& leaf : leaves) {
    // A query anchored at a data-like point reaches the leaf iff its
    // distance to the leaf center is <= radius + r_leaf; the center is
    // itself data-like, so the pairwise distance distribution applies.
    expected += distribution.Cdf(radius + leaf.radius());
  }
  return expected;
}

double PredictAverageSphereAccesses(
    const DistanceDistribution& distribution,
    const std::vector<geometry::BoundingSphere>& leaves,
    const std::vector<double>& radii) {
  if (radii.empty()) return 0.0;
  double total = 0.0;
  for (double r : radii) {
    total += PredictSphereAccesses(distribution, leaves, r);
  }
  return total / static_cast<double>(radii.size());
}

}  // namespace hdidx::baselines
