#ifndef HDIDX_BASELINES_MTREE_MODEL_H_
#define HDIDX_BASELINES_MTREE_MODEL_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "geometry/bounding_sphere.h"

namespace hdidx::baselines {

/// The distance-distribution cost model of Ciaccia and Patella for
/// ball-region (M-tree / SS-tree style) nodes — the data-partitioning
/// representative of the paper's "locally parametric" family (Section 2.3).
///
/// The model annotates the index with one global statistic, the pairwise
/// distance distribution F(x) = P(dist(p, q) <= x), estimated from a sample
/// of point pairs. A node with region radius r_i is accessed by a
/// range query of radius r with probability F(r + r_i) (the query anchor is
/// distributed like the data); the expected page accesses of a workload are
/// the sum of those probabilities.
///
/// Exposed as a baseline: it needs the real index's node radii (so it does
/// not avoid the index build the sampling technique avoids), and the paper
/// notes the family is "restricted to other index structures (like the
/// M-tree)" — this module quantifies how it fares on sphere pages next to
/// the sampling predictor.
class DistanceDistribution {
 public:
  /// Estimates F from `num_pairs` random point pairs of `data`.
  DistanceDistribution(const data::Dataset& data, size_t num_pairs,
                       common::Rng* rng);

  /// P(dist <= x) by interpolation on the sampled distances.
  double Cdf(double x) const;

 private:
  std::vector<double> distances_;  // sorted
};

/// Expected page accesses for a query of radius `radius`: sum over leaves
/// of F(radius + r_leaf).
double PredictSphereAccesses(const DistanceDistribution& distribution,
                             const std::vector<geometry::BoundingSphere>& leaves,
                             double radius);

/// Workload-level prediction: averages PredictSphereAccesses over per-query
/// radii (the workload's exact k-NN radii).
double PredictAverageSphereAccesses(
    const DistanceDistribution& distribution,
    const std::vector<geometry::BoundingSphere>& leaves,
    const std::vector<double>& radii);

}  // namespace hdidx::baselines

#endif  // HDIDX_BASELINES_MTREE_MODEL_H_
