#ifndef HDIDX_CORE_SSTREE_PREDICT_H_
#define HDIDX_CORE_SSTREE_PREDICT_H_

#include <cstddef>
#include <vector>

#include "core/mini_index.h"
#include "data/dataset.h"
#include "geometry/bounding_sphere.h"
#include "index/topology.h"
#include "workload/query_workload.h"

namespace hdidx::core {

/// Adaptive per-leaf radius growth: fits a power-law distance CDF
/// F(r) = (r/R)^p to the sampled page's own distances via the
/// mean-to-maximum ratio (E[dist] = R*p/(p+1), E[max of n] = R*np/(np+1)),
/// then extrapolates the expected bounding radius from the n sampled points
/// to the n/zeta the full page holds. `mean_distance` and `max_distance`
/// are the sample's distances from the page centroid. Returns the factor to
/// multiply the sampled radius by (>= 1).
double AdaptiveSphereGrowth(double mean_distance, double max_distance,
                            size_t sample_count, double zeta);

/// Result of an SS-tree prediction (sphere pages).
struct SsTreePredictionResult {
  double avg_leaf_accesses = 0.0;
  std::vector<double> per_query_accesses;
  size_t num_predicted_leaves = 0;
};

/// The Section 3 sampling model applied to the SS-tree: build the
/// mini-index with the shared bulk loader, bound its leaves with centroid
/// spheres, grow the radii by AdaptiveSphereGrowth, and count query-sphere /
/// page-sphere intersections. Demonstrates the Section 4.7 claim that the
/// technique transfers to other fixed-capacity-page structures with only
/// the page geometry swapped.
///
/// Limitation (documented in EXPERIMENTS.md): the bounding radius is a
/// maximum statistic inflated in *every* direction by a single outlier, so
/// on data with a uniform background component the sampled radii are far
/// less stable than MBR extents, and predictions degrade accordingly — an
/// inherent property of centroid-sphere pages, not of the sampling model.
SsTreePredictionResult PredictSsTreeWithMiniIndex(
    const data::Dataset& data, const index::TreeTopology& topology,
    const workload::QueryWorkload& workload, const MiniIndexParams& params,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

/// Measurement counterpart: per-query counts of leaf spheres intersecting
/// the workload's k-NN spheres. Parallel over queries on `ctx`; each query
/// writes only its own slot, so the result is thread-count independent.
std::vector<double> MeasureSsTreeLeafAccesses(
    const std::vector<geometry::BoundingSphere>& leaves,
    const workload::QueryWorkload& workload,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

}  // namespace hdidx::core

#endif  // HDIDX_CORE_SSTREE_PREDICT_H_
