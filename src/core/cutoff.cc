#include "core/cutoff.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/compensation.h"
#include "core/hupper.h"

namespace hdidx::core {

namespace {

/// Splits `region` holding `points` uniform points into `fanout` partitions
/// by recursive binary splits along the longest dimension (the
/// maximum-variance dimension under uniformity), slice widths proportional
/// to partition point counts, then descends one tree level per partition.
void SplitCell(const geometry::BoundingBox& region, double points,
               size_t fanout, double child_target, size_t level,
               const index::TreeTopology& topology,
               std::vector<geometry::BoundingBox>* out);

void SynthesizeLevel(const geometry::BoundingBox& region, double points,
                     size_t level, const index::TreeTopology& topology,
                     std::vector<geometry::BoundingBox>* out) {
  if (level == 1) {
    // Final data page: the MBR of `points` uniform points in the cell
    // spans (points-1)/(points+1) of each side.
    geometry::BoundingBox leaf = region;
    const double shrink =
        points > 1.0 ? (points - 1.0) / (points + 1.0) : 0.0;
    leaf.InflateAboutCenter(shrink);
    out->push_back(std::move(leaf));
    return;
  }
  const double child_target =
      static_cast<double>(topology.SubtreeCapacity(level - 1));
  const size_t fanout =
      static_cast<size_t>(std::ceil(points / child_target - 1e-9));
  SplitCell(region, points, std::max<size_t>(fanout, 1), child_target, level,
            topology, out);
}

void SplitCell(const geometry::BoundingBox& region, double points,
               size_t fanout, double child_target, size_t level,
               const index::TreeTopology& topology,
               std::vector<geometry::BoundingBox>* out) {
  if (fanout <= 1) {
    SynthesizeLevel(region, points, level - 1, topology, out);
    return;
  }
  const size_t left_fanout = (fanout + 1) / 2;
  const double left_points =
      std::min(points, static_cast<double>(left_fanout) * child_target);
  const double fraction = points > 0.0 ? left_points / points : 0.5;

  const size_t dim = region.LongestDimension();
  std::vector<float> left_hi = region.hi();
  std::vector<float> right_lo = region.lo();
  const double cut =
      region.lo()[dim] + fraction * (static_cast<double>(region.hi()[dim]) -
                                     region.lo()[dim]);
  left_hi[dim] = static_cast<float>(cut);
  right_lo[dim] = static_cast<float>(cut);

  const geometry::BoundingBox left(region.lo(), left_hi);
  const geometry::BoundingBox right(std::move(right_lo), region.hi());
  SplitCell(left, left_points, left_fanout, child_target, level, topology,
            out);
  SplitCell(right, points - left_points, fanout - left_fanout, child_target,
            level, topology, out);
}

}  // namespace

void SynthesizeUniformLeaves(const geometry::BoundingBox& grown_leaf,
                             double full_points, size_t level,
                             const index::TreeTopology& topology,
                             std::vector<geometry::BoundingBox>* out) {
  if (grown_leaf.empty() || full_points <= 0.0) return;
  // The grown leaf approximates the MBR of full_points uniform points; the
  // uniform *region* they were drawn from is larger by (n+1)/(n-1) per
  // side. Splits partition the region, not the MBR.
  geometry::BoundingBox region = grown_leaf;
  if (full_points > 1.0) {
    region.InflateAboutCenter((full_points + 1.0) / (full_points - 1.0));
  }
  SynthesizeLevel(region, full_points, level, topology, out);
}

PredictionResult PredictWithCutoffTree(io::PagedFile* file,
                                       const index::TreeTopology& topology,
                                       const workload::QueryRegions& queries,
                                       const CutoffParams& params,
                                       const common::ExecutionContext& ctx) {
  HDIDX_CHECK(params.memory_points > 0);
  HDIDX_CHECK(params.h_upper >= 1 && params.h_upper < topology.height());

  PredictionResult result;
  result.h_upper = params.h_upper;
  result.sigma_upper = SigmaUpper(topology, params.memory_points);

  const io::IoStats before = file->stats();
  common::Rng rng(params.seed);

  // Steps 2-4: query-point reads plus the scan that yields the sample.
  const data::Dataset sample = ChargeScanAndDrawSample(
      file, queries.size(), params.memory_points, &rng);

  // Step 5: upper tree, leaves grown by the compensation factor.
  const UpperTreeResult upper = BuildGrownUpperTree(
      sample, topology, params.h_upper, result.sigma_upper, ctx);

  // Steps 6-7: synthesize every lower tree from geometry alone.
  std::vector<geometry::BoundingBox> leaves;
  leaves.reserve(topology.NumLeaves());
  for (size_t i = 0; i < upper.grown_leaves.size(); ++i) {
    SynthesizeUniformLeaves(upper.grown_leaves[i],
                            upper.full_points_per_leaf[i], upper.stop_level,
                            topology, &leaves);
  }

  // Steps 8-9: intersection counting (the only parallel section — all I/O
  // charging above runs serially on this thread). Runs on the batched
  // geometry kernels: one SoA slab over the synthesized leaves, shared by
  // all query chunks.
  CountLeafIntersections(leaves, queries, &result, ctx);
  result.io = file->stats();
  result.io.page_seeks -= before.page_seeks;
  result.io.page_transfers -= before.page_transfers;
  return result;
}

}  // namespace hdidx::core
