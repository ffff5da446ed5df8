#include "core/dynamic_mini_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/compensation.h"

namespace hdidx::core {

PredictionResult PredictDynamicRStar(const data::Dataset& data,
                                     const index::RStarTree::Options& options,
                                     const workload::QueryRegions& queries,
                                     const DynamicMiniIndexParams& params,
                                     const common::ExecutionContext& ctx) {
  HDIDX_CHECK(params.sampling_fraction > 0.0 && params.sampling_fraction <= 1.0);
  PredictionResult result;
  result.sigma_upper = params.sampling_fraction;

  common::Rng rng(params.seed);
  const size_t sample_size = std::max<size_t>(
      4, static_cast<size_t>(static_cast<double>(data.size()) *
                             params.sampling_fraction));
  std::vector<size_t> rows;
  rng.SampleIndices(data.size(), sample_size, &rows);
  // A uniform sample preserves the (arbitrary) insertion order of the
  // original build, since SampleIndices returns rows in file order.
  const data::Dataset sample = data.Select(rows);
  const double zeta =
      static_cast<double>(sample.size()) / static_cast<double>(data.size());

  // Scale the data page capacity; R* needs at least 4 entries per page for
  // its min-fill/split machinery.
  index::RStarTree::Options mini_options = options;
  mini_options.max_data_entries = std::max<size_t>(
      4, static_cast<size_t>(std::llround(
             static_cast<double>(options.max_data_entries) * zeta)));
  const index::RStarTree mini =
      index::RStarTree::BuildByInsertion(sample, mini_options);

  const index::RTree snapshot = mini.ToRTree();
  std::vector<geometry::BoundingBox> leaves;
  leaves.reserve(snapshot.num_leaves());
  AppendGrownLeaves(snapshot, zeta, params.compensate, &leaves,
                    /*full_points=*/nullptr);
  // Intersection counting runs on the batched geometry kernels: one SoA
  // slab over the mini R*-tree's (optionally compensated) leaves, shared by
  // all query chunks.
  CountLeafIntersections(leaves, queries, &result, ctx);
  return result;
}

}  // namespace hdidx::core
