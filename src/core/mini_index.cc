#include "core/mini_index.h"

#include <algorithm>

#include "common/check.h"
#include "core/compensation.h"
#include "index/bulk_loader.h"

namespace hdidx::core {

std::vector<geometry::BoundingBox> BuildGrownMiniIndexLeaves(
    const data::Dataset& data, const index::TreeTopology& topology,
    const MiniIndexParams& params, const common::ExecutionContext& ctx) {
  HDIDX_CHECK(params.sampling_fraction > 0.0 && params.sampling_fraction <= 1.0);

  // Draw the uniform sample.
  common::Rng rng(params.seed);
  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(data.size()) *
                             params.sampling_fraction));
  std::vector<size_t> rows;
  rng.SampleIndices(data.size(), sample_size, &rows);
  const data::Dataset sample = data.Select(rows);
  const double zeta =
      static_cast<double>(sample.size()) / static_cast<double>(data.size());

  // Bulk-load the miniature index with the full tree's structure: same
  // construction algorithm, partition targets scaled by zeta.
  index::BulkLoadOptions options;
  options.topology = &topology;
  options.scale = zeta;
  options.root_level = topology.height();
  options.stop_level = 1;
  options.split_strategy = params.split_strategy;
  options.exec = &ctx;
  const index::RTree mini = index::BulkLoadInMemory(sample, options);

  // Grow every leaf by the compensation factor. The page capacity entering
  // Theorem 1 is each leaf's own (estimated) full occupancy c/zeta — the
  // per-page analogue of C_eff,data.
  std::vector<geometry::BoundingBox> leaves;
  leaves.reserve(mini.num_leaves());
  AppendGrownLeaves(mini, zeta, params.compensate, &leaves,
                    /*full_points=*/nullptr);
  return leaves;
}

PredictionResult PredictWithMiniIndex(const data::Dataset& data,
                                      const index::TreeTopology& topology,
                                      const workload::QueryRegions& queries,
                                      const MiniIndexParams& params,
                                      const common::ExecutionContext& ctx) {
  PredictionResult result;
  result.sigma_upper = params.sampling_fraction;
  const std::vector<geometry::BoundingBox> leaves =
      BuildGrownMiniIndexLeaves(data, topology, params, ctx);
  CountLeafIntersections(leaves, queries, &result, ctx);
  return result;
}

}  // namespace hdidx::core
