#include "core/sstree_predict.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "index/bulk_loader.h"
#include "index/sstree.h"

namespace hdidx::core {

double AdaptiveSphereGrowth(double mean_distance, double max_distance,
                            size_t sample_count, double zeta) {
  if (zeta >= 1.0 || sample_count < 2) return 1.0;
  if (max_distance <= 0.0 || mean_distance <= 0.0) return 1.0;
  const double n = static_cast<double>(sample_count);
  // Target ratio mean/max = [p/(p+1)] * [(np+1)/(np)], monotone increasing
  // in p from 1/n (p -> 0) towards 1 (p -> inf): solve by bisection.
  const double ratio =
      std::clamp(mean_distance / max_distance, 1.05 / n, 0.999);
  double lo = 1e-3, hi = 1e3;
  for (int iter = 0; iter < 80; ++iter) {
    const double p = 0.5 * (lo + hi);
    const double r = (p / (p + 1.0)) * ((n * p + 1.0) / (n * p));
    if (r < ratio) {
      lo = p;
    } else {
      hi = p;
    }
  }
  const double p = 0.5 * (lo + hi);
  const double full_n = n / zeta;
  // growth = E[max of n/zeta] / E[max of n] under F(r) = (r/R)^p.
  return (full_n * p / (full_n * p + 1.0)) * ((n * p + 1.0) / (n * p));
}

SsTreePredictionResult PredictSsTreeWithMiniIndex(
    const data::Dataset& data, const index::TreeTopology& topology,
    const workload::QueryWorkload& workload, const MiniIndexParams& params,
    const common::ExecutionContext& ctx) {
  HDIDX_CHECK(params.sampling_fraction > 0.0 && params.sampling_fraction <= 1.0);
  common::Rng rng(params.seed);
  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(data.size()) *
                             params.sampling_fraction));
  std::vector<size_t> rows;
  rng.SampleIndices(data.size(), sample_size, &rows);
  const data::Dataset sample = data.Select(rows);
  const double zeta =
      static_cast<double>(sample.size()) / static_cast<double>(data.size());

  index::BulkLoadOptions options;
  options.topology = &topology;
  options.scale = zeta;
  options.exec = &ctx;
  const index::RTree mini = index::BulkLoadInMemory(sample, options);

  std::vector<geometry::BoundingSphere> leaves =
      index::ComputeLeafSpheres(mini, sample);
  if (params.compensate) {
    // Adaptive compensation: each leaf's own distance distribution decides
    // how much its bounding radius would grow with the full population.
    for (size_t i = 0; i < leaves.size(); ++i) {
      const index::RTreeNode& node = mini.node(mini.leaf_ids()[i]);
      double sum = 0.0;
      for (uint32_t pos = node.start; pos < node.start + node.count; ++pos) {
        double s = 0.0;
        const auto row = sample.row(mini.OrderedIndex(pos));
        for (size_t k = 0; k < sample.dim(); ++k) {
          const double diff =
              static_cast<double>(row[k]) - leaves[i].center()[k];
          s += diff * diff;
        }
        sum += std::sqrt(s);
      }
      const double mean_dist = sum / static_cast<double>(node.count);
      leaves[i].InflateRadius(AdaptiveSphereGrowth(
          mean_dist, leaves[i].radius(), node.count, zeta));
    }
  }

  SsTreePredictionResult result;
  result.num_predicted_leaves = leaves.size();
  result.per_query_accesses = MeasureSsTreeLeafAccesses(leaves, workload, ctx);
  // Serial reduction in query order keeps the average bit-identical for any
  // thread count.
  double total = 0.0;
  for (double v : result.per_query_accesses) total += v;
  result.avg_leaf_accesses =
      workload.num_queries() > 0
          ? total / static_cast<double>(workload.num_queries())
          : 0.0;
  return result;
}

std::vector<double> MeasureSsTreeLeafAccesses(
    const std::vector<geometry::BoundingSphere>& leaves,
    const workload::QueryWorkload& workload,
    const common::ExecutionContext& ctx) {
  std::vector<double> result(workload.num_queries(), 0.0);
  ctx.ParallelFor(0, workload.num_queries(), /*grain=*/0,
                  [&](size_t begin, size_t end) {
                    for (size_t i = begin; i < end; ++i) {
                      result[i] = static_cast<double>(index::CountSphereAccesses(
                          leaves, workload.queries().row(i),
                          workload.radius(i)));
                    }
                  });
  return result;
}

}  // namespace hdidx::core
