#ifndef HDIDX_CORE_MINI_INDEX_H_
#define HDIDX_CORE_MINI_INDEX_H_

#include <cstdint>

#include "core/predictor.h"
#include "data/dataset.h"
#include "index/bulk_loader.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "workload/query_workload.h"

namespace hdidx::core {

/// Parameters of the basic (unlimited-memory) sampling model of Section 3.
struct MiniIndexParams {
  /// Sampling fraction zeta in (0, 1]; the mini-index is built on a uniform
  /// zeta-sample of the data.
  double sampling_fraction = 0.1;
  /// Whether to grow the sampled leaf pages by the compensation factor of
  /// Theorem 1 (Figure 2 compares both settings).
  bool compensate = true;
  /// Seed for drawing the sample.
  uint64_t seed = 1;
  /// The split strategy the full index was (or will be) built with; the
  /// mini-index must run the same construction algorithm for the
  /// structural-similarity argument of Section 3.1 to hold.
  index::SplitStrategy split_strategy = index::SplitStrategy::kMaxVariance;
};

/// The basic sampling-based prediction model (Section 3.1): draw a sample,
/// bulk-load a miniature index with the same structure as the full index,
/// grow its leaf pages by the compensation factor, and count query-sphere /
/// leaf intersections.
///
/// This variant assumes the dataset and the mini-index fit in memory, so the
/// result's I/O counters stay zero; the restricted-memory implementations
/// are core/cutoff.h and core/resampled.h.
PredictionResult PredictWithMiniIndex(
    const data::Dataset& data, const index::TreeTopology& topology,
    const workload::QueryRegions& queries, const MiniIndexParams& params,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

/// Builds the grown mini-index leaf boxes without counting intersections;
/// exposed for tests and for inspecting predicted page layouts. The
/// mini-index bulk load fans out on `ctx` with a bit-identical layout for
/// every thread count (see BulkLoadOptions::exec).
std::vector<geometry::BoundingBox> BuildGrownMiniIndexLeaves(
    const data::Dataset& data, const index::TreeTopology& topology,
    const MiniIndexParams& params,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

}  // namespace hdidx::core

#endif  // HDIDX_CORE_MINI_INDEX_H_
