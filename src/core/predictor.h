#ifndef HDIDX_CORE_PREDICTOR_H_
#define HDIDX_CORE_PREDICTOR_H_

#include <cstddef>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/dataset.h"
#include "geometry/bounding_box.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "io/io_stats.h"
#include "io/paged_file.h"
#include "workload/query_workload.h"

namespace hdidx::core {

/// Common output of every prediction technique in this library (mini-index,
/// cutoff, resampled) and of the measurement harness: the paper's headline
/// quantity (average leaf page accesses per query), the per-query values
/// behind the correlation diagrams of Figures 11-12, and the I/O the
/// prediction itself cost.
struct PredictionResult {
  /// Average number of leaf page accesses per query — the model's output.
  double avg_leaf_accesses = 0.0;

  /// Per-query access counts, aligned with the workload's query order.
  std::vector<double> per_query_accesses;

  /// Disk activity charged to the prediction (its own cost, not the
  /// predicted index's cost).
  io::IoStats io;

  /// Number of leaf pages in the predicted layout; should track the full
  /// index's leaf count when the structure is replicated faithfully.
  size_t num_predicted_leaves = 0;

  /// Echo of the parameters the prediction ran with.
  size_t h_upper = 0;
  double sigma_upper = 1.0;
  double sigma_lower = 1.0;
};

/// Counts, for each query region, how many of `leaf_boxes` it intersects
/// (k-NN spheres or range boxes alike), and fills the result's access
/// fields. Shared by all predictors.
///
/// Queries are counted concurrently on `ctx`; each writes only its own
/// per_query_accesses slot and the average is reduced serially in query
/// order afterwards, so every result field is bit-identical for any thread
/// count (including 1).
void CountLeafIntersections(
    const std::vector<geometry::BoundingBox>& leaf_boxes,
    const workload::QueryRegions& queries, PredictionResult* result,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

/// Measures per-query leaf page accesses on a real tree for any region
/// type — the paper's ground truth (Section 5.1), and the library's only
/// leaf-access count on a built tree. The root page is always read; a DFS
/// from it reads every node whose MBR the region intersects, each charged
/// its `pages` (X-tree supernodes span several). If `io` is non-null every
/// page touched (leaf and directory) is charged as one random access:
/// nearly all query-time accesses are random.
///
/// Parallel over queries on `ctx`; per-query page counts are reduced into
/// `io` serially in query order, keeping the counters bit-identical to the
/// serial implementation.
std::vector<double> MeasureLeafAccesses(
    const index::RTree& tree, const workload::QueryRegions& queries,
    io::IoStats* io,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

/// Charges the I/O of the predictors' first pass (Figures 5 and 7, steps
/// 2-4) against `file` — q random query-point reads (Equation 2) plus one
/// sequential full scan (cost_ScanDataset) — and returns the uniform sample
/// of min(sample_size, N) points the scan extracts. The workload itself is
/// supplied externally so that measurement and prediction share identical
/// query spheres.
data::Dataset ChargeScanAndDrawSample(io::PagedFile* file,
                                      size_t num_query_points,
                                      size_t sample_size, common::Rng* rng);

/// The upper tree shared by the cutoff and resampled predictors: built on
/// the memory-sized sample with the full tree's structure down to
/// StopLevel(h_upper), leaves grown by the compensation factor.
struct UpperTreeResult {
  /// Grown upper-tree leaf boxes (k of them).
  std::vector<geometry::BoundingBox> grown_leaves;
  /// Estimated full-index point count under each leaf (leaf sample count
  /// divided by sigma_upper).
  std::vector<double> full_points_per_leaf;
  double sigma_upper = 1.0;
  size_t stop_level = 1;
};
/// The upper-tree bulk load fans out on `ctx` with a bit-identical layout
/// for every thread count (see BulkLoadOptions::exec).
UpperTreeResult BuildGrownUpperTree(
    const data::Dataset& sample, const index::TreeTopology& topology,
    size_t h_upper, double sigma_upper,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

}  // namespace hdidx::core

#endif  // HDIDX_CORE_PREDICTOR_H_
