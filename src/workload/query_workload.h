#ifndef HDIDX_WORKLOAD_QUERY_WORKLOAD_H_
#define HDIDX_WORKLOAD_QUERY_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "geometry/bounding_box.h"

namespace hdidx::geometry::kernels {
class BoxSlab;
}  // namespace hdidx::geometry::kernels

namespace hdidx::workload {

/// A batch of query regions tested against page MBRs — the common face of
/// nearest-neighbor (sphere) and range (box) workloads. The paper's
/// prediction pipeline only ever asks one question of a query: does its
/// region intersect this page? (An exact search for the query reads exactly
/// the pages whose MBRs its region intersects.) Everything downstream of
/// workload construction (predictors, measurement) is therefore written
/// against this interface and serves both query types. Both questions below
/// are answered by the dispatching kernels in ActiveKernelMode(), and every
/// mode decides each box exactly as the scalar oracle does.
class QueryRegions {
 public:
  virtual ~QueryRegions() = default;

  /// Number of queries in the batch.
  virtual size_t size() const = 0;

  /// Number of `slab` boxes query i's region intersects.
  HDIDX_CONCURRENT_READ virtual size_t CountIntersections(
      size_t i, const geometry::kernels::BoxSlab& slab) const = 0;

  /// Appends, in ascending order, the indices of the `slab` boxes query i's
  /// region intersects: the step of a tree descent over RTree::child_slab.
  HDIDX_CONCURRENT_READ virtual void AppendIntersections(
      size_t i, const geometry::kernels::BoxSlab& slab,
      std::vector<uint32_t>* hits) const = 0;
};

/// A density-biased k-NN query workload: q query points drawn uniformly from
/// the dataset itself (so dense regions receive proportionally more
/// queries, Section 4.2) together with each query's exact k-NN sphere
/// radius computed by a full scan.
///
/// Both measurement and prediction consume the same workload: the number of
/// leaf pages an optimal NN search reads equals the number of leaf MBRs the
/// k-NN sphere intersects, so a fixed sphere per query makes
/// measured-vs-predicted comparisons exact and repeatable.
class QueryWorkload : public QueryRegions {
 public:
  /// Builds a workload of `q` k-NN queries over an in-memory dataset
  /// (no I/O accounting; the predictors charge the query-point reads in
  /// core::ChargeScanAndDrawSample). Exactly the query's own row is excluded
  /// from its neighbor set — duplicates of the query point still count as
  /// neighbors.
  ///
  /// `rng` is consumed serially (the row draws), so the random stream is
  /// identical for every thread count. The exact k-NN radii are computed by
  /// the query-tiled scan (geometry::kernels::KthDistanceScans): each
  /// ParallelFor chunk of queries on `ctx` is one tile, which streams the
  /// dataset once for all of its queries — the whole workload is one tile on
  /// a 1-thread pool. Each query keeps its own heap and writes its own
  /// radius slot, and its result does not depend on its tile, so radii are
  /// bit-identical to the single-threaded, one-query-at-a-time run.
  static QueryWorkload Create(
      const data::Dataset& data, size_t q, size_t k, common::Rng* rng,
      const common::ExecutionContext& ctx = common::DefaultExecutionContext());

  // QueryRegions: sphere-vs-box intersection with the exact k-NN radius
  // (SquaredMinDist <= radius²).
  size_t size() const override { return queries_.size(); }
  size_t CountIntersections(
      size_t i, const geometry::kernels::BoxSlab& slab) const override;
  void AppendIntersections(size_t i, const geometry::kernels::BoxSlab& slab,
                           std::vector<uint32_t>* hits) const override;

  size_t num_queries() const { return queries_.size(); }
  size_t k() const { return k_; }
  const data::Dataset& queries() const { return queries_; }
  const std::vector<double>& radii() const { return radii_; }
  double radius(size_t i) const { return radii_[i]; }

  /// Row indices in the source dataset the queries were drawn from.
  const std::vector<size_t>& query_rows() const { return query_rows_; }

  /// Direct constructor for callers that computed radii themselves; prefer
  /// Create() elsewhere. Requires one radius per query row, each >= 0 (a
  /// NaN radius would silently intersect nothing).
  QueryWorkload(data::Dataset queries, std::vector<double> radii,
                std::vector<size_t> rows, size_t k);

 private:
  data::Dataset queries_;
  std::vector<double> radii_;
  std::vector<size_t> query_rows_;
  size_t k_;
};

}  // namespace hdidx::workload

#endif  // HDIDX_WORKLOAD_QUERY_WORKLOAD_H_
