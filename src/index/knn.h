#ifndef HDIDX_INDEX_KNN_H_
#define HDIDX_INDEX_KNN_H_

#include <cstddef>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "data/dataset.h"
#include "index/rtree.h"
#include "io/io_stats.h"

namespace hdidx::index {

/// Bounded max-heap of the k smallest distances seen so far — the semantics
/// every exact k-th-distance scan keeps per query. The scans themselves run
/// in geometry::kernels, which holds its own copy of this heap so the
/// geometry layer does not depend on index/.
class KnnHeap {
 public:
  explicit KnnHeap(size_t k);

  /// Offers a squared distance.
  void Push(double squared_distance);

  /// True once k distances have been collected.
  bool full() const { return heap_.size() == k_; }

  /// Current k-th smallest squared distance (the largest in the heap).
  /// Only meaningful when full(); +inf otherwise.
  double KthSquared() const;

  /// Current k-th smallest distance (sqrt of KthSquared()).
  double Kth() const;

  size_t k() const { return k_; }

 private:
  size_t k_;
  std::priority_queue<double> heap_;  // max-heap of squared distances
};

/// Bounded max-heap of the k nearest (squared distance, row) pairs under
/// pair ordering — rows are unique, so retention and final order are
/// identical to sorting all pairs and truncating to k (the tie-break the
/// tree search's candidate list used). Replaces the per-leaf
/// append-sort-truncate of the old TreeKnnSearch loop.
class KnnPairHeap {
 public:
  explicit KnnPairHeap(size_t k);

  /// Offers one candidate.
  void Push(double squared_distance, size_t row);

  /// True once k candidates have been collected.
  bool full() const { return heap_.size() == k_; }

  size_t size() const { return heap_.size(); }

  /// Current k-th smallest squared distance; +inf until full() — the same
  /// pruning bound the sorted candidate list exposed as candidates[k-1].
  double KthSquared() const;

  /// The retained pairs in ascending (distance, row) order; consumes the
  /// heap.
  std::vector<std::pair<double, size_t>> TakeSortedAscending();

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

/// Exact distance from `query` to its k-th nearest neighbor in `data` by
/// linear scan. Points at squared distance <= `exclude_within_sq` are
/// skipped — pass 0.0 to exclude the query point itself when it is drawn
/// from the dataset (the paper's density-biased queries), or a negative
/// value to keep everything.
double ExactKthDistance(const data::Dataset& data, std::span<const float> query,
                        size_t k, double exclude_within_sq);

/// Exact k-th-nearest-neighbor distance excluding exactly one row — the
/// query's own row when queries are drawn from the data. Unlike passing
/// exclude_within_sq=0.0 to ExactKthDistance (which drops *every*
/// zero-distance point), duplicates of the query point still count as
/// neighbors, so on datasets with repeated points this matches the
/// semantics of the accounted workload scan. Pass exclude_row >= data.size()
/// to exclude nothing.
///
/// This is the one-query reference: QueryWorkload::Create's query-tiled
/// radii equal it bit for bit (DESIGN.md §4).
double ExactKthDistanceExcludingRow(const data::Dataset& data,
                                    std::span<const float> query, size_t k,
                                    size_t exclude_row);

/// Exact k nearest neighbor row indices (ascending by distance) by linear
/// scan; used by tests to validate the tree-based search.
std::vector<size_t> ExactKnn(const data::Dataset& data,
                             std::span<const float> query, size_t k);

/// Result of running a tree-based k-NN search.
struct TreeKnnResult {
  /// Row indices of the k nearest points, ascending by distance.
  std::vector<size_t> neighbors;
  /// Distance to the k-th neighbor.
  double kth_distance = 0.0;
  /// Pages read: leaves and directory nodes visited by the best-first
  /// search (Hjaltason-Samet optimal algorithm).
  RTree::AccessCount accesses;
};

/// Optimal best-first k-NN search on a bulk-loaded tree. `data` must be the
/// dataset the tree was built from. Used both as a correctness oracle
/// consumer (tests compare it against ExactKnn) and to validate that the
/// pages an optimal search reads are exactly those intersecting the k-NN
/// sphere.
TreeKnnResult TreeKnnSearch(const RTree& tree, const data::Dataset& data,
                            std::span<const float> query, size_t k);

/// Per-query page-access measurement for a batch of query spheres: for each
/// query i, the number of tree leaves intersecting the sphere
/// (centers.row(i), radii[i]). This is the paper's measured/predicted "leaf
/// page accesses" quantity. If `io` is non-null, every page access (leaf
/// and directory) is additionally charged as one random read (seek +
/// transfer), matching the paper's observation that nearly all query-time
/// accesses are random.
///
/// Queries are counted concurrently on `ctx`; per-query counts are written
/// to independent slots and the I/O counters are reduced in query order, so
/// the result (including `io`) is bit-identical for every thread count.
std::vector<double> CountSphereLeafAccesses(
    const RTree& tree, const data::Dataset& centers,
    const std::vector<double>& radii, io::IoStats* io,
    const common::ExecutionContext& ctx = common::DefaultExecutionContext());

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_KNN_H_
