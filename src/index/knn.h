#ifndef HDIDX_INDEX_KNN_H_
#define HDIDX_INDEX_KNN_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "index/rtree.h"

namespace hdidx::index {

/// Exact k-th-nearest-neighbor distance by linear scan, excluding exactly
/// one row — the query's own row when queries are drawn from the data.
/// Duplicates of the query point still count as neighbors, the semantics
/// of the accounted workload scan. Pass exclude_row >= data.size() to
/// exclude nothing.
///
/// This is the one-query reference: a one-query tile of
/// geometry::kernels::KthDistanceScans, which QueryWorkload::Create's
/// query-tiled radii equal bit for bit (DESIGN.md §4).
double ExactKthDistanceExcludingRow(const data::Dataset& data,
                                    std::span<const float> query, size_t k,
                                    size_t exclude_row);

/// Exact k nearest neighbor row indices, ascending by (squared distance,
/// row), so ties go to the lower row: the brute-force reference tests
/// validate the tree-based search against (SquaredL2 to every row, then a
/// partial_sort of the pairs). Fewer than k when the dataset is smaller.
std::vector<size_t> ExactKnn(const data::Dataset& data,
                             std::span<const float> query, size_t k);

/// Pages a search read, split into leaf and directory accesses.
struct AccessCount {
  size_t leaf_accesses = 0;
  size_t dir_accesses = 0;
  size_t total() const { return leaf_accesses + dir_accesses; }
};

/// Result of running a tree-based k-NN search.
struct TreeKnnResult {
  /// Row indices of the k nearest points, ascending by distance.
  std::vector<size_t> neighbors;
  /// Distance to the k-th neighbor.
  double kth_distance = 0.0;
  /// Pages read: leaves and directory nodes visited by the best-first
  /// search (Hjaltason-Samet optimal algorithm).
  AccessCount accesses;
};

/// Optimal best-first k-NN search on a bulk-loaded tree. `data` must be the
/// dataset the tree was built from. Used both as a correctness oracle
/// consumer (tests compare it against ExactKnn) and to validate that the
/// pages an optimal search reads are exactly those intersecting the k-NN
/// sphere.
TreeKnnResult TreeKnnSearch(const RTree& tree, const data::Dataset& data,
                            std::span<const float> query, size_t k);

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_KNN_H_
