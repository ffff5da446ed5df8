#include "index/knn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "common/check.h"
#include "geometry/distance.h"
#include "geometry/kernels.h"

namespace hdidx::index {

double ExactKthDistanceExcludingRow(const data::Dataset& data,
                                    std::span<const float> query, size_t k,
                                    size_t exclude_row) {
  double kth_sq = 0.0;
  geometry::kernels::KthDistanceScans(query, std::span(&exclude_row, 1),
                                      data.data(), data.dim(), k,
                                      std::span(&kth_sq, 1));
  return std::sqrt(kth_sq);
}

std::vector<size_t> ExactKnn(const data::Dataset& data,
                             std::span<const float> query, size_t k) {
  HDIDX_CHECK_OP(==, query.size(), data.dim());
  std::vector<std::pair<double, size_t>> pairs(data.size());
  for (size_t row = 0; row < data.size(); ++row) {
    pairs[row] = {geometry::SquaredL2(data.row(row), query), row};
  }
  const size_t kept = std::min(k, pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + kept, pairs.end());
  std::vector<size_t> result(kept);
  for (size_t i = 0; i < kept; ++i) result[i] = pairs[i].second;
  return result;
}

TreeKnnResult TreeKnnSearch(const RTree& tree, const data::Dataset& data,
                            std::span<const float> query, size_t k) {
  TreeKnnResult result;
  if (tree.empty()) return result;

  // Best-first search: a min-priority queue over MINDIST of pending nodes;
  // prune once k candidates are closer than the best pending node.
  struct Entry {
    double min_dist_sq;
    uint32_t node;
    bool operator>(const Entry& other) const {
      return min_dist_sq > other.min_dist_sq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  queue.push({geometry::SquaredMinDist(query, tree.node(tree.root()).box),
              tree.root()});

  // Bounded pair-heap of the k best candidates: the same pair ordering as
  // sorting every candidate (so retention, neighbor order and the pruning
  // bound match) at O(log k) per point.
  geometry::kernels::BoundedPairHeap candidates(k);

  while (!queue.empty()) {
    const Entry top = queue.top();
    queue.pop();
    if (top.min_dist_sq > candidates.Threshold()) break;
    const RTreeNode& n = tree.node(top.node);
    if (n.is_leaf()) {
      ++result.accesses.leaf_accesses;
      for (uint32_t pos = n.start; pos < n.start + n.count; ++pos) {
        const size_t row = tree.OrderedIndex(pos);
        candidates.Push(geometry::SquaredL2(data.row(row), query), row);
      }
    } else {
      ++result.accesses.dir_accesses;
      for (uint32_t child : n.children) {
        const double d2 =
            geometry::SquaredMinDist(query, tree.node(child).box);
        if (d2 <= candidates.Threshold()) queue.push({d2, child});
      }
    }
  }

  const auto best = candidates.TakeSortedAscending();
  result.neighbors.resize(best.size());
  for (size_t i = 0; i < best.size(); ++i) result.neighbors[i] = best[i].second;
  result.kth_distance = best.empty() ? 0.0 : std::sqrt(best.back().first);
  return result;
}

}  // namespace hdidx::index
