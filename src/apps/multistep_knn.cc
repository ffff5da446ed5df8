#include "apps/multistep_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "geometry/distance.h"

namespace hdidx::apps {

namespace {

/// Lazy ascending-distance ranking of dataset rows through the tree
/// (Hjaltason-Samet incremental NN), counting page accesses.
class IncrementalRanking {
 public:
  IncrementalRanking(const index::RTree& tree, const data::Dataset& projected,
                     std::span<const float> query)
      : tree_(tree), projected_(projected), query_(query) {
    if (!tree_.empty()) {
      queue_.push(Entry{
          geometry::SquaredMinDist(query_, tree_.node(tree_.root()).box),
          tree_.root(), kNode});
    }
  }

  /// Next row in ascending reduced-space distance; false when exhausted.
  /// `*distance_sq` receives the reduced-space squared distance.
  bool Next(size_t* row, double* distance_sq) {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      queue_.pop();
      if (top.kind == kPoint) {
        *row = top.id;
        *distance_sq = top.key;
        return true;
      }
      const index::RTreeNode& node = tree_.node(top.id);
      if (node.is_leaf()) {
        ++accesses_.leaf_accesses;
        for (uint32_t pos = node.start; pos < node.start + node.count;
             ++pos) {
          const size_t point_row = tree_.OrderedIndex(pos);
          queue_.push(Entry{
              geometry::SquaredL2(projected_.row(point_row), query_),
              static_cast<uint32_t>(point_row), kPoint});
        }
      } else {
        ++accesses_.dir_accesses;
        for (uint32_t child : node.children) {
          queue_.push(Entry{
              geometry::SquaredMinDist(query_, tree_.node(child).box), child,
              kNode});
        }
      }
    }
    return false;
  }

  const index::AccessCount& accesses() const { return accesses_; }

 private:
  enum Kind : uint8_t { kNode, kPoint };
  struct Entry {
    double key;
    uint32_t id;
    Kind kind;
    bool operator>(const Entry& other) const {
      // Points before nodes at equal keys: a point's key is final while a
      // node only promises its children are no closer.
      if (key != other.key) return key > other.key;
      return kind == kNode && other.kind == kPoint;
    }
  };

  const index::RTree& tree_;
  const data::Dataset& projected_;
  std::span<const float> query_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  index::AccessCount accesses_;
};

}  // namespace

MultiStepResult MultiStepKnn(const index::RTree& index_tree,
                             const data::Dataset& projected,
                             const data::Dataset& full,
                             std::span<const float> query_full, size_t k) {
  HDIDX_CHECK(k >= 1);
  HDIDX_CHECK(projected.size() == full.size());
  HDIDX_CHECK(projected.dim() <= full.dim());
  HDIDX_CHECK(query_full.size() == full.dim());

  const std::span<const float> query_reduced =
      query_full.subspan(0, projected.dim());
  IncrementalRanking ranking(index_tree, projected, query_reduced);

  MultiStepResult result;
  std::priority_queue<std::pair<double, size_t>> best;  // max-heap of k
  auto kth_sq = [&]() {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.top().first;
  };

  size_t row = 0;
  double reduced_sq = 0.0;
  while (ranking.Next(&row, &reduced_sq)) {
    // Optimal stopping rule: the reduced distance lower-bounds the full
    // distance, and the ranking is ascending — once it passes the exact
    // k-th distance, no later candidate can improve the result.
    if (reduced_sq > kth_sq()) break;
    ++result.refinements;  // fetch the full vector from the object server
    const double full_sq = geometry::SquaredL2(full.row(row), query_full);
    if (best.size() < k) {
      best.emplace(full_sq, row);
    } else if (full_sq < best.top().first) {
      best.pop();
      best.emplace(full_sq, row);
    }
  }

  result.neighbors.resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    result.neighbors[i] = best.top().second;
    result.kth_distance =
        std::max(result.kth_distance, std::sqrt(best.top().first));
    best.pop();
  }
  result.index_accesses = ranking.accesses();
  const size_t random_accesses =
      result.index_accesses.total() + result.refinements;
  result.io.page_seeks = random_accesses;
  result.io.page_transfers = random_accesses;
  return result;
}

}  // namespace hdidx::apps
