#include "index/rstar.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace hdidx::index {

namespace {

/// Overlap (intersection volume) of two boxes; 0 when disjoint or empty.
double OverlapVolume(const geometry::BoundingBox& a,
                     const geometry::BoundingBox& b) {
  if (a.empty() || b.empty()) return 0.0;
  double v = 1.0;
  for (size_t d = 0; d < a.dim(); ++d) {
    const double lo = std::max(a.lo()[d], b.lo()[d]);
    const double hi = std::min(a.hi()[d], b.hi()[d]);
    if (hi <= lo) return 0.0;
    v *= hi - lo;
  }
  return v;
}

double AreaEnlargement(const geometry::BoundingBox& box,
                       const geometry::BoundingBox& extra) {
  return geometry::BoundingBox::Union(box, extra).Volume() - box.Volume();
}

double CenterDistanceSq(const geometry::BoundingBox& a,
                        const geometry::BoundingBox& b) {
  double s = 0.0;
  for (size_t d = 0; d < a.dim(); ++d) {
    const double diff =
        static_cast<double>(a.Center(d)) - static_cast<double>(b.Center(d));
    s += diff * diff;
  }
  return s;
}

}  // namespace

RStarTree::RStarTree(const data::Dataset* data, const Options& options)
    : data_(data), options_(options) {
  HDIDX_CHECK(options_.max_data_entries >= 4);
  HDIDX_CHECK(options_.max_dir_entries >= 4);
  nodes_.emplace_back(data_->dim());
  root_ = 0;
  reinserted_at_level_.assign(4, false);
}

RStarTree RStarTree::BuildByInsertion(const data::Dataset& data,
                                      const Options& options) {
  RStarTree tree(&data, options);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<uint32_t>(i));
  }
  return tree;
}

geometry::BoundingBox RStarTree::EntryBox(const Node& node,
                                          uint32_t entry) const {
  if (node.is_leaf) {
    geometry::BoundingBox box(data_->dim());
    box.Extend(data_->row(entry));
    return box;
  }
  return nodes_[entry].box;
}

void RStarTree::RecomputeBox(uint32_t node_id) {
  Node& node = nodes_[node_id];
  node.box.Clear();
  for (uint32_t entry : node.entries) {
    node.box.ExtendBox(EntryBox(node, entry));
  }
}

size_t RStarTree::num_leaves() const {
  size_t count = 0;
  for (const Node& node : nodes_) count += node.is_leaf ? 1 : 0;
  return count;
}

void RStarTree::Insert(uint32_t row) {
  std::fill(reinserted_at_level_.begin(), reinserted_at_level_.end(), false);
  geometry::BoundingBox box(data_->dim());
  box.Extend(data_->row(row));
  InsertEntry(box, row, /*target_level=*/1, /*allow_reinsert=*/true);
  ++num_points_;
}

uint32_t RStarTree::ChooseSubtree(const geometry::BoundingBox& box,
                                  size_t target_level,
                                  std::vector<uint32_t>* path) {
  uint32_t current = root_;
  size_t level = height_;
  while (level > target_level) {
    path->push_back(current);
    const Node& node = nodes_[current];
    HDIDX_CHECK(!node.is_leaf);
    // The O(fanout^2) minimum-overlap rule is only worth its cost at
    // ordinary fanouts; for very wide nodes (X-tree supernodes) fall back
    // to the area-enlargement rule, as production R* implementations do.
    const bool children_are_leaves = nodes_[node.entries[0]].is_leaf &&
                                     node.entries.size() <= 32;

    uint32_t best_child = node.entries[0];
    double best_primary = std::numeric_limits<double>::infinity();
    double best_secondary = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint32_t child : node.entries) {
      const geometry::BoundingBox& child_box = nodes_[child].box;
      double primary;
      const double enlargement = AreaEnlargement(child_box, box);
      if (children_are_leaves) {
        // Minimum overlap enlargement against the siblings.
        const geometry::BoundingBox enlarged =
            geometry::BoundingBox::Union(child_box, box);
        double overlap_before = 0.0, overlap_after = 0.0;
        for (uint32_t other : node.entries) {
          if (other == child) continue;
          overlap_before += OverlapVolume(child_box, nodes_[other].box);
          overlap_after += OverlapVolume(enlarged, nodes_[other].box);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = enlargement;
      }
      const double secondary = children_are_leaves ? enlargement : 0.0;
      const double area = child_box.Volume();
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           area < best_area)) {
        best_primary = primary;
        best_secondary = secondary;
        best_area = area;
        best_child = child;
      }
    }
    current = best_child;
    --level;
  }
  return current;
}

void RStarTree::InsertEntry(const geometry::BoundingBox& box, uint32_t entry,
                            size_t target_level, bool allow_reinsert) {
  std::vector<uint32_t> path;
  const uint32_t target = ChooseSubtree(box, target_level, &path);
  nodes_[target].entries.push_back(entry);
  nodes_[target].box.ExtendBox(box);
  for (uint32_t ancestor : path) {
    nodes_[ancestor].box.ExtendBox(box);
  }
  if (nodes_[target].entries.size() > MaxEntries(nodes_[target])) {
    path.push_back(target);
    OverflowTreatment(std::move(path), path.size() - 1, target_level,
                      allow_reinsert);
  }
}

void RStarTree::OverflowTreatment(std::vector<uint32_t> path, size_t path_pos,
                                  size_t level, bool allow_reinsert) {
  const uint32_t node_id = path[path_pos];
  if (level >= reinserted_at_level_.size()) {
    reinserted_at_level_.resize(level + 1, false);
  }
  if (node_id != root_ && allow_reinsert && !reinserted_at_level_[level]) {
    reinserted_at_level_[level] = true;
    ForcedReinsert(node_id, level, std::move(path), path_pos);
    return;
  }

  const uint32_t sibling = SplitNode(node_id);
  if (sibling == kNoSplit) return;  // became a supernode
  if (node_id == root_) {
    // Grow the tree: a new root over the two halves.
    Node new_root(data_->dim());
    new_root.is_leaf = false;
    new_root.entries = {node_id, sibling};
    new_root.box = geometry::BoundingBox::Union(nodes_[node_id].box,
                                                nodes_[sibling].box);
    nodes_.push_back(std::move(new_root));
    root_ = static_cast<uint32_t>(nodes_.size() - 1);
    ++height_;
    return;
  }
  const uint32_t parent = path[path_pos - 1];
  nodes_[parent].entries.push_back(sibling);
  nodes_[parent].box.ExtendBox(nodes_[sibling].box);
  if (nodes_[parent].entries.size() > MaxEntries(nodes_[parent])) {
    OverflowTreatment(std::move(path), path_pos - 1, level + 1,
                      allow_reinsert);
  }
}

uint32_t RStarTree::SplitNode(uint32_t node_id) {
  Node& node = nodes_[node_id];
  const size_t total = node.entries.size();
  const size_t max_entries = MaxEntries(node);
  HDIDX_CHECK(total == max_entries + 1);
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(options_.min_fill *
                             static_cast<double>(max_entries + 1)));
  const size_t dim = data_->dim();

  // Cache entry boxes once.
  std::vector<geometry::BoundingBox> boxes;
  boxes.reserve(total);
  for (uint32_t entry : node.entries) boxes.push_back(EntryBox(node, entry));

  // ChooseSplitAxis: the axis (and lo/hi sort key) minimizing the sum of
  // margins over all legal distributions.
  std::vector<size_t> order(total);
  std::vector<size_t> best_order;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  std::vector<geometry::BoundingBox> prefix(total, geometry::BoundingBox(dim));
  std::vector<geometry::BoundingBox> suffix(total, geometry::BoundingBox(dim));
  auto evaluate_order = [&]() {
    prefix[0] = boxes[order[0]];
    for (size_t i = 1; i < total; ++i) {
      prefix[i] = geometry::BoundingBox::Union(prefix[i - 1], boxes[order[i]]);
    }
    suffix[total - 1] = boxes[order[total - 1]];
    for (size_t i = total - 1; i-- > 0;) {
      suffix[i] = geometry::BoundingBox::Union(suffix[i + 1], boxes[order[i]]);
    }
    double margin_sum = 0.0;
    for (size_t k = m; k + m <= total; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return margin_sum;
  };

  for (size_t axis = 0; axis < dim; ++axis) {
    for (bool by_hi : {false, true}) {
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const float ka = by_hi ? boxes[a].hi()[axis] : boxes[a].lo()[axis];
        const float kb = by_hi ? boxes[b].hi()[axis] : boxes[b].lo()[axis];
        return ka < kb;
      });
      const double margin_sum = evaluate_order();
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_order = order;
      }
    }
  }

  // ChooseSplitIndex on the winning order: minimum overlap, then area.
  order = best_order;
  prefix[0] = boxes[order[0]];
  for (size_t i = 1; i < total; ++i) {
    prefix[i] = geometry::BoundingBox::Union(prefix[i - 1], boxes[order[i]]);
  }
  suffix[total - 1] = boxes[order[total - 1]];
  for (size_t i = total - 1; i-- > 0;) {
    suffix[i] = geometry::BoundingBox::Union(suffix[i + 1], boxes[order[i]]);
  }
  size_t best_k = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t k = m; k + m <= total; ++k) {
    const double overlap = OverlapVolume(prefix[k - 1], suffix[k]);
    const double area = prefix[k - 1].Volume() + suffix[k].Volume();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  // X-tree supernode check: if even the best directory split overlaps too
  // much, splitting would degrade every future query through this region —
  // keep the node whole across several pages instead. Overlap is measured
  // as the fraction of child entries touching BOTH halves: volume ratios
  // vanish exponentially with the dimensionality (a single thin dimension
  // crushes the intersection volume), while the entry-based measure tracks
  // how many children a descending query would have to follow twice.
  if (!node.is_leaf && options_.supernode_overlap_threshold >= 0.0) {
    const geometry::BoundingBox& left_box = prefix[best_k - 1];
    const geometry::BoundingBox& right_box = suffix[best_k];
    size_t in_both = 0;
    for (const auto& entry_box : boxes) {
      if (entry_box.Intersects(left_box) && entry_box.Intersects(right_box)) {
        ++in_both;
      }
    }
    const double fraction =
        static_cast<double>(in_both) / static_cast<double>(total);
    if (fraction > options_.supernode_overlap_threshold) {
      node.supernode = true;
      return kNoSplit;
    }
  }

  // Materialize the two halves.
  Node sibling(dim);
  sibling.is_leaf = node.is_leaf;
  std::vector<uint32_t> left_entries;
  left_entries.reserve(best_k);
  for (size_t i = 0; i < best_k; ++i) {
    left_entries.push_back(node.entries[order[i]]);
  }
  for (size_t i = best_k; i < total; ++i) {
    sibling.entries.push_back(node.entries[order[i]]);
  }
  node.entries = std::move(left_entries);
  const uint32_t sibling_id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(sibling));
  RecomputeBox(node_id);
  RecomputeBox(sibling_id);
  return sibling_id;
}

void RStarTree::ForcedReinsert(uint32_t node_id, size_t level,
                               std::vector<uint32_t> path, size_t path_pos) {
  Node& node = nodes_[node_id];
  const size_t total = node.entries.size();
  const size_t reinsert_count = std::max<size_t>(
      1, static_cast<size_t>(options_.reinsert_fraction *
                             static_cast<double>(total)));

  // Sort entries by decreasing center distance from the node's center; the
  // farthest `reinsert_count` leave the node.
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(total);
  for (uint32_t entry : node.entries) {
    ranked.emplace_back(CenterDistanceSq(EntryBox(node, entry), node.box),
                        entry);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  node.entries.clear();
  for (size_t i = reinsert_count; i < total; ++i) {
    node.entries.push_back(ranked[i].second);
  }
  RecomputeBox(node_id);
  // Ancestor boxes may shrink after removal: recompute bottom-up.
  for (size_t i = path_pos; i-- > 0;) {
    RecomputeBox(path[i]);
  }

  // Close reinsert: nearest evicted entries first.
  for (size_t i = reinsert_count; i-- > 0;) {
    const uint32_t entry = ranked[i].second;
    geometry::BoundingBox box(data_->dim());
    if (nodes_[node_id].is_leaf) {
      box.Extend(data_->row(entry));
    } else {
      box = nodes_[entry].box;
    }
    InsertEntry(box, entry, level, /*allow_reinsert=*/true);
  }
}

size_t RStarTree::CountSupernodes() const {
  size_t count = 0;
  for (const Node& node : nodes_) count += node.supernode ? 1 : 0;
  return count;
}

RTree RStarTree::ToRTree() const {
  RTree tree(data_->dim());
  if (num_points_ == 0) return tree;
  std::vector<uint32_t> order;
  order.reserve(num_points_);

  // Post-order DFS building the snapshot; returns (snapshot id, level).
  struct Result {
    uint32_t id;
    uint32_t level;
  };
  auto convert = [&](auto&& self, uint32_t node_id) -> Result {
    const Node& node = nodes_[node_id];
    if (node.is_leaf) {
      const uint32_t start = static_cast<uint32_t>(order.size());
      for (uint32_t row : node.entries) order.push_back(row);
      return {tree.AddLeaf(node.box, 1, start,
                           static_cast<uint32_t>(node.entries.size())),
              1};
    }
    std::vector<uint32_t> children;
    children.reserve(node.entries.size());
    uint32_t child_level = 1;
    for (uint32_t child : node.entries) {
      const Result r = self(self, child);
      children.push_back(r.id);
      child_level = std::max(child_level, r.level);
    }
    const size_t fanout = children.size();
    const uint32_t id = tree.AddDirectory(child_level + 1, children);
    if (node.supernode) {
      // A supernode occupies as many directory pages as its fanout needs.
      tree.SetNodePages(id, static_cast<uint32_t>(
          (fanout + options_.max_dir_entries - 1) /
          options_.max_dir_entries));
    }
    return {id, child_level + 1};
  };
  const Result root = convert(convert, root_);
  tree.SetRoot(root.id);
  tree.SetOrder(std::move(order));
  return tree;
}

bool RStarTree::CheckInvariants() const {
  if (num_points_ == 0) return nodes_[root_].entries.empty();
  std::vector<char> seen(data_->size(), 0);
  size_t leaf_points = 0;
  // DFS from the root; every reachable node must satisfy capacity and
  // containment.
  std::vector<uint32_t> stack = {root_};
  std::vector<char> visited(nodes_.size(), 0);
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (visited[id]) return false;  // DAG/cycle corruption
    visited[id] = 1;
    const Node& node = nodes_[id];
    if (node.entries.empty()) return false;
    if (node.entries.size() > MaxEntries(node)) return false;
    for (uint32_t entry : node.entries) {
      const geometry::BoundingBox box = EntryBox(node, entry);
      if (!(geometry::BoundingBox::Union(node.box, box) == node.box)) {
        return false;
      }
      if (node.is_leaf) {
        if (entry >= data_->size() || seen[entry]) return false;
        seen[entry] = 1;
        ++leaf_points;
      } else {
        stack.push_back(entry);
      }
    }
  }
  return leaf_points == num_points_;
}

}  // namespace hdidx::index
