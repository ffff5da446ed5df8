#ifndef HDIDX_INDEX_RTREE_H_
#define HDIDX_INDEX_RTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/thread_annotations.h"
#include "geometry/bounding_box.h"
#include "geometry/kernels.h"

namespace hdidx::index {

/// One node of a bulk-loaded R-tree.
///
/// Leaf nodes reference a contiguous range [start, start+count) of the
/// tree's point permutation (see RTree::order()); directory nodes reference
/// child node ids. "Leaf" here means a leaf *of this tree*: an upper tree
/// built down to full-tree level s > 1 has leaves whose `level` is s.
struct RTreeNode {
  geometry::BoundingBox box;
  /// Level in the full-tree numbering: data pages are level 1, the root of a
  /// complete tree is at level height.
  uint32_t level = 1;
  /// Leaf payload: range into RTree::order().
  uint32_t start = 0;
  uint32_t count = 0;
  /// Directory payload: ids of child nodes (empty for leaves). Points into
  /// the owning RTree's arena — valid for the tree's lifetime, including
  /// across moves of the tree.
  std::span<const uint32_t> children;
  /// Disk pages this node occupies (1 for ordinary nodes; X-tree
  /// supernodes span several and charge accordingly).
  uint32_t pages = 1;

  bool is_leaf() const { return children.empty(); }

  explicit RTreeNode(size_t dim) : box(dim) {}
};

/// A bulk-loaded R-tree (VAMSplit R*-tree page layout).
///
/// The tree does not own point coordinates; leaves reference rows of the
/// dataset it was built from through the permutation returned by order().
/// The leaf pages a query region reads — the quantity the paper predicts —
/// are counted by core::MeasureLeafAccesses; the k-NN result itself comes
/// from index/knn.h.
class RTree {
 public:
  /// Creates an empty tree over points of dimensionality `dim`.
  explicit RTree(size_t dim);

  // Movable, not copyable: node child arrays and directory slabs live in
  // the tree-owned arena below.
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  size_t dim() const { return dim_; }
  size_t num_nodes() const { return nodes_.size(); }
  const RTreeNode& node(uint32_t id) const { return nodes_[id]; }
  uint32_t root() const { return root_; }
  bool empty() const { return nodes_.empty(); }

  /// Level of the root node (= height of this tree in full-tree numbering
  /// when built completely).
  size_t root_level() const;

  /// SoA slab over node `id`'s children's MBRs, in children order (empty
  /// for a leaf). Tree searches test all of a node's children at once
  /// against it, e.g. core::MeasureLeafAccesses.
  const geometry::kernels::BoxSlab& child_slab(uint32_t id) const {
    return child_slabs_[id];
  }

  /// Ids of this tree's leaves, in left-to-right construction order.
  const std::vector<uint32_t>& leaf_ids() const { return leaf_ids_; }
  size_t num_leaves() const { return leaf_ids_.size(); }

  /// Permutation mapping leaf ranges to dataset row indices. Empty means
  /// identity (points already in leaf order, as after an external build).
  const std::vector<uint32_t>& order() const { return order_; }

  /// Dataset row index for position `pos` of the permutation.
  uint32_t OrderedIndex(uint32_t pos) const {
    return order_.empty() ? pos : order_[pos];
  }

  // ---- Construction API (used by the bulk loaders) ----

  /// Appends a leaf covering permutation range [start, start+count).
  HDIDX_BUILD_ONLY uint32_t AddLeaf(geometry::BoundingBox box, uint32_t level,
                                    uint32_t start, uint32_t count);

  /// Appends a directory node; `children` must be valid ids, and is copied
  /// into the tree. The node's box is the union of the children's boxes.
  HDIDX_BUILD_ONLY uint32_t AddDirectory(uint32_t level,
                                         std::span<const uint32_t> children);

  HDIDX_BUILD_ONLY void SetRoot(uint32_t id) { root_ = id; }
  HDIDX_BUILD_ONLY void SetOrder(std::vector<uint32_t> order) {
    order_ = std::move(order);
  }

  /// Sets the page weight of a node (X-tree supernodes span several).
  HDIDX_BUILD_ONLY void SetNodePages(uint32_t id, uint32_t pages) {
    nodes_[id].pages = pages;
  }

  /// Sum of leaf-box volumes (diagnostic; shrinks under sampling, restored
  /// by compensation).
  double TotalLeafVolume() const;

 private:
  size_t dim_;
  /// Backs every node's child id array and every directory slab's lo/hi
  /// planes: the whole traversal working set sits in a few 64B-aligned
  /// blocks instead of per-node heap allocations. Single-owner contract
  /// (common::Arena): written only by the Add* construction calls on the
  /// building thread, read-only and safely shared once built.
  common::Arena arena_;
  std::vector<RTreeNode> nodes_;
  /// Per-node SoA slab over the node's children's MBRs (empty for leaves),
  /// parallel to nodes_. Built in AddDirectory — child boxes never change
  /// afterwards — and shared read-only by concurrent queries.
  std::vector<geometry::kernels::BoxSlab> child_slabs_;
  std::vector<uint32_t> leaf_ids_;
  std::vector<uint32_t> order_;
  uint32_t root_ = 0;
};

/// Deterministic 64-bit digest of a tree's layout: FNV-1a over a level-order
/// walk from the root covering each node's level, child count, leaf range
/// and the raw float bits of its MBR. Two trees with equal digests have (up
/// to hash collisions) identical topology, node ordering, MBRs and leaf
/// ranges — the golden-layout fixtures pin these values so refactors of the
/// bulk loaders cannot silently reshuffle layouts. The point permutation
/// (order()) is deliberately excluded: within-leaf point order is not part
/// of the layout contract.
uint64_t TreeLayoutDigest(const RTree& tree);

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_RTREE_H_
