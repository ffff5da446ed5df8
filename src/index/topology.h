#ifndef HDIDX_INDEX_TOPOLOGY_H_
#define HDIDX_INDEX_TOPOLOGY_H_

#include <cstddef>

#include "io/disk_model.h"

namespace hdidx::index {

/// The deterministic structure of a bulk-loaded VAMSplit R*-tree: heights,
/// per-level node counts, capacities and fanouts — everything that follows
/// from (N, C_max,data, C_max,dir) alone, before any data is inspected.
///
/// Levels are numbered as in the paper (Table 2, footnote 2): leaf nodes are
/// at level 1 and the root is at level `height`. The level-wise bulk loader
/// fills every page except at most one per level completely, so node counts
/// are ceilings of N over subtree capacities.
///
/// The structural-similarity requirement of Section 3.1 is implemented by
/// deriving the mini-index layout from this same topology with partition
/// targets scaled by the sampling ratio.
class TreeTopology {
 public:
  /// Computes the topology for `num_points` points with the given maximum
  /// page capacities (points per data page, entries per directory page).
  /// All arguments must be positive; dir_capacity must be at least 2.
  TreeTopology(size_t num_points, size_t data_capacity, size_t dir_capacity);

  /// Derives page capacities from a disk model: a data page holds
  /// floor(page_bytes / (dim*4 + 4)) points (coordinates plus a record id),
  /// a directory page holds floor(page_bytes / (2*dim*4 + 4)) entries (MBR
  /// plus a child pointer).
  static TreeTopology FromDisk(size_t num_points, size_t dim,
                               const io::DiskModel& disk);

  size_t num_points() const { return num_points_; }
  size_t data_capacity() const { return data_capacity_; }
  size_t dir_capacity() const { return dir_capacity_; }

  /// Height of the tree; a tree of a single (leaf) node has height 1.
  size_t height() const { return height_; }

  /// Maximum number of points a subtree whose root sits at `level` can hold:
  /// cap(1) = C_max,data; cap(l) = C_max,dir * cap(l-1).
  size_t SubtreeCapacity(size_t level) const;

  /// Number of nodes at `level`: ceil(N / cap(level)).
  size_t NodesAtLevel(size_t level) const;

  /// Number of leaf pages of the full tree.
  size_t NumLeaves() const { return NodesAtLevel(1); }

  /// Expected number of data points under one node at `level` — the paper's
  /// pts(h) function: pts(height) = N, pts(1) = C_eff,data.
  double PointsPerSubtree(size_t level) const;

  /// Average fanout of directory nodes (the paper's C_eff,dir); returns
  /// data_capacity for a height-1 tree.
  double EffectiveDirCapacity() const;

  /// Fanout of a node at `level` holding `points_in_subtree` points:
  /// ceil(points / cap(level-1)). `level` must be >= 2.
  size_t FanoutFor(size_t level, size_t points_in_subtree) const;

  friend bool operator==(const TreeTopology& a, const TreeTopology& b) {
    return a.num_points_ == b.num_points_ &&
           a.data_capacity_ == b.data_capacity_ &&
           a.dir_capacity_ == b.dir_capacity_;
  }

 private:
  size_t num_points_;
  size_t data_capacity_;
  size_t dir_capacity_;
  size_t height_;
};

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_TOPOLOGY_H_
