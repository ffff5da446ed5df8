#ifndef HDIDX_INDEX_ADAPTIVE_BUILD_H_
#define HDIDX_INDEX_ADAPTIVE_BUILD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "index/bulk_loader.h"
#include "index/rtree.h"
#include "index/topology.h"

namespace hdidx::index {

/// Pieces of SplitStrategy::kAdaptiveSample shared by the in-memory and
/// external pipelines (the sample-first bulk loading of arXiv 2409.09447):
/// a split-plane tree chosen from a sample, the bucket-level placement, the
/// slicing of the classified stream into memory-sized groups of whole
/// roots, and the packing of the upper directory levels over finished
/// bucket roots. Everything here is a
/// pure deterministic function of its inputs — no threads, no I/O — which
/// is what makes adaptive layouts bit-identical across thread counts.

/// The level whose subtrees the streaming pass classifies as whole units:
/// the largest level in [stop_level, root_level - 1] whose UNSCALED subtree
/// capacity is at most memory_points / 2, so a full bucket (plus staging)
/// fits the external build's window; stop_level if even the leaf capacity
/// exceeds that, and root_level - 1 when memory_points is 0 (unconstrained).
/// Comparing unscaled capacities makes the choice sampling-fraction
/// invariant — a mini-index and the full build agree on the level.
/// Requires stop_level < root_level.
size_t AdaptiveBucketLevel(const TreeTopology& topology, size_t root_level,
                           size_t stop_level, size_t memory_points);

/// What both pipelines derive before their sample pass.
struct AdaptiveSetup {
  /// AdaptiveBucketLevel(options.adaptive.memory_points).
  size_t bucket_level = 0;
  /// ScaledSubtreeCapacity of the bucket level: the root stride of
  /// AdaptiveGroupBoundaries.
  double bucket_capacity = 1.0;
  /// SplitPlan's bucket target: 0.7 of the capacity (at least 1), aiming
  /// buckets slightly under capacity so sampling error rarely overfills.
  double bucket_target = 1.0;
  /// Ascending row positions the sample pass reads: Rng(seed) draws
  /// sampling_fraction of n, at least min_sample_points, clamped to [1, n].
  std::vector<size_t> sample_rows;
};

/// The setup of a kAdaptiveSample build of `n` points rooted at
/// `root_level` (> options.stop_level).
AdaptiveSetup PrepareAdaptiveBuild(const BulkLoadOptions& options,
                                   size_t root_level, size_t n);

/// Upper bound on how many level-`bucket_level` roots a subtree rooted at
/// `level` can hold: dir_capacity^(level - bucket_level), saturated at
/// `cap` to keep the power finite.
size_t MaxRootsUnder(const TreeTopology& topology, size_t level,
                     size_t bucket_level, size_t cap);

/// A binary tree of split planes chosen from a sample: each internal node
/// routes a point left iff row[dim] < threshold (ties right), each leaf is
/// an output bucket. Bucket ids number the leaves left to right, so points
/// ordered by bucket id are ordered along every split plane above them.
class SplitPlan {
 public:
  /// Chooses the plan from `sample_count` row-major sample rows standing
  /// for `total_points` actual points. Splits recurse while a cell's
  /// estimated point count exceeds `bucket_target`: the split dimension is
  /// the sample subset's max-variance dimension (adaptive to skew), the
  /// threshold the subset value at the VAMSplit rank (left fanout over
  /// fanout). A cell whose values cannot be separated (all equal along the
  /// chosen dimension) becomes a bucket as-is — the build's overfull-bucket
  /// path absorbs whatever lands there.
  HDIDX_BUILD_ONLY static SplitPlan Build(const float* sample,
                                          size_t sample_count, size_t dim,
                                          double total_points,
                                          double bucket_target);

  size_t num_buckets() const { return num_buckets_; }

  /// The bucket `row` (dim floats) classifies into.
  size_t BucketOf(const float* row) const {
    int32_t node = 0;
    while (nodes_[static_cast<size_t>(node)].bucket < 0) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      node = row[n.dim] < n.threshold ? n.left : n.right;
    }
    return static_cast<size_t>(nodes_[static_cast<size_t>(node)].bucket);
  }

 private:
  struct Node {
    uint32_t dim = 0;
    float threshold = 0.0f;
    int32_t left = -1;
    int32_t right = -1;
    int32_t bucket = -1;  // >= 0 marks a leaf
  };

  struct BuildState;
  static int32_t BuildCell(BuildState* state, std::vector<uint32_t>* subset,
                           double est_points);

  std::vector<Node> nodes_;
  size_t num_buckets_ = 0;
};

/// Slices the classified (bucket-ordered) point stream into build groups of
/// whole bucket-level roots. Root k spans stream positions
/// [llround(k * bucket_capacity), llround((k+1) * bucket_capacity)) — the
/// VAMSplit cut rule — so the total root count is exactly
/// ceil(total_points / bucket_capacity) and leaf counts match a monolithic
/// build; each group holds max(1, floor(memory_points / bucket_capacity))
/// consecutive roots so a whole group fits the external build's window
/// (memory_points == 0 means a single group). Group boundaries may land
/// inside a classified bucket; points within one bucket carry no order, so
/// a positional cut there is as good as any. Returns the boundary
/// positions: 0 = b[0] < b[1] < ... < b.back() = total_points, one group
/// per adjacent pair. Requires total_points >= 1 and bucket_capacity >= 1.
std::vector<size_t> AdaptiveGroupBoundaries(size_t total_points,
                                            double bucket_capacity,
                                            size_t memory_points);

/// Builds the directory levels (bucket_level, root_level] over the finished
/// bucket roots and returns the root's node id. Fanouts follow the VAMSplit
/// rule on point counts — ceil(points / scaled cap(level - 1)) — clamped to
/// what the root counts make feasible (every child at least one root, at
/// most dir_capacity^depth of them); cuts land on the root boundary closest
/// to the balanced point share. Nodes are emitted in the serial post-order,
/// after the bucket subtrees, so leaf order is untouched.
HDIDX_BUILD_ONLY uint32_t PackUpperLevels(
    const BulkLoadOptions& options, size_t bucket_level, size_t root_level,
    const std::vector<internal::AdaptiveRoot>& roots, RTree* tree);

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_ADAPTIVE_BUILD_H_
