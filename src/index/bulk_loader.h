#ifndef HDIDX_INDEX_BULK_LOADER_H_
#define HDIDX_INDEX_BULK_LOADER_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "geometry/bounding_box.h"
#include "index/rtree.h"
#include "index/topology.h"

namespace hdidx::index {

/// Dimension-selection strategy for the recursive binary splits.
///
/// The level-wise loader always places split *positions* at multiples of
/// the (scaled) child subtree capacity — pages must come out full — so the
/// strategy only chooses the split *dimension*:
///  * kMaxVariance: dimension of largest variance over the range — the
///    VAMSplit R*-tree of the paper (White & Jain [34]).
///  * kMaxExtent: dimension of largest MBR side — classic R-tree packing.
///  * kRoundRobin: cycle through dimensions by split depth — the k-d-B-tree
///    family (Robinson [29]), one more member of the Section 4.7 group the
///    prediction technique covers.
///  * kAdaptiveSample: sample-first bulk loading (Fast and Adaptive Bulk
///    Loading, arXiv 2409.09447): a cheap sample pass chooses the whole
///    split-plane tree adaptively to the data's skew up front, then a single
///    streaming pass classifies every point into its output partition —
///    replacing the multi-pass external quickselect. Within partitions and
///    for sources with no native streaming path, splits fall back to
///    max-variance.
enum class SplitStrategy {
  kMaxVariance,
  kMaxExtent,
  kRoundRobin,
  kAdaptiveSample,
};

/// Tuning for SplitStrategy::kAdaptiveSample. All of it is part of the
/// deterministic layout function: two builds with equal options (and equal
/// data) produce bit-identical trees regardless of thread count.
struct AdaptiveOptions {
  /// Fraction of the points drawn (without replacement, Rng(seed)) by the
  /// split-plane sample pass.
  double sampling_fraction = 0.05;
  /// Lower bound on the sample size (clamped to the point count).
  size_t min_sample_points = 256;
  /// Seed of the sample draw.
  uint64_t seed = 1;
  /// Memory budget in points used to place the bucket level (the level
  /// whose subtrees are classified as whole units): the largest level whose
  /// unscaled subtree capacity is at most half this budget. 0 means
  /// unconstrained (buckets directly under the root). External builds set
  /// this to their window size M; a mini-index predicting an external
  /// adaptive build must carry the same value so both derive the same
  /// bucket level (the capacities compared are unscaled, so the choice is
  /// sampling-fraction invariant).
  size_t memory_points = 0;
};

struct BulkLoadOptions;

/// Abstraction over where the points being bulk-loaded live.
///
/// The level-wise VAMSplit algorithm needs exactly three primitives on a
/// contiguous point range: find the dimension of maximum variance, partition
/// the range around a position along a dimension (Hoare's find), and compute
/// the MBR of a range. The in-memory source implements them over a Dataset
/// and an index permutation; the external source (index/external_build.h)
/// implements them over a simulated PagedFile, charging every disk access —
/// the same construction code path then yields both the paper's "on-disk
/// index tree" and the predictors' in-memory mini-indexes.
class PointSource {
 public:
  /// Thread-safety contract of the three range primitives.
  ///
  ///  * kSingleOwner: only one thread may call into the source, and the
  ///    *order* of calls is part of its observable behavior. This is the
  ///    default, and the external source's gate: its PagedFile I/O charging
  ///    is order-sensitive (a seek is charged only on non-adjacent access)
  ///    and its M-point memory window is shared state, so the simulated
  ///    disk costs stay exactly the paper's numbers only when the build
  ///    plan runs depth-first on one thread.
  ///  * kDisjointRanges: MaxVarianceDim / ChooseSplitDim / Partition /
  ///    ComputeBox may run concurrently from several threads as long as
  ///    their [lo, hi) ranges do not overlap, and each call's result
  ///    depends only on the range contents — never on what other ranges
  ///    are doing. The in-memory source satisfies this: calls read the
  ///    immutable dataset and touch only order_[lo, hi).
  enum class Concurrency { kSingleOwner, kDisjointRanges };

  virtual ~PointSource() = default;

  /// See Concurrency. BulkLoad only runs the build plan in parallel waves
  /// over sources that declare kDisjointRanges; everything else gets the
  /// depth-first run regardless of the execution context it was handed.
  virtual Concurrency concurrency() const { return Concurrency::kSingleOwner; }

  virtual size_t dim() const = 0;
  virtual size_t size() const = 0;

  /// Dimension with the largest variance over points [lo, hi).
  HDIDX_BUILD_ONLY virtual size_t MaxVarianceDim(size_t lo, size_t hi) = 0;

  /// Dimension chosen by `strategy` for a split at binary depth `depth`
  /// within its node: kMaxExtent via ComputeBox, kRoundRobin via the depth,
  /// kMaxVariance and kAdaptiveSample via MaxVarianceDim.
  HDIDX_BUILD_ONLY size_t ChooseSplitDim(size_t lo, size_t hi,
                                         SplitStrategy strategy, size_t depth);

  /// Rearranges [lo, hi) so that every point in [lo, pos) is <= every point
  /// in [pos, hi) along `split_dim` (nth_element semantics).
  /// Requires lo < pos < hi.
  HDIDX_BUILD_ONLY virtual void Partition(size_t lo, size_t hi, size_t pos,
                                          size_t split_dim) = 0;

  /// MBR of points [lo, hi).
  HDIDX_BUILD_ONLY virtual geometry::BoundingBox ComputeBox(size_t lo,
                                                            size_t hi) = 0;

  /// Called once when construction finishes; external sources flush buffers.
  HDIDX_BUILD_ONLY virtual void Finish() {}

  /// Builds the whole tree (returning its root id) when the strategy is
  /// kAdaptiveSample and root_level > options.stop_level: BulkLoad
  /// dispatches here instead of running the level-wise plan over the whole
  /// range, and the source drives its own sample-first pipeline, planning
  /// each group's bucket roots depth-first (internal::BuildBucketRoots) —
  /// layouts are bit-identical for every thread count by construction.
  HDIDX_BUILD_ONLY virtual uint32_t BuildAdaptiveRoot(
      const BulkLoadOptions& options, size_t root_level, RTree* tree) = 0;
};

/// PointSource over an in-memory dataset. Construction permutes an index
/// array, never the dataset itself; the final permutation becomes the
/// RTree's order().
class InMemoryPointSource : public PointSource {
 public:
  /// `data` must outlive the source.
  explicit InMemoryPointSource(const data::Dataset* data);

  Concurrency concurrency() const override {
    return Concurrency::kDisjointRanges;
  }
  size_t dim() const override { return data_->dim(); }
  size_t size() const override { return data_->size(); }
  size_t MaxVarianceDim(size_t lo, size_t hi) override;
  void Partition(size_t lo, size_t hi, size_t pos, size_t split_dim) override;
  geometry::BoundingBox ComputeBox(size_t lo, size_t hi) override;

  /// Sample-first pipeline over the in-memory dataset: sample rows choose a
  /// split-plane tree (adaptive_build.h), one classification pass plus a
  /// stable counting sort of the permutation forms the bucket ranges, each
  /// group's bucket roots are built by internal::BuildBucketRoots, and the
  /// upper levels are packed over them.
  uint32_t BuildAdaptiveRoot(const BulkLoadOptions& options, size_t root_level,
                             RTree* tree) override;

  /// The permutation built up by Partition calls.
  std::vector<uint32_t> TakeOrder() { return std::move(order_); }

 private:
  const data::Dataset* data_;
  std::vector<uint32_t> order_;
};

/// Options controlling a bulk load.
struct BulkLoadOptions {
  /// Topology of the FULL index whose structure is being replicated.
  /// Partition targets at each level come from its subtree capacities.
  const TreeTopology* topology = nullptr;

  /// Sampling fraction: partition targets are multiplied by this, so a
  /// mini-index built on a zeta-sample reproduces the full tree's node
  /// counts and fanouts (Section 3.1 structural similarity). 1.0 for the
  /// full index.
  double scale = 1.0;

  /// Level (full-tree numbering) of the root of the tree being built.
  /// topology->height() for a complete or mini index; height - h_upper + 1
  /// for a lower tree rooted at an upper-tree leaf.
  size_t root_level = 0;

  /// Construction stops at this level: nodes at stop_level become the
  /// tree's leaves. 1 builds down to data pages; height - h_upper + 1
  /// builds an upper tree of height h_upper.
  size_t stop_level = 1;

  /// How split dimensions are chosen (see SplitStrategy).
  SplitStrategy split_strategy = SplitStrategy::kMaxVariance;

  /// Tuning for kAdaptiveSample (ignored by the other strategies).
  AdaptiveOptions adaptive;

  /// Execution resources for the build. Every build runs one plan of split
  /// steps. nullptr (the default) and serial contexts run it depth-first on
  /// the calling thread; a context with a pool of 2+ threads runs it in
  /// waves over the pool's workers — *only* for sources declaring
  /// Concurrency::kDisjointRanges (the in-memory source). Single-owner
  /// sources (the external/on-disk build) always run depth-first, so their
  /// I/O charging order is untouched.
  ///
  /// Determinism: both runs are bit-identical — same node ids, levels,
  /// MBRs, leaf ranges, and point permutation — for every thread count.
  /// Sibling steps cover disjoint ranges of the permutation, the plan's
  /// shape is a deterministic function of the input, and nodes are emitted
  /// afterwards by one post-order walk. The split pipeline draws no
  /// randomness; a future randomized SplitStrategy must draw from
  /// exec->StreamRng(subtree id), keyed by the deterministic ids the plan
  /// carries (Rng::Fork), never from thread or wave identity.
  const common::ExecutionContext* exec = nullptr;
};

/// Bulk-loads a VAMSplit R*-tree from `source` (all of its points).
///
/// The algorithm is the level-wise recursive partitioning of Berchtold,
/// Böhm and Kriegel: at each directory node the required fanout is
/// f = ceil(n / (scale * cap(level-1))) and the range is split into f
/// partitions by recursive binary maximum-variance splits at multiples of
/// the (scaled) child capacity. With options.exec (see there) the
/// partitioning fans out across threads with a bit-identical result.
RTree BulkLoad(PointSource* source, const BulkLoadOptions& options);

/// Scaled capacity of one subtree rooted at `level` (full-tree numbering):
/// options.topology->SubtreeCapacity(level) times options.scale, so a
/// mini-index sample reproduces the full tree's fanouts. Clamped to one
/// point: a page of the mini-index must hold at least one point (Section
/// 3.3's bound: the sample rate can never be below 1/C).
double ScaledSubtreeCapacity(const BulkLoadOptions& options, size_t level);

/// The VAMSplit fanout rule: ceil(points / capacity), with a 1e-9 slack so
/// an exact multiple never rounds up to an extra, near-empty partition.
size_t VamSplitFanout(double points, double capacity);

/// Convenience wrapper: builds over an in-memory dataset and installs the
/// permutation as the tree's order().
RTree BulkLoadInMemory(const data::Dataset& data,
                       const BulkLoadOptions& options);

namespace internal {

/// A finished bucket subtree of a kAdaptiveSample build: its root node id
/// and the number of points under it (adaptive_build.h packs the upper
/// levels from these).
struct AdaptiveRoot {
  uint32_t id = 0;
  size_t points = 0;
};

/// Builds the bucket group [lo, hi) as one or more subtrees rooted at
/// `bucket_level`, appended to `roots` in left-to-right order: the children
/// of one build-plan node at bucket_level + 1, planned depth-first on the
/// calling thread and emitted without that parent. A group no larger than
/// the scaled subtree capacity yields exactly one root; a larger one is
/// split at capacity multiples by max-variance splits, so every root
/// respects the level's capacity whenever the data is splittable.
HDIDX_BUILD_ONLY void BuildBucketRoots(PointSource* source,
                                       const BulkLoadOptions& options,
                                       RTree* tree, size_t bucket_level,
                                       size_t lo, size_t hi,
                                       std::vector<AdaptiveRoot>* roots);

}  // namespace internal

}  // namespace hdidx::index

#endif  // HDIDX_INDEX_BULK_LOADER_H_
