#include "index/bulk_loader.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "geometry/kernels.h"
#include "index/adaptive_build.h"

namespace hdidx::index {

size_t PointSource::ChooseSplitDim(size_t lo, size_t hi,
                                   SplitStrategy strategy, size_t depth) {
  switch (strategy) {
    case SplitStrategy::kMaxVariance:
      return MaxVarianceDim(lo, hi);
    case SplitStrategy::kMaxExtent:
      return ComputeBox(lo, hi).LongestDimension();
    case SplitStrategy::kRoundRobin:
      return depth % dim();
    case SplitStrategy::kAdaptiveSample:
      // Within-bucket splits of the adaptive pipeline use max-variance
      // dimensions.
      return MaxVarianceDim(lo, hi);
  }
  return MaxVarianceDim(lo, hi);
}

InMemoryPointSource::InMemoryPointSource(std::span<const float> rows,
                                         size_t dim,
                                         std::vector<uint32_t> order)
    : rows_(rows), dim_(dim), order_(std::move(order)) {
  HDIDX_CHECK(dim_ > 0);
}

size_t InMemoryPointSource::MaxVarianceDim(size_t lo, size_t hi) {
  return geometry::kernels::MaxVarianceDim(
      rows_.data(), dim_,
      std::span<const uint32_t>(order_).subspan(lo, hi - lo));
}

void InMemoryPointSource::Partition(size_t lo, size_t hi, size_t pos,
                                    size_t split_dim) {
  HDIDX_CHECK(lo < pos && pos < hi);
  const float* keys = rows_.data() + split_dim;
  const size_t d = dim_;
  std::nth_element(order_.begin() + static_cast<ptrdiff_t>(lo),
                   order_.begin() + static_cast<ptrdiff_t>(pos),
                   order_.begin() + static_cast<ptrdiff_t>(hi),
                   [keys, d](uint32_t a, uint32_t b) {
                     return keys[a * d] < keys[b * d];
                   });
}

geometry::BoundingBox InMemoryPointSource::ComputeBox(size_t lo, size_t hi) {
  geometry::BoundingBox box(dim_);
  for (size_t i = lo; i < hi; ++i) box.Extend(row(i));
  return box;
}

double ScaledSubtreeCapacity(const BulkLoadOptions& options, size_t level) {
  return std::max(
      1.0, static_cast<double>(options.topology->SubtreeCapacity(level)) *
               options.scale);
}

size_t VamSplitFanout(double points, double capacity) {
  return static_cast<size_t>(std::ceil(points / capacity - 1e-9));
}

namespace {

/// A node of the build plan: level and point range, plus a leaf's MBR or a
/// directory's child slots. A directory has one slot per target partition;
/// a range too small to split further fills only its first slot, so a slot
/// with lo == hi is unused. The plan's shape is a function of the input
/// alone — tasks fill slots, they never append to shared sequences.
struct PlanNode {
  PlanNode() = default;
  PlanNode(size_t level_in, size_t lo_in, size_t hi_in)
      : level(level_in), lo(lo_in), hi(hi_in) {}

  size_t level = 0;
  size_t lo = 0;
  size_t hi = 0;
  // Leaves' MBRs; directories derive theirs at emission. Zero-dimensional
  // until ComputeBox fills it, so directory slots allocate nothing.
  geometry::BoundingBox box{0};
  // Directories' child slots.
  std::vector<PlanNode> children;
};

/// The VAMSplit recursion. Expanding a directory sizes its child slots and
/// queues the binary split of its range; each split step chooses a
/// dimension, partitions at a multiple of the child capacity and queues both
/// halves, until a half is one partition (or one point) and becomes a child,
/// expanded in turn — a leaf by computing its MBR.
///
/// Two schedulers run the same steps. For a source declaring
/// kDisjointRanges under a 2+ thread context, common::ForkJoinWaves runs
/// each wave's steps concurrently: sibling steps cover disjoint ranges and
/// operations on disjoint ranges commute, so the permutation and every MBR
/// are the same for any thread count. Otherwise a LIFO stack runs them
/// depth-first on the calling thread, spawned steps pushed right to left:
/// exactly a recursive depth-first walk's sequence of ChooseSplitDim /
/// Partition / ComputeBox calls, which the external source's seeks, window
/// loads and flushes depend on. Either way Emit assigns node ids afterwards.
class PlanBuilder {
 public:
  PlanBuilder(PointSource* source, const BulkLoadOptions& options, RTree* tree,
              bool fan_out)
      : source_(source), options_(options), tree_(tree), fan_out_(fan_out) {
    // Emit's stack holds about one directory's child ids per level.
    emit_ids_.reserve(options.topology->height() *
                      options.topology->dir_capacity());
  }

  /// Plans the subtree under `node`, whose level and range are set.
  void Plan(PlanNode* node) {
    std::vector<SplitTask> pending;
    // Depth-first, the stack holds about one step per binary split level
    // of the current path, so this never regrows.
    pending.reserve(64);
    Expand(node, &pending);
    if (fan_out_) {
      common::ForkJoinWaves(
          *options_.exec, std::move(pending),
          [this](const SplitTask& task, std::vector<SplitTask>* spawn) {
            Split(task, spawn);
          });
      return;
    }
    while (!pending.empty()) {
      const SplitTask task = pending.back();
      pending.pop_back();
      // Spawned steps go on the stack right to left: the left runs first.
      const size_t mark = pending.size();
      Split(task, &pending);
      std::reverse(pending.begin() + static_cast<std::ptrdiff_t>(mark),
                   pending.end());
    }
  }

  /// Post-order emission, children left to right before their directory,
  /// so node ids and leaf_ids() are the same for either scheduler.
  uint32_t Emit(PlanNode* node) {
    if (node->level == options_.stop_level) {
      return tree_->AddLeaf(std::move(node->box),
                            static_cast<uint32_t>(node->level),
                            static_cast<uint32_t>(node->lo),
                            static_cast<uint32_t>(node->hi - node->lo));
    }
    // Child ids stack up in one buffer shared by the whole walk: each
    // directory appends its ids after its ancestors' and truncates back.
    const size_t mark = emit_ids_.size();
    for (PlanNode& child : node->children) {
      if (child.hi > child.lo) emit_ids_.push_back(Emit(&child));
    }
    const uint32_t id = tree_->AddDirectory(
        static_cast<uint32_t>(node->level),
        std::span<const uint32_t>(emit_ids_).subspan(mark));
    emit_ids_.resize(mark);
    return id;
  }

 private:
  /// One binary split step: [lo, hi) into `fanout` partitions of
  /// `child_target` points (the last takes the remainder), filling
  /// directory `dir`'s child slots from `slot` on.
  struct SplitTask {
    PlanNode* dir;
    size_t slot;
    size_t lo;
    size_t hi;
    size_t fanout;
    size_t depth;
    double child_target;
  };

  void Expand(PlanNode* node, std::vector<SplitTask>* spawn) {
    HDIDX_CHECK(node->hi > node->lo);
    if (node->level == options_.stop_level) {
      node->box = source_->ComputeBox(node->lo, node->hi);
      return;
    }
    const double child_target =
        ScaledSubtreeCapacity(options_, node->level - 1);
    const size_t fanout = VamSplitFanout(
        static_cast<double>(node->hi - node->lo), child_target);
    node->children.resize(fanout);
    spawn->push_back({node, 0, node->lo, node->hi, fanout, 0, child_target});
  }

  void Split(const SplitTask& task, std::vector<SplitTask>* spawn) {
    if (task.fanout <= 1 || task.hi - task.lo <= 1) {
      PlanNode* child = &task.dir->children[task.slot];
      *child = PlanNode(task.dir->level - 1, task.lo, task.hi);
      Expand(child, spawn);
      return;
    }
    const size_t left_fanout = (task.fanout + 1) / 2;
    // Keep both sides non-empty even under aggressive rounding.
    const size_t split = std::clamp(
        task.lo + static_cast<size_t>(std::llround(
                      static_cast<double>(left_fanout) * task.child_target)),
        task.lo + 1, task.hi - 1);
    const size_t dim = source_->ChooseSplitDim(
        task.lo, task.hi, options_.split_strategy, task.depth);
    source_->Partition(task.lo, task.hi, split, dim);
    SplitTask left = task;
    left.hi = split;
    left.fanout = left_fanout;
    ++left.depth;
    SplitTask right = task;
    right.slot += left_fanout;
    right.lo = split;
    right.fanout -= left_fanout;
    ++right.depth;
    spawn->push_back(left);
    spawn->push_back(right);
  }

  PointSource* source_;
  const BulkLoadOptions& options_;
  RTree* tree_;
  const bool fan_out_;
  /// Emit's child-id stack.
  std::vector<uint32_t> emit_ids_;
};

}  // namespace

namespace internal {

void BuildBucketRoots(PointSource* source, const BulkLoadOptions& options,
                      RTree* tree, size_t bucket_level, size_t lo, size_t hi,
                      std::vector<AdaptiveRoot>* roots) {
  // The group's roots are the children of one plan node a level up,
  // planned depth-first and emitted without that parent.
  PlanBuilder builder(source, options, tree, /*fan_out=*/false);
  PlanNode group(bucket_level + 1, lo, hi);
  builder.Plan(&group);
  for (PlanNode& root : group.children) {
    if (root.hi > root.lo) {
      roots->push_back({builder.Emit(&root), root.hi - root.lo});
    }
  }
}

}  // namespace internal

uint32_t InMemoryPointSource::BuildAdaptiveRoot(const BulkLoadOptions& options,
                                                size_t root_level,
                                                RTree* tree) {
  const size_t n = size();
  const size_t d = dim();
  const AdaptiveSetup setup = PrepareAdaptiveBuild(options, root_level, n);

  // Sample pass: gather sample rows through the current permutation so the
  // draw is a function of (data, seed) alone.
  const size_t sample_size = setup.sample_rows.size();
  std::vector<float> sample(sample_size * d);
  for (size_t i = 0; i < sample_size; ++i) {
    const auto r = row(setup.sample_rows[i]);
    std::copy(r.begin(), r.end(), sample.begin() + i * d);
  }
  const SplitPlan plan = SplitPlan::Build(sample.data(), sample_size, d,
                                          static_cast<double>(n),
                                          setup.bucket_target);

  // Classification pass: one bucket id per point, plus bucket counts.
  std::vector<uint32_t> point_bucket(n);
  std::vector<size_t> counts(plan.num_buckets(), 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = plan.BucketOf(row(i).data());
    point_bucket[i] = static_cast<uint32_t>(b);
    ++counts[b];
  }

  // Stable counting sort of the permutation by bucket id: the stream order
  // the external pipeline's run gather produces (bucket-major, original
  // order within a bucket).
  std::vector<size_t> offsets(plan.num_buckets() + 1, 0);
  for (size_t b = 0; b < plan.num_buckets(); ++b) {
    offsets[b + 1] = offsets[b] + counts[b];
  }
  {
    std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
    std::vector<uint32_t> sorted(n);
    for (size_t i = 0; i < n; ++i) {
      sorted[cursor[point_bucket[i]]++] = order_[i];
    }
    order_.swap(sorted);
  }

  // Slice the stream at exact root boundaries — not bucket boundaries, whose
  // arbitrary sizes would inflate the leaf count by one ceil per group —
  // and build each group's bucket roots, then pack the directory levels
  // above them.
  std::vector<internal::AdaptiveRoot> roots;
  const std::vector<size_t> bounds = AdaptiveGroupBoundaries(
      n, setup.bucket_capacity, options.memory_points);
  for (size_t g = 0; g + 1 < bounds.size(); ++g) {
    internal::BuildBucketRoots(this, options, tree, setup.bucket_level,
                               bounds[g], bounds[g + 1], &roots);
  }
  return PackUpperLevels(options, setup.bucket_level, root_level, roots, tree);
}

RTree BulkLoad(PointSource* source, const BulkLoadOptions& options) {
  HDIDX_CHECK(options.topology != nullptr);
  HDIDX_CHECK(options.scale > 0.0);
  const size_t root_level =
      options.root_level != 0 ? options.root_level : options.topology->height();
  HDIDX_CHECK(options.stop_level >= 1 && options.stop_level <= root_level);

  RTree tree(source->dim());
  if (source->size() == 0) return tree;
  uint32_t root;
  if (options.split_strategy == SplitStrategy::kAdaptiveSample &&
      root_level > options.stop_level) {
    // The source drives its own sample-first pipeline, whose bucket roots
    // are planned depth-first: bit-identical across thread counts by
    // construction.
    root = source->BuildAdaptiveRoot(options, root_level, &tree);
  } else {
    // Single-owner gate: only sources whose primitives are safe on disjoint
    // ranges may fan out. The external source in particular must keep its
    // order-sensitive I/O charging on one thread, in depth-first order.
    const bool fan_out =
        options.exec != nullptr && options.exec->threads() > 1 &&
        source->concurrency() == PointSource::Concurrency::kDisjointRanges;
    PlanBuilder builder(source, options, &tree, fan_out);
    PlanNode plan(root_level, 0, source->size());
    builder.Plan(&plan);
    root = builder.Emit(&plan);
  }
  tree.SetRoot(root);
  source->Finish();
  // Coverage audit: leaves are appended left to right, so their ranges must
  // tile [0, N) exactly — every point assigned to exactly one leaf.
  size_t covered = 0;
  for (const uint32_t id : tree.leaf_ids()) {
    const RTreeNode& leaf = tree.node(id);
    HDIDX_CHECK_OP(==, static_cast<size_t>(leaf.start), covered)
        << "leaf " << id << " leaves a gap or overlap in point coverage";
    covered += leaf.count;
  }
  HDIDX_CHECK_OP(==, covered, source->size())
      << "leaves cover the wrong number of points";
  return tree;
}

RTree BulkLoadInMemory(const data::Dataset& data,
                       const BulkLoadOptions& options) {
  HDIDX_CHECK(data.size() <= UINT32_MAX)
      << "the permutation names rows with 32-bit indices";
  std::vector<uint32_t> order(data.size());
  std::iota(order.begin(), order.end(), 0u);
  InMemoryPointSource source(data.data(), data.dim(), std::move(order));
  RTree tree = BulkLoad(&source, options);
  tree.SetOrder(source.TakeOrder());
  return tree;
}

}  // namespace hdidx::index
