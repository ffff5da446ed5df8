#include "index/bulk_loader.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stats.h"
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
      // Within-bucket splits of the adaptive pipeline (and the fallback
      // recursion of sources without one) use max-variance dimensions.
      return MaxVarianceDim(lo, hi);
  }
  return MaxVarianceDim(lo, hi);
}

InMemoryPointSource::InMemoryPointSource(const data::Dataset* data)
    : data_(data), order_(data->size()) {
  std::iota(order_.begin(), order_.end(), 0u);
}

size_t InMemoryPointSource::MaxVarianceDim(size_t lo, size_t hi) {
  return geometry::kernels::MaxVarianceDim(
      data_->data().data(), data_->dim(),
      std::span<const uint32_t>(order_).subspan(lo, hi - lo));
}

void InMemoryPointSource::Partition(size_t lo, size_t hi, size_t pos,
                                    size_t split_dim) {
  HDIDX_CHECK(lo < pos && pos < hi);
  const data::Dataset& data = *data_;
  std::nth_element(order_.begin() + static_cast<ptrdiff_t>(lo),
                   order_.begin() + static_cast<ptrdiff_t>(pos),
                   order_.begin() + static_cast<ptrdiff_t>(hi),
                   [&data, split_dim](uint32_t a, uint32_t b) {
                     return data.row(a)[split_dim] < data.row(b)[split_dim];
                   });
}

geometry::BoundingBox InMemoryPointSource::ComputeBox(size_t lo, size_t hi) {
  geometry::BoundingBox box(data_->dim());
  for (size_t i = lo; i < hi; ++i) box.Extend(data_->row(order_[i]));
  return box;
}

namespace {

/// Recursive builder shared by all sources.
class Builder {
 public:
  Builder(PointSource* source, const BulkLoadOptions& options, RTree* tree)
      : source_(source), options_(options), tree_(tree) {}

  uint32_t BuildNode(size_t level, size_t lo, size_t hi) {
    HDIDX_CHECK(hi > lo);
    if (level == options_.stop_level) {
      return tree_->AddLeaf(source_->ComputeBox(lo, hi),
                            static_cast<uint32_t>(level),
                            static_cast<uint32_t>(lo),
                            static_cast<uint32_t>(hi - lo));
    }
    // Scaled capacity of one child subtree. A mini-index sample shrinks the
    // targets by `scale` so fanouts replicate the full tree. Clamped to one
    // point: a page of the mini-index must hold at least one point
    // (Section 3.3's bound: the sample rate can never be below 1/C).
    const double child_target = std::max(
        1.0, static_cast<double>(options_.topology->SubtreeCapacity(level - 1)) *
                 options_.scale);
    const size_t fanout = static_cast<size_t>(
        std::ceil(static_cast<double>(hi - lo) / child_target - 1e-9));
    std::vector<uint32_t> children;
    children.reserve(fanout);
    SplitRange(level, lo, hi, fanout, child_target, /*depth=*/0, &children);
    // Fanout audit: the recursive split may merge degenerate partitions but
    // can never manufacture extra children, and a non-empty range always
    // yields at least one.
    HDIDX_CHECK(!children.empty() && children.size() <= fanout)
        << "level " << level << " produced " << children.size()
        << " children for target fanout " << fanout;
    return tree_->AddDirectory(static_cast<uint32_t>(level),
                               std::move(children));
  }

 private:
  /// Recursive binary maximum-variance split of [lo, hi) into `fanout`
  /// partitions of `child_target` points (the last takes the remainder),
  /// then recurses one level down on each partition.
  void SplitRange(size_t level, size_t lo, size_t hi, size_t fanout,
                  double child_target, size_t depth,
                  std::vector<uint32_t>* children) {
    if (fanout <= 1 || hi - lo <= 1) {
      children->push_back(BuildNode(level - 1, lo, hi));
      return;
    }
    const size_t left_fanout = (fanout + 1) / 2;
    size_t split = lo + static_cast<size_t>(std::llround(
                            static_cast<double>(left_fanout) * child_target));
    // Keep both sides non-empty even under aggressive rounding.
    split = std::clamp(split, lo + 1, hi - 1);
    const size_t dim =
        source_->ChooseSplitDim(lo, hi, options_.split_strategy, depth);
    source_->Partition(lo, hi, split, dim);
    SplitRange(level, lo, split, left_fanout, child_target, depth + 1,
               children);
    SplitRange(level, split, hi, fanout - left_fanout, child_target,
               depth + 1, children);
  }

  PointSource* source_;
  const BulkLoadOptions& options_;
  RTree* tree_;
};

struct SplitCell;

/// A node of the plan tree the parallel build produces before emission:
/// level and point range as in the serial recursion, plus either a computed
/// MBR (leaves) or the binary split recursion that produced its children
/// (directories). The plan's shape is a deterministic function of the input
/// alone — tasks fill slots, they never append to shared sequences.
struct PlanNode {
  size_t level;
  size_t lo;
  size_t hi;
  bool is_leaf = false;
  geometry::BoundingBox box;          // leaves; directories derive theirs
  size_t fanout = 0;                  // directories: target for the audit
  std::unique_ptr<SplitCell> splits;  // directories: binary split tree

  PlanNode(size_t dim, size_t level_in, size_t lo_in, size_t hi_in)
      : level(level_in), lo(lo_in), hi(hi_in), box(dim) {}
};

/// One invocation of the recursive binary split: either it partitioned and
/// recursed (left/right set) or it terminated into one child node. Walking
/// cells left-to-right recovers the children in exactly the order the
/// serial SplitRange pushes them.
struct SplitCell {
  std::unique_ptr<SplitCell> left;
  std::unique_ptr<SplitCell> right;
  std::unique_ptr<PlanNode> child;
};

/// Parallel plan builder: runs the same recursion as Builder, but as a
/// breadth-first task graph on the execution context's pool. Sibling tasks
/// always cover disjoint [lo, hi) ranges, which is precisely the source's
/// Concurrency::kDisjointRanges contract, and each range sees the identical
/// sequence of ChooseSplitDim/Partition/ComputeBox calls the depth-first
/// recursion would issue — operations on disjoint ranges commute, so the
/// final permutation and every MBR are bit-identical to the serial build
/// for any thread count. Node ids are assigned afterwards by a serial
/// post-order emission walk replicating the serial AddLeaf/AddDirectory
/// call order exactly.
class ParallelBuilder {
 public:
  ParallelBuilder(PointSource* source, const BulkLoadOptions& options,
                  RTree* tree)
      : source_(source), options_(options), tree_(tree) {}

  uint32_t Build(size_t root_level) {
    PlanNode root(source_->dim(), root_level, 0, source_->size());
    std::vector<Task> frontier;
    frontier.push_back(NodeTask(&root));
    common::ForkJoinWaves(
        *options_.exec, std::move(frontier),
        [this](const Task& task, std::vector<Task>* spawn) {
          if (task.cell == nullptr) {
            ExpandNode(task.node, spawn);
          } else {
            RunSplit(task, spawn);
          }
        });
    return Emit(&root);
  }

 private:
  /// Either a node expansion (cell == nullptr) or one binary split step of
  /// [lo, hi) into `fanout` partitions for directory `node`.
  struct Task {
    PlanNode* node = nullptr;
    SplitCell* cell = nullptr;
    size_t lo = 0;
    size_t hi = 0;
    size_t fanout = 0;
    size_t depth = 0;
    double child_target = 0.0;
  };

  static Task NodeTask(PlanNode* node) {
    Task task;
    task.node = node;
    return task;
  }

  void ExpandNode(PlanNode* node, std::vector<Task>* spawn) {
    HDIDX_CHECK(node->hi > node->lo);
    if (node->level == options_.stop_level) {
      node->box = source_->ComputeBox(node->lo, node->hi);
      node->is_leaf = true;
      return;
    }
    // Same scaled child capacity (and clamp) as Builder::BuildNode.
    const double child_target = std::max(
        1.0,
        static_cast<double>(options_.topology->SubtreeCapacity(node->level - 1)) *
            options_.scale);
    const size_t fanout = static_cast<size_t>(std::ceil(
        static_cast<double>(node->hi - node->lo) / child_target - 1e-9));
    node->fanout = fanout;
    node->splits = std::make_unique<SplitCell>();
    Task task;
    task.node = node;
    task.cell = node->splits.get();
    task.lo = node->lo;
    task.hi = node->hi;
    task.fanout = fanout;
    task.depth = 0;
    task.child_target = child_target;
    spawn->push_back(task);
  }

  void RunSplit(const Task& task, std::vector<Task>* spawn) {
    PlanNode* dir = task.node;
    if (task.fanout <= 1 || task.hi - task.lo <= 1) {
      task.cell->child = std::make_unique<PlanNode>(
          source_->dim(), dir->level - 1, task.lo, task.hi);
      spawn->push_back(NodeTask(task.cell->child.get()));
      return;
    }
    const size_t left_fanout = (task.fanout + 1) / 2;
    size_t split =
        task.lo + static_cast<size_t>(std::llround(
                      static_cast<double>(left_fanout) * task.child_target));
    split = std::clamp(split, task.lo + 1, task.hi - 1);
    const size_t dim = source_->ChooseSplitDim(
        task.lo, task.hi, options_.split_strategy, task.depth);
    source_->Partition(task.lo, task.hi, split, dim);
    task.cell->left = std::make_unique<SplitCell>();
    task.cell->right = std::make_unique<SplitCell>();
    Task left = task;
    left.cell = task.cell->left.get();
    left.hi = split;
    left.fanout = left_fanout;
    ++left.depth;
    Task right = task;
    right.cell = task.cell->right.get();
    right.lo = split;
    right.fanout = task.fanout - left_fanout;
    ++right.depth;
    spawn->push_back(left);
    spawn->push_back(right);
  }

  /// Serial post-order emission: children (left to right) before their
  /// directory — the exact AddLeaf/AddDirectory call sequence of the serial
  /// recursion, hence identical node ids and leaf_ids().
  uint32_t Emit(PlanNode* node) {
    if (node->is_leaf) {
      return tree_->AddLeaf(std::move(node->box),
                            static_cast<uint32_t>(node->level),
                            static_cast<uint32_t>(node->lo),
                            static_cast<uint32_t>(node->hi - node->lo));
    }
    std::vector<uint32_t> children;
    CollectChildren(node->splits.get(), &children);
    // Same fanout audit as the serial recursion.
    HDIDX_CHECK(!children.empty() && children.size() <= node->fanout)
        << "level " << node->level << " produced " << children.size()
        << " children for target fanout " << node->fanout;
    return tree_->AddDirectory(static_cast<uint32_t>(node->level),
                               std::move(children));
  }

  void CollectChildren(SplitCell* cell, std::vector<uint32_t>* out) {
    if (cell->child != nullptr) {
      out->push_back(Emit(cell->child.get()));
      return;
    }
    CollectChildren(cell->left.get(), out);
    CollectChildren(cell->right.get(), out);
  }

  PointSource* source_;
  const BulkLoadOptions& options_;
  RTree* tree_;
};

}  // namespace

uint32_t PointSource::BuildAdaptiveRoot(const BulkLoadOptions& options,
                                        size_t root_level, RTree* tree) {
  // Sources without a native sample-first pipeline still honor the
  // strategy's layout contract (serial, deterministic) via the classic
  // recursion with max-variance splits.
  Builder builder(this, options, tree);
  return builder.BuildNode(root_level, 0, size());
}

namespace internal {

uint32_t BuildSerialNode(PointSource* source, const BulkLoadOptions& options,
                         RTree* tree, size_t level, size_t lo, size_t hi) {
  Builder builder(source, options, tree);
  return builder.BuildNode(level, lo, hi);
}

namespace {

/// SplitRange's recursion shape, but collecting the bucket-level roots of an
/// overfull bucket instead of one directory's children.
void SplitBucketRange(PointSource* source, const BulkLoadOptions& options,
                      RTree* tree, size_t bucket_level, size_t lo, size_t hi,
                      size_t fanout, double child_target, size_t depth,
                      std::vector<AdaptiveRoot>* roots) {
  if (fanout <= 1 || hi - lo <= 1) {
    roots->push_back(
        {BuildSerialNode(source, options, tree, bucket_level, lo, hi),
         hi - lo});
    return;
  }
  const size_t left_fanout = (fanout + 1) / 2;
  size_t split = lo + static_cast<size_t>(std::llround(
                          static_cast<double>(left_fanout) * child_target));
  split = std::clamp(split, lo + 1, hi - 1);
  const size_t dim =
      source->ChooseSplitDim(lo, hi, options.split_strategy, depth);
  source->Partition(lo, hi, split, dim);
  SplitBucketRange(source, options, tree, bucket_level, lo, split, left_fanout,
                   child_target, depth + 1, roots);
  SplitBucketRange(source, options, tree, bucket_level, split, hi,
                   fanout - left_fanout, child_target, depth + 1, roots);
}

}  // namespace

void BuildBucketRoots(PointSource* source, const BulkLoadOptions& options,
                      RTree* tree, size_t bucket_level, size_t lo, size_t hi,
                      std::vector<AdaptiveRoot>* roots) {
  HDIDX_CHECK(hi > lo);
  const double scaled_cap = std::max(
      1.0, static_cast<double>(
               options.topology->SubtreeCapacity(bucket_level)) *
               options.scale);
  const size_t fanout = static_cast<size_t>(
      std::ceil(static_cast<double>(hi - lo) / scaled_cap - 1e-9));
  SplitBucketRange(source, options, tree, bucket_level, lo, hi, fanout,
                   scaled_cap, /*depth=*/0, roots);
}

}  // namespace internal

uint32_t InMemoryPointSource::BuildAdaptiveRoot(const BulkLoadOptions& options,
                                                size_t root_level,
                                                RTree* tree) {
  if (root_level == options.stop_level) {
    // Single-leaf tree: nothing to place buckets under.
    return PointSource::BuildAdaptiveRoot(options, root_level, tree);
  }
  const TreeTopology& topo = *options.topology;
  const size_t n = size();
  const size_t d = dim();
  const AdaptiveOptions& adaptive = options.adaptive;
  const size_t bucket_level = AdaptiveBucketLevel(
      topo, root_level, options.stop_level, adaptive.memory_points);

  // Sample pass: gather sample rows through the current permutation so the
  // draw is a function of (data, seed) alone.
  const size_t sample_size = std::clamp<size_t>(
      std::max<size_t>(adaptive.min_sample_points,
                       static_cast<size_t>(std::llround(
                           static_cast<double>(n) *
                           adaptive.sampling_fraction))),
      1, n);
  std::vector<size_t> sample_idx;
  common::Rng(adaptive.seed).SampleIndices(n, sample_size, &sample_idx);
  std::vector<float> sample(sample_size * d);
  for (size_t i = 0; i < sample_size; ++i) {
    const auto row = data_->row(order_[sample_idx[i]]);
    std::copy(row.begin(), row.end(), sample.begin() + i * d);
  }

  const double scaled_cap = std::max(
      1.0, static_cast<double>(topo.SubtreeCapacity(bucket_level)) *
               options.scale);
  // Aim buckets slightly under capacity so sampling error rarely overfills.
  const double bucket_target = std::max(1.0, scaled_cap * 0.7);
  const SplitPlan plan = SplitPlan::Build(sample.data(), sample_size, d,
                                          static_cast<double>(n),
                                          bucket_target);

  // Classification pass: one bucket id per point, plus bucket counts.
  std::vector<uint32_t> point_bucket(n);
  std::vector<size_t> counts(plan.num_buckets(), 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = plan.BucketOf(data_->row(order_[i]).data());
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
  // and finish each group's subtree(s) with the serial recursion, then pack
  // the directory levels above the bucket roots.
  std::vector<internal::AdaptiveRoot> roots;
  const std::vector<size_t> bounds =
      AdaptiveGroupBoundaries(n, scaled_cap, adaptive.memory_points);
  for (size_t g = 0; g + 1 < bounds.size(); ++g) {
    internal::BuildBucketRoots(this, options, tree, bucket_level, bounds[g],
                               bounds[g + 1], &roots);
  }
  return PackUpperLevels(options, bucket_level, root_level, roots, tree);
}

RTree BulkLoad(PointSource* source, const BulkLoadOptions& options) {
  HDIDX_CHECK(options.topology != nullptr);
  HDIDX_CHECK(options.scale > 0.0);
  const size_t root_level =
      options.root_level != 0 ? options.root_level : options.topology->height();
  HDIDX_CHECK(options.stop_level >= 1 && options.stop_level <= root_level);

  RTree tree(source->dim());
  if (source->size() == 0) return tree;
  // Single-owner gate: only sources whose primitives are safe on disjoint
  // ranges may fan out. The external source in particular must keep its
  // order-sensitive I/O charging on one thread, serial-recursion order.
  const bool fan_out =
      options.exec != nullptr && options.exec->threads() > 1 &&
      source->concurrency() == PointSource::Concurrency::kDisjointRanges;
  uint32_t root;
  if (options.split_strategy == SplitStrategy::kAdaptiveSample) {
    // The adaptive pipeline is always serial (and bit-identical across
    // thread counts and read-ahead windows by construction); the source
    // drives its own sample-first build.
    root = source->BuildAdaptiveRoot(options, root_level, &tree);
  } else if (fan_out) {
    ParallelBuilder builder(source, options, &tree);
    root = builder.Build(root_level);
  } else {
    Builder builder(source, options, &tree);
    root = builder.BuildNode(root_level, 0, source->size());
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
  InMemoryPointSource source(&data);
  RTree tree = BulkLoad(&source, options);
  tree.SetOrder(source.TakeOrder());
  return tree;
}

}  // namespace hdidx::index
