#include "index/adaptive_build.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "geometry/kernels.h"

namespace hdidx::index {

namespace {

// The split-plane sample of every kAdaptiveSample build: Rng(kSampleSeed)
// draws kSamplingFraction of the points without replacement, at least
// kMinSamplePoints. Part of the deterministic layout function, so every
// adaptive golden pins them.
constexpr double kSamplingFraction = 0.05;
constexpr size_t kMinSamplePoints = 256;
constexpr uint64_t kSampleSeed = 1;

}  // namespace

size_t AdaptiveBucketLevel(const TreeTopology& topology, size_t root_level,
                           size_t stop_level, size_t memory_points) {
  HDIDX_CHECK(stop_level < root_level)
      << "no directory levels to place buckets under";
  const size_t upper = root_level - 1;
  if (memory_points == 0) return upper;
  for (size_t level = upper; level > stop_level; --level) {
    if (topology.SubtreeCapacity(level) <= memory_points / 2) return level;
  }
  return stop_level;
}

AdaptiveSetup PrepareAdaptiveBuild(const BulkLoadOptions& options,
                                   size_t root_level, size_t n) {
  AdaptiveSetup setup;
  setup.bucket_level =
      AdaptiveBucketLevel(*options.topology, root_level, options.stop_level,
                          options.memory_points);
  setup.bucket_capacity = ScaledSubtreeCapacity(options, setup.bucket_level);
  setup.bucket_target = std::max(1.0, setup.bucket_capacity * 0.7);
  const size_t sample_size = std::clamp<size_t>(
      std::max<size_t>(kMinSamplePoints,
                       static_cast<size_t>(std::llround(
                           static_cast<double>(n) * kSamplingFraction))),
      1, n);
  common::Rng(kSampleSeed).SampleIndices(n, sample_size, &setup.sample_rows);
  return setup;
}

size_t MaxRootsUnder(const TreeTopology& topology, size_t level,
                     size_t bucket_level, size_t cap) {
  HDIDX_CHECK(level >= bucket_level);
  size_t roots = 1;
  for (size_t l = bucket_level; l < level; ++l) {
    if (roots >= cap) return cap;
    roots *= topology.dir_capacity();
  }
  return std::min(roots, cap);
}

struct SplitPlan::BuildState {
  const float* sample = nullptr;
  size_t dim = 0;
  double bucket_target = 1.0;
  SplitPlan* plan = nullptr;
};

int32_t SplitPlan::BuildCell(BuildState* state, std::vector<uint32_t>* subset,
                             double est_points) {
  SplitPlan* plan = state->plan;
  const auto make_bucket = [plan] {
    const int32_t id = static_cast<int32_t>(plan->nodes_.size());
    Node leaf;
    leaf.bucket = static_cast<int32_t>(plan->num_buckets_++);
    plan->nodes_.push_back(leaf);
    return id;
  };
  const size_t fanout = VamSplitFanout(est_points, state->bucket_target);
  if (subset->size() <= 1 || fanout <= 1) return make_bucket();
  const size_t left_fanout = (fanout + 1) / 2;

  // Split dimension: max variance over the sample subset.
  const size_t d = state->dim;
  const double n = static_cast<double>(subset->size());
  const size_t split_dim =
      geometry::kernels::MaxVarianceDim(state->sample, d, *subset);

  // Threshold: the subset value at the VAMSplit rank. The subset is then
  // partitioned by VALUE against it — the exact rule BucketOf applies — so
  // the plan's own sample routes exactly as the data will.
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::llround(
          n * static_cast<double>(left_fanout) / static_cast<double>(fanout))),
      1, subset->size() - 1);
  std::vector<float> values(subset->size());
  for (size_t i = 0; i < subset->size(); ++i) {
    values[i] = state->sample[(*subset)[i] * d + split_dim];
  }
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  const float threshold = values[static_cast<ptrdiff_t>(rank)];

  std::vector<uint32_t> left, right;
  left.reserve(subset->size());
  right.reserve(subset->size());
  for (const uint32_t s : *subset) {
    if (state->sample[s * d + split_dim] < threshold) {
      left.push_back(s);
    } else {
      right.push_back(s);
    }
  }
  // No value separates the subset (duplicate-heavy or all-identical data):
  // this cell cannot split and becomes a bucket; the overfull-bucket path
  // of the build absorbs whatever the classification sends here.
  if (left.empty() || right.empty()) return make_bucket();

  const double est_left =
      est_points * static_cast<double>(left.size()) / n;
  const int32_t id = static_cast<int32_t>(plan->nodes_.size());
  Node node;
  node.dim = static_cast<uint32_t>(split_dim);
  node.threshold = threshold;
  plan->nodes_.push_back(node);
  subset->clear();
  subset->shrink_to_fit();
  const int32_t left_id = BuildCell(state, &left, est_left);
  const int32_t right_id = BuildCell(state, &right, est_points - est_left);
  plan->nodes_[static_cast<size_t>(id)].left = left_id;
  plan->nodes_[static_cast<size_t>(id)].right = right_id;
  return id;
}

SplitPlan SplitPlan::Build(const float* sample, size_t sample_count,
                           size_t dim, double total_points,
                           double bucket_target) {
  HDIDX_CHECK(bucket_target >= 1.0);
  SplitPlan plan;
  BuildState state;
  state.sample = sample;
  state.dim = dim;
  state.bucket_target = bucket_target;
  state.plan = &plan;
  std::vector<uint32_t> all(sample_count);
  for (size_t i = 0; i < sample_count; ++i) all[i] = static_cast<uint32_t>(i);
  const int32_t root = BuildCell(&state, &all, total_points);
  HDIDX_CHECK(root == 0 && plan.num_buckets_ >= 1);
  return plan;
}

std::vector<size_t> AdaptiveGroupBoundaries(size_t total_points,
                                            double bucket_capacity,
                                            size_t memory_points) {
  HDIDX_CHECK(total_points >= 1 && bucket_capacity >= 1.0);
  const size_t total_roots =
      VamSplitFanout(static_cast<double>(total_points), bucket_capacity);
  const size_t roots_per_group =
      memory_points == 0
          ? total_roots
          : std::max<size_t>(1, static_cast<size_t>(
                                    static_cast<double>(memory_points) /
                                    bucket_capacity));
  std::vector<size_t> bounds;
  bounds.push_back(0);
  for (size_t k = roots_per_group; k < total_roots; k += roots_per_group) {
    const size_t pos = std::min(
        total_points,
        static_cast<size_t>(std::llround(static_cast<double>(k) *
                                         bucket_capacity)));
    if (pos > bounds.back() && pos < total_points) bounds.push_back(pos);
  }
  bounds.push_back(total_points);
  return bounds;
}

namespace {

/// Recursive packer for the upper directory levels (see PackUpperLevels).
class UpperPacker {
 public:
  UpperPacker(const BulkLoadOptions& options, size_t bucket_level,
              const std::vector<internal::AdaptiveRoot>& roots, RTree* tree)
      : options_(options),
        topo_(*options.topology),
        bucket_level_(bucket_level),
        roots_(roots),
        tree_(tree),
        prefix_(roots.size() + 1, 0) {
    for (size_t i = 0; i < roots.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + roots[i].points;
    }
  }

  uint32_t Pack(size_t level, size_t a, size_t b) {
    if (level == bucket_level_) {
      HDIDX_CHECK(b - a == 1);
      return roots_[a].id;
    }
    const size_t m = b - a;
    const size_t max_child = MaxRootsUnder(topo_, level - 1, bucket_level_, m);
    const size_t points = prefix_[b] - prefix_[a];
    // VAMSplit fanout on point counts, clamped to what the root counts make
    // feasible: every child needs at least one root and can absorb at most
    // max_child of them. When even dir_capacity children cannot absorb all
    // roots (pathological skew), the fanout exceeds the page capacity
    // rather than failing — an overfull directory beats no tree.
    const size_t f_points =
        VamSplitFanout(static_cast<double>(points),
                       ScaledSubtreeCapacity(options_, level - 1));
    const size_t f_lo = (m + max_child - 1) / max_child;
    const size_t f_hi = std::min(m, std::max(topo_.dir_capacity(), f_lo));
    const size_t fanout = std::clamp(f_points, f_lo, f_hi);
    std::vector<uint32_t> children;
    children.reserve(fanout);
    SplitRoots(level, a, b, fanout, &children);
    HDIDX_CHECK(!children.empty() && children.size() <= fanout)
        << "upper level " << level << " packed " << children.size()
        << " children for target fanout " << fanout;
    return tree_->AddDirectory(static_cast<uint32_t>(level), children);
  }

 private:
  void SplitRoots(size_t level, size_t a, size_t b, size_t fanout,
                  std::vector<uint32_t>* children) {
    if (fanout <= 1 || b - a <= 1) {
      children->push_back(Pack(level - 1, a, b));
      return;
    }
    const size_t m = b - a;
    const size_t max_child = MaxRootsUnder(topo_, level - 1, bucket_level_, m);
    const size_t left_f = (fanout + 1) / 2;
    const size_t right_f = fanout - left_f;
    // Feasible root cuts: each side keeps at least one root per child and
    // at most max_child per child (f >= ceil(m / max_child) makes the
    // interval non-empty).
    size_t cut_lo = left_f;
    if (m > right_f * max_child) cut_lo = std::max(cut_lo, m - right_f * max_child);
    const size_t cut_hi = std::min(left_f * max_child, m - right_f);
    HDIDX_CHECK(cut_lo <= cut_hi);
    // Pick the boundary whose left point share is closest to balanced.
    const double target = static_cast<double>(prefix_[b] - prefix_[a]) *
                          static_cast<double>(left_f) /
                          static_cast<double>(fanout);
    size_t cut = cut_lo;
    double best = std::numeric_limits<double>::infinity();
    for (size_t c = cut_lo; c <= cut_hi; ++c) {
      const double delta = std::abs(
          static_cast<double>(prefix_[a + c] - prefix_[a]) - target);
      if (delta < best) {
        best = delta;
        cut = c;
      }
    }
    SplitRoots(level, a, a + cut, left_f, children);
    SplitRoots(level, a + cut, b, right_f, children);
  }

  const BulkLoadOptions& options_;
  const TreeTopology& topo_;
  const size_t bucket_level_;
  const std::vector<internal::AdaptiveRoot>& roots_;
  RTree* tree_;
  std::vector<size_t> prefix_;
};

}  // namespace

uint32_t PackUpperLevels(const BulkLoadOptions& options, size_t bucket_level,
                         size_t root_level,
                         const std::vector<internal::AdaptiveRoot>& roots,
                         RTree* tree) {
  HDIDX_CHECK(!roots.empty() && bucket_level < root_level);
  UpperPacker packer(options, bucket_level, roots, tree);
  return packer.Pack(root_level, 0, roots.size());
}

}  // namespace hdidx::index
