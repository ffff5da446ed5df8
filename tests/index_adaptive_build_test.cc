#include "index/adaptive_build.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "test_util.h"

namespace hdidx::index {
namespace {

// ---------------------------------------------------------------------------
// Unit tests of the pure planning pieces.
// ---------------------------------------------------------------------------

TEST(AdaptiveBucketLevelTest, PicksLargestLevelFittingHalfTheMemory) {
  // 10000 points, 20/page, fanout 5: capacities 20, 100, 500, 2500, ...
  const TreeTopology topo(10000, 20, 5);
  const size_t root = topo.height();
  ASSERT_GE(root, 4u);
  // Unconstrained memory: one level below the root.
  EXPECT_EQ(AdaptiveBucketLevel(topo, root, 1, 0), root - 1);
  // 2 * 500 <= 1000 < 2 * 2500: level with capacity 500 (level 3).
  EXPECT_EQ(topo.SubtreeCapacity(3), 500u);
  EXPECT_EQ(AdaptiveBucketLevel(topo, root, 1, 1000), 3u);
  // Even leaves exceed memory/2: falls to the stop level.
  EXPECT_EQ(AdaptiveBucketLevel(topo, root, 1, 10), 1u);
  // Never below the stop level, never at or above the root.
  EXPECT_EQ(AdaptiveBucketLevel(topo, root, 2, 10), 2u);
  EXPECT_LT(AdaptiveBucketLevel(topo, root, 1, 1u << 30), root);
}

TEST(AdaptiveBucketLevelTest, MaxRootsUnderSaturates) {
  const TreeTopology topo(10000, 20, 5);
  EXPECT_EQ(MaxRootsUnder(topo, 3, 3, 1000), 1u);
  EXPECT_EQ(MaxRootsUnder(topo, 4, 3, 1000), 5u);
  EXPECT_EQ(MaxRootsUnder(topo, 5, 3, 1000), 25u);
  // Saturation guard: the power never overflows past the cap.
  EXPECT_EQ(MaxRootsUnder(topo, 60, 1, 7777), 7777u);
}

TEST(SplitPlanTest, BucketsNumberLeavesLeftToRightAlongEachPlane) {
  // A 1-d sample with two well-separated clumps: the first split must
  // land between them and bucket ids must increase along the axis.
  std::vector<float> sample;
  common::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    sample.push_back(static_cast<float>(rng.NextDouble() * 0.1) +
                     (i % 2 == 0 ? 0.0f : 0.9f));
  }
  const SplitPlan plan = SplitPlan::Build(sample.data(), sample.size(), 1,
                                          /*total_points=*/1000.0,
                                          /*bucket_target=*/100.0);
  ASSERT_GE(plan.num_buckets(), 2u);
  float prev_value = -1.0f;
  size_t prev_bucket = 0;
  for (const float v : {0.01f, 0.05f, 0.91f, 0.99f}) {
    const size_t bucket = plan.BucketOf(&v);
    if (prev_value >= 0.0f) {
      EXPECT_GE(bucket, prev_bucket);
    }
    prev_value = v;
    prev_bucket = bucket;
  }
  EXPECT_LT(plan.BucketOf(&sample[0]), plan.num_buckets());
}

TEST(SplitPlanTest, AllEqualValuesBecomeOneBucket) {
  const std::vector<float> sample(128, 0.5f);
  const SplitPlan plan = SplitPlan::Build(sample.data(), 128, 1, 1e6, 10.0);
  // No separating value exists: the no-progress guard stops recursion.
  EXPECT_EQ(plan.num_buckets(), 1u);
  const float v = 0.5f;
  EXPECT_EQ(plan.BucketOf(&v), 0u);
}

TEST(SplitPlanTest, DeterministicForSameSample) {
  common::Rng rng(9);
  std::vector<float> sample;
  for (int i = 0; i < 500; ++i) {
    sample.push_back(static_cast<float>(rng.NextDouble()));
  }
  const SplitPlan a =
      SplitPlan::Build(sample.data(), sample.size() / 2, 2, 5e4, 40.0);
  const SplitPlan b =
      SplitPlan::Build(sample.data(), sample.size() / 2, 2, 5e4, 40.0);
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (size_t i = 0; i + 2 <= sample.size(); i += 2) {
    EXPECT_EQ(a.BucketOf(&sample[i]), b.BucketOf(&sample[i]));
  }
}

TEST(AdaptiveGroupBoundariesTest, CutsAtExactRootMultiplesWithinMemory) {
  // cap 50, memory 175: floor(175/50) = 3 roots per group, boundaries at
  // multiples of 3 * 50 = 150 points.
  const auto bounds = AdaptiveGroupBoundaries(1000, 50.0, 175);
  EXPECT_EQ(bounds,
            (std::vector<size_t>{0, 150, 300, 450, 600, 750, 900, 1000}));
  for (size_t g = 0; g + 1 < bounds.size(); ++g) {
    EXPECT_LE(bounds[g + 1] - bounds[g], 175u) << "group " << g;
  }
}

TEST(AdaptiveGroupBoundariesTest, UnconstrainedMemoryIsOneGroup) {
  EXPECT_EQ(AdaptiveGroupBoundaries(1000, 50.0, 0),
            (std::vector<size_t>{0, 1000}));
}

TEST(AdaptiveGroupBoundariesTest, TinyMemoryStillAdvancesWholeRoots) {
  // Memory below one root's capacity: groups degrade to single roots (the
  // build's oversized-group path handles them) but never stall.
  const auto bounds = AdaptiveGroupBoundaries(200, 50.0, 10);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 50, 100, 150, 200}));
}

TEST(AdaptiveGroupBoundariesTest, FractionalCapacityCoversEveryPoint) {
  // Mini-index scale makes capacities fractional; boundaries must stay
  // strictly increasing and end at n regardless of llround rounding.
  const auto bounds = AdaptiveGroupBoundaries(997, 7.3, 20);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 997u);
  for (size_t g = 0; g + 1 < bounds.size(); ++g) {
    EXPECT_LT(bounds[g], bounds[g + 1]);
    EXPECT_LE(bounds[g + 1] - bounds[g], 21u);
  }
}

// ---------------------------------------------------------------------------
// Layout property suite: for every dataset shape, the adaptive build
// produces a structurally valid tree with the same leaf count and the
// same capacity bounds as the VAMSplit one — only the partition planes
// (and hence leaf contents) differ.
// ---------------------------------------------------------------------------

data::Dataset SkewedData(size_t n, size_t dim, uint64_t seed) {
  // Heavy mass near the origin with a long tail: pow(u, 4) per coordinate.
  common::Rng rng(seed);
  data::Dataset data(dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < dim; ++k) {
      const double u = rng.NextDouble();
      row[k] = static_cast<float>(u * u * u * u);
    }
    data.Append(row);
  }
  return data;
}

data::Dataset IdenticalData(size_t n, size_t dim) {
  data::Dataset data(dim);
  const std::vector<float> row(dim, 0.25f);
  for (size_t i = 0; i < n; ++i) data.Append(row);
  return data;
}

void ExpectAdaptiveLayoutMatchesVamSplitShape(const data::Dataset& data,
                                              const char* what) {
  const TreeTopology topo(data.size(), 22, 6);
  BulkLoadOptions vam;
  vam.topology = &topo;
  const RTree reference = BulkLoadInMemory(data, vam);

  BulkLoadOptions adaptive = vam;
  adaptive.split_strategy = SplitStrategy::kAdaptiveSample;
  const RTree tree = BulkLoadInMemory(data, adaptive);

  hdidx::testing::ExpectValidTree(tree, data, 1);
  EXPECT_EQ(tree.num_leaves(), topo.NumLeaves()) << what;
  EXPECT_EQ(tree.num_leaves(), reference.num_leaves()) << what;
  EXPECT_EQ(tree.root_level(), reference.root_level()) << what;
  // Capacity bounds: leaves hold at most a data page, directories fan out
  // within [1, dir_capacity].
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const RTreeNode& node = tree.node(id);
    if (node.is_leaf()) {
      EXPECT_LE(node.count, topo.data_capacity()) << what << " leaf " << id;
    } else {
      EXPECT_GE(node.children.size(), 1u) << what << " node " << id;
      EXPECT_LE(node.children.size(), topo.dir_capacity())
          << what << " node " << id;
    }
  }
}

TEST(AdaptiveLayoutPropertyTest, UniformData) {
  common::Rng rng(71);
  ExpectAdaptiveLayoutMatchesVamSplitShape(
      data::GenerateUniform(6000, 6, &rng), "uniform");
}

TEST(AdaptiveLayoutPropertyTest, ClusteredData) {
  ExpectAdaptiveLayoutMatchesVamSplitShape(
      hdidx::testing::SmallClustered(5000, 8, 72), "clustered");
}

TEST(AdaptiveLayoutPropertyTest, SkewedData) {
  ExpectAdaptiveLayoutMatchesVamSplitShape(SkewedData(4000, 5, 73),
                                           "skewed");
}

TEST(AdaptiveLayoutPropertyTest, AllIdenticalPoints) {
  ExpectAdaptiveLayoutMatchesVamSplitShape(IdenticalData(1500, 4),
                                           "all-identical");
}

TEST(AdaptiveLayoutPropertyTest, ConstrainedMemoryStillTilesLeaves) {
  // memory_points small enough to force a low bucket level and many small
  // groups — the shape knobs of the external pipeline, exercised through
  // the in-memory entry point.
  const auto data = SkewedData(5000, 6, 74);
  const TreeTopology topo(data.size(), 20, 5);
  for (const size_t memory : {120u, 600u, 2500u}) {
    BulkLoadOptions options;
    options.topology = &topo;
    options.split_strategy = SplitStrategy::kAdaptiveSample;
    options.memory_points = memory;
    const RTree tree = BulkLoadInMemory(data, options);
    hdidx::testing::ExpectValidTree(tree, data, 1);
    EXPECT_EQ(tree.num_leaves(), topo.NumLeaves()) << "memory " << memory;
  }
}

// ---------------------------------------------------------------------------
// Golden layout digests for the adaptive strategy, pinned exactly like the
// VAMSplit ones in index_bulk_loader_test.cc: a deliberate layout change
// must update the constant (the failure message prints the new digest).
// ---------------------------------------------------------------------------

constexpr uint64_t kGoldenAdaptiveClustered2000x8 = 0x8637aeb363f9510cULL;
constexpr uint64_t kGoldenAdaptiveUniform3000x12 = 0xb65cd83d572f8915ULL;

void ExpectAdaptiveGoldenDigest(const data::Dataset& data,
                                const TreeTopology& topo,
                                size_t memory_points, uint64_t golden) {
  // A memory constraint keeps the pipeline's distinctive shape (low bucket
  // level, grouped builds) in play — unconstrained, the single group
  // degenerates to the VAMSplit layout already pinned elsewhere.
  BulkLoadOptions serial;
  serial.topology = &topo;
  serial.split_strategy = SplitStrategy::kAdaptiveSample;
  serial.memory_points = memory_points;
  const RTree reference = BulkLoadInMemory(data, serial);
  EXPECT_EQ(TreeLayoutDigest(reference), golden)
      << "adaptive serial layout changed; new digest 0x" << std::hex
      << TreeLayoutDigest(reference);

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool);
  BulkLoadOptions parallel = serial;
  parallel.exec = &ctx;
  const RTree tree = BulkLoadInMemory(data, parallel);
  EXPECT_EQ(TreeLayoutDigest(tree), golden)
      << "adaptive parallel layout diverged; digest 0x" << std::hex
      << TreeLayoutDigest(tree);
}

TEST(AdaptiveGoldenLayoutTest, Clustered2000x8) {
  const auto data = hdidx::testing::SmallClustered(2000, 8, 42);
  const TreeTopology topo(data.size(), 20, 5);
  ExpectAdaptiveGoldenDigest(data, topo, /*memory_points=*/250,
                             kGoldenAdaptiveClustered2000x8);
}

TEST(AdaptiveGoldenLayoutTest, Uniform3000x12) {
  common::Rng rng(43);
  const auto data = data::GenerateUniform(3000, 12, &rng);
  const TreeTopology topo(data.size(), 33, 16);
  ExpectAdaptiveGoldenDigest(data, topo, /*memory_points=*/400,
                             kGoldenAdaptiveUniform3000x12);
}

}  // namespace
}  // namespace hdidx::index
