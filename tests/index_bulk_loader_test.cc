#include "index/bulk_loader.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hdidx::index {
namespace {

TEST(BulkLoaderTest, FullTreeInvariants) {
  const auto data = hdidx::testing::SmallClustered(2000, 6, 1);
  const TreeTopology topo(data.size(), 20, 5);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree tree = BulkLoadInMemory(data, options);
  hdidx::testing::ExpectValidTree(tree, data, 1);
  EXPECT_EQ(tree.root_level(), topo.height());
}

TEST(BulkLoaderTest, LeafCountMatchesTopology) {
  const auto data = hdidx::testing::SmallClustered(3000, 4, 2);
  const TreeTopology topo(data.size(), 25, 8);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree tree = BulkLoadInMemory(data, options);
  EXPECT_EQ(tree.num_leaves(), topo.NumLeaves());
}

TEST(BulkLoaderTest, LeafCapacityRespected) {
  const auto data = hdidx::testing::SmallClustered(1234, 3, 3);
  const TreeTopology topo(data.size(), 17, 4);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree tree = BulkLoadInMemory(data, options);
  for (uint32_t id : tree.leaf_ids()) {
    EXPECT_LE(tree.node(id).count, 17u);
    EXPECT_GE(tree.node(id).count, 1u);
  }
}

TEST(BulkLoaderTest, SinglePageDataset) {
  const auto data = hdidx::testing::SmallClustered(15, 3, 4);
  const TreeTopology topo(data.size(), 20, 4);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree tree = BulkLoadInMemory(data, options);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.node(tree.root()).is_leaf());
}

TEST(BulkLoaderTest, MaxVarianceSplitSeparatesBimodalData) {
  // Two tight clusters far apart along dim 1: the top split must separate
  // them, so the two level-1 leaves of a 2-leaf tree have disjoint extents
  // along dim 1.
  common::Rng rng(5);
  data::Dataset data(2);
  for (int i = 0; i < 40; ++i) {
    const float y = (i % 2 == 0) ? 0.0f : 10.0f;
    data.Append(std::vector<float>{
        static_cast<float>(rng.NextDouble()),
        y + 0.01f * static_cast<float>(rng.NextGaussian())});
  }
  const TreeTopology topo(data.size(), 20, 4);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree tree = BulkLoadInMemory(data, options);
  ASSERT_EQ(tree.num_leaves(), 2u);
  const auto& a = tree.node(tree.leaf_ids()[0]).box;
  const auto& b = tree.node(tree.leaf_ids()[1]).box;
  EXPECT_FALSE(a.Intersects(b));
}

TEST(BulkLoaderTest, UpperTreeStopsAtStopLevel) {
  const auto data = hdidx::testing::SmallClustered(4000, 5, 6);
  const TreeTopology topo(data.size(), 10, 4);  // height 5 for n=4000
  ASSERT_GE(topo.height(), 3u);
  const size_t stop = topo.height() - 1;  // h_upper = 2
  BulkLoadOptions options;
  options.topology = &topo;
  options.stop_level = stop;
  const RTree tree = BulkLoadInMemory(data, options);
  hdidx::testing::ExpectValidTree(tree, data, stop);
  EXPECT_EQ(tree.num_leaves(), topo.NodesAtLevel(stop));
}

TEST(BulkLoaderTest, ScaledBuildReplicatesStructure) {
  // A mini-index on a 10% sample must have the same leaf count as the full
  // index (structural similarity, Section 3.1).
  const auto data = hdidx::testing::SmallClustered(5000, 4, 7);
  const TreeTopology topo(data.size(), 25, 6);

  common::Rng rng(8);
  std::vector<size_t> rows;
  rng.SampleIndices(data.size(), 500, &rows);
  const data::Dataset sample = data.Select(rows);

  BulkLoadOptions full;
  full.topology = &topo;
  const RTree full_tree = BulkLoadInMemory(data, full);

  BulkLoadOptions mini;
  mini.topology = &topo;
  mini.scale = 0.1;
  const RTree mini_tree = BulkLoadInMemory(sample, mini);

  EXPECT_EQ(mini_tree.num_leaves(), full_tree.num_leaves());
  EXPECT_EQ(mini_tree.root_level(), full_tree.root_level());
  hdidx::testing::ExpectValidTree(mini_tree, sample, 1);
}

TEST(BulkLoaderTest, SampledLeavesShrink) {
  // Without compensation, the total leaf volume of a mini-index is smaller
  // than the full index's (the effect Theorem 1 corrects).
  const auto data = hdidx::testing::SmallClustered(8000, 4, 9);
  const TreeTopology topo(data.size(), 40, 8);

  BulkLoadOptions full;
  full.topology = &topo;
  const RTree full_tree = BulkLoadInMemory(data, full);

  common::Rng rng(10);
  std::vector<size_t> rows;
  rng.SampleIndices(data.size(), 800, &rows);
  BulkLoadOptions mini;
  mini.topology = &topo;
  mini.scale = 0.1;
  const RTree mini_tree = BulkLoadInMemory(data.Select(rows), mini);

  EXPECT_LT(mini_tree.TotalLeafVolume(), full_tree.TotalLeafVolume());
}

TEST(BulkLoaderTest, LowerTreeRootLevelBuild) {
  // Build a subtree rooted below the root level, as the resampled predictor
  // does for lower trees.
  const auto data = hdidx::testing::SmallClustered(150, 3, 11);
  const TreeTopology topo(10000, 10, 4);  // full tree of height 5
  BulkLoadOptions options;
  options.topology = &topo;
  options.root_level = 3;  // lower tree of height 3
  const RTree tree = BulkLoadInMemory(data, options);
  EXPECT_EQ(tree.root_level(), 3u);
  hdidx::testing::ExpectValidTree(tree, data, 1);
  // capacity(2) = 40: 150 points need 4 children under the root.
  EXPECT_EQ(tree.node(tree.root()).children.size(), 4u);
}

TEST(BulkLoaderTest, DeterministicForSameInputs) {
  const auto data = hdidx::testing::SmallClustered(1000, 4, 12);
  const TreeTopology topo(data.size(), 15, 4);
  BulkLoadOptions options;
  options.topology = &topo;
  const RTree a = BulkLoadInMemory(data, options);
  const RTree b = BulkLoadInMemory(data, options);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (uint32_t id = 0; id < a.num_nodes(); ++id) {
    EXPECT_TRUE(a.node(id).box == b.node(id).box);
  }
}

// ---------------------------------------------------------------------------
// Build-equivalence battery: for every SplitStrategy, every dataset shape
// (uniform, clustered, all-identical points — the degenerate-partition
// regression case), and thread counts 1/2/4/8, the parallel build must be
// bit-identical to the serial one: same node ids, MBR floats, leaf ranges
// and point permutation. Runs in the TSan CI job.
// ---------------------------------------------------------------------------

data::Dataset AllIdenticalPoints(size_t n, size_t dim) {
  data::Dataset data(dim);
  const std::vector<float> row(dim, 0.5f);
  for (size_t i = 0; i < n; ++i) data.Append(row);
  return data;
}

data::Dataset UniformData(size_t n, size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  return data::GenerateUniform(n, dim, &rng);
}

class BulkLoaderParallelTest : public ::testing::TestWithParam<SplitStrategy> {
 protected:
  static const char* StrategyName(SplitStrategy s) {
    switch (s) {
      case SplitStrategy::kMaxVariance:
        return "max-variance";
      case SplitStrategy::kMaxExtent:
        return "max-extent";
      case SplitStrategy::kRoundRobin:
        return "round-robin";
      case SplitStrategy::kAdaptiveSample:
        return "adaptive-sample";
    }
    return "?";
  }

  void ExpectParallelMatchesSerial(const data::Dataset& data,
                                   const BulkLoadOptions& base,
                                   const char* dataset_name) {
    BulkLoadOptions serial = base;
    serial.exec = nullptr;
    const RTree reference = BulkLoadInMemory(data, serial);
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      common::ThreadPool pool(threads);
      const common::ExecutionContext ctx(&pool);
      BulkLoadOptions parallel = base;
      parallel.exec = &ctx;
      const RTree tree = BulkLoadInMemory(data, parallel);
      const std::string what = std::string(dataset_name) + ", " +
                               StrategyName(base.split_strategy) + ", " +
                               std::to_string(threads) + " threads vs serial";
      hdidx::testing::ExpectTreesIdentical(reference, tree, what.c_str());
    }
  }
};

TEST_P(BulkLoaderParallelTest, UniformDatasetBitIdentical) {
  const auto data = UniformData(3000, 6, 31);
  const TreeTopology topo(data.size(), 18, 5);
  BulkLoadOptions options;
  options.topology = &topo;
  options.split_strategy = GetParam();
  ExpectParallelMatchesSerial(data, options, "uniform");
}

TEST_P(BulkLoaderParallelTest, ClusteredDatasetBitIdentical) {
  const auto data = hdidx::testing::SmallClustered(4000, 8, 32);
  const TreeTopology topo(data.size(), 25, 6);
  BulkLoadOptions options;
  options.topology = &topo;
  options.split_strategy = GetParam();
  ExpectParallelMatchesSerial(data, options, "clustered");
}

TEST_P(BulkLoaderParallelTest, AllIdenticalPointsBitIdentical) {
  // Every coordinate equal: all variances are zero and every partition is
  // degenerate — the case that used to trip the external build (PR 3).
  const auto data = AllIdenticalPoints(1500, 4);
  const TreeTopology topo(data.size(), 10, 4);
  BulkLoadOptions options;
  options.topology = &topo;
  options.split_strategy = GetParam();
  ExpectParallelMatchesSerial(data, options, "all-identical");
}

TEST_P(BulkLoaderParallelTest, UpperTreeAndScaledBuildsBitIdentical) {
  // The predictor-side shapes: a scaled mini build and an upper tree with a
  // raised stop level must also be thread-count invariant.
  const auto data = hdidx::testing::SmallClustered(600, 5, 33);
  const TreeTopology topo(6000, 10, 4);
  BulkLoadOptions mini;
  mini.topology = &topo;
  mini.scale = 0.1;
  mini.split_strategy = GetParam();
  ExpectParallelMatchesSerial(data, mini, "scaled-mini");

  BulkLoadOptions upper = mini;
  upper.root_level = topo.height();
  upper.stop_level = topo.height() - 1;
  ExpectParallelMatchesSerial(data, upper, "upper-tree");
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BulkLoaderParallelTest,
                         ::testing::Values(SplitStrategy::kMaxVariance,
                                           SplitStrategy::kMaxExtent,
                                           SplitStrategy::kRoundRobin,
                                           SplitStrategy::kAdaptiveSample),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SplitStrategy::kMaxVariance:
                               return "MaxVariance";
                             case SplitStrategy::kMaxExtent:
                               return "MaxExtent";
                             case SplitStrategy::kRoundRobin:
                               return "RoundRobin";
                             case SplitStrategy::kAdaptiveSample:
                               return "AdaptiveSample";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Golden-layout regression fixtures: the exact layout digests of fixed-seed
// builds, pinned so a future refactor of either bulk loader cannot silently
// reshuffle layouts. Each pin is the TreeLayoutDigest plus an FNV-1a hash of
// order(), which the layout digest leaves out. The values hash MBR float
// bits and are tied to this toolchain's std::nth_element tie-breaking
// (libstdc++); a *deliberate* layout change must update them — the failure
// message prints the new digests.
// ---------------------------------------------------------------------------

struct GoldenBuild {
  uint64_t layout;
  uint64_t order;
};

/// FNV-1a over the permutation's values.
uint64_t OrderDigest(const RTree& tree) {
  uint64_t h = 1469598103934665603ull;
  for (const uint32_t row : tree.order()) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (row >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void ExpectGoldenBuild(const data::Dataset& data,
                       const BulkLoadOptions& serial,
                       const GoldenBuild& golden) {
  const RTree reference = BulkLoadInMemory(data, serial);
  EXPECT_EQ(TreeLayoutDigest(reference), golden.layout)
      << "serial layout changed; new digest 0x" << std::hex
      << TreeLayoutDigest(reference);
  EXPECT_EQ(OrderDigest(reference), golden.order)
      << "serial order changed; new digest 0x" << std::hex
      << OrderDigest(reference);

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool);
  BulkLoadOptions parallel = serial;
  parallel.exec = &ctx;
  const RTree tree = BulkLoadInMemory(data, parallel);
  EXPECT_EQ(TreeLayoutDigest(tree), golden.layout)
      << "parallel layout diverged; digest 0x" << std::hex
      << TreeLayoutDigest(tree);
  EXPECT_EQ(OrderDigest(tree), golden.order)
      << "parallel order diverged; digest 0x" << std::hex << OrderDigest(tree);
}

/// A full build of `data` under `topo` with `strategy`.
void ExpectGoldenFullBuild(const data::Dataset& data, const TreeTopology& topo,
                           SplitStrategy strategy, const GoldenBuild& golden) {
  BulkLoadOptions options;
  options.topology = &topo;
  options.split_strategy = strategy;
  ExpectGoldenBuild(data, options, golden);
}

TEST(BulkLoaderGoldenLayoutTest, Clustered2000x8) {
  const auto data = hdidx::testing::SmallClustered(2000, 8, 42);
  const TreeTopology topo(data.size(), 20, 5);
  ExpectGoldenFullBuild(data, topo, SplitStrategy::kMaxVariance,
                        {0x7eaca0ccb0b59c03ULL, 0x01d50e86c9f702a7ULL});
  ExpectGoldenFullBuild(data, topo, SplitStrategy::kMaxExtent,
                        {0xb941500157c680f3ULL, 0x4a3c9e9944c4372bULL});
  ExpectGoldenFullBuild(data, topo, SplitStrategy::kRoundRobin,
                        {0xeb7d971045c64818ULL, 0xd89d4fd6a26830ffULL});
}

TEST(BulkLoaderGoldenLayoutTest, Uniform3000x12) {
  const auto data = UniformData(3000, 12, 43);
  const TreeTopology topo(data.size(), 33, 16);
  ExpectGoldenFullBuild(data, topo, SplitStrategy::kMaxVariance,
                        {0xb08f52526c3c6bfcULL, 0x9607b8d43a380ad3ULL});
  ExpectGoldenFullBuild(data, topo, SplitStrategy::kMaxExtent,
                        {0xaf17b32e04d1e5c5ULL, 0xf4528a27f991bf8fULL});
  ExpectGoldenFullBuild(data, topo, SplitStrategy::kRoundRobin,
                        {0x36c73db83c62806aULL, 0x79d23179393dc1b7ULL});
}

TEST(BulkLoaderGoldenLayoutTest, LowerTreeShapedBuild) {
  // The shape of a resampled predictor's lower load: the area's points
  // built as a subtree rooted below the full tree's root, with the scale
  // set to the area's effective sampling ratio.
  const auto data = hdidx::testing::SmallClustered(1500, 10, 44);
  const TreeTopology topo(40000, 20, 5);
  ASSERT_GE(topo.height(), 4u);
  BulkLoadOptions options;
  options.topology = &topo;
  options.root_level = topo.height() - 1;
  options.scale = 0.37;
  ExpectGoldenBuild(data, options,
                    {0x3a8722c1957e0266ULL, 0xee2a030e9151c00bULL});
}

TEST(BulkLoaderTest, TinyScaleClampsToOnePointPerPage) {
  // scale so small that scaled capacity < 1: pages hold >= 1 point and the
  // build still covers everything.
  const auto data = hdidx::testing::SmallClustered(50, 3, 13);
  const TreeTopology topo(50000, 20, 5);
  BulkLoadOptions options;
  options.topology = &topo;
  options.scale = 0.001;
  const RTree tree = BulkLoadInMemory(data, options);
  hdidx::testing::ExpectValidTree(tree, data, 1);
}

}  // namespace
}  // namespace hdidx::index
