#include <cmath>
#include <memory>

#include "common/random.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/knn.h"
#include "index/rstar.h"
#include "test_util.h"

namespace hdidx::index {
namespace {

using hdidx::testing::MeasureSphere;

RStarTree::Options XtreeOptions() {
  RStarTree::Options options;
  options.max_data_entries = 16;
  options.max_dir_entries = 6;
  options.supernode_overlap_threshold = 0.2;  // the X-tree's MAX_OVERLAP
  return options;
}

TEST(XTreeTest, InvariantsHoldWithSupernodes) {
  // High-dimensional clustered data provokes heavily overlapping directory
  // splits — the X-tree's supernode trigger.
  const auto data = hdidx::testing::SmallClustered(2500, 16, 61);
  const RStarTree tree = RStarTree::BuildByInsertion(data, XtreeOptions());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), 2500u);
}

TEST(XTreeTest, SupernodesAppearInHighDimensions) {
  const auto data = hdidx::testing::SmallClustered(2500, 16, 62);
  const RStarTree xtree = RStarTree::BuildByInsertion(data, XtreeOptions());
  EXPECT_GT(xtree.CountSupernodes(), 0u)
      << "16-d clustered data should trigger supernodes";

  // Plain R* on the same data has none.
  RStarTree::Options plain = XtreeOptions();
  plain.supernode_overlap_threshold = -1.0;
  const RStarTree rstar = RStarTree::BuildByInsertion(data, plain);
  EXPECT_EQ(rstar.CountSupernodes(), 0u);
}

TEST(XTreeTest, LowDimensionalDataRarelyNeedsSupernodes) {
  common::Rng rng(63);
  const auto data = data::GenerateUniform(2500, 2, &rng);
  const RStarTree tree = RStarTree::BuildByInsertion(data, XtreeOptions());
  // 2-d uniform splits fairly cleanly: far fewer supernodes than high-d.
  EXPECT_LE(tree.CountSupernodes(), 4u);
}

TEST(XTreeTest, SnapshotChargesSupernodePages) {
  const auto data = hdidx::testing::SmallClustered(2500, 16, 64);
  const RStarTree xtree = RStarTree::BuildByInsertion(data, XtreeOptions());
  ASSERT_GT(xtree.CountSupernodes(), 0u);
  const RTree tree = xtree.ToRTree();
  // At least one directory node spans multiple pages, and its page count
  // covers its fanout.
  size_t multi_page = 0;
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const auto& node = tree.node(id);
    if (!node.is_leaf() && node.pages > 1) {
      ++multi_page;
      EXPECT_GE(node.pages * XtreeOptions().max_dir_entries,
                node.children.size());
    }
  }
  EXPECT_EQ(multi_page, xtree.CountSupernodes());
}

TEST(XTreeTest, SearchStaysExact) {
  const auto data = hdidx::testing::SmallClustered(2000, 16, 65);
  const RTree tree =
      RStarTree::BuildByInsertion(data, XtreeOptions()).ToRTree();
  hdidx::testing::ExpectValidTree(tree, data, 1);
  common::Rng rng(66);
  for (int trial = 0; trial < 8; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto result = TreeKnnSearch(tree, data, query, 5);
    EXPECT_NEAR(result.kth_distance,
                ExactKthDistanceExcludingRow(data, query, 5,
                                             data.size()), 1e-9);
  }
}

TEST(XTreeTest, SupernodesReduceDirectoryAccesses) {
  // The X-tree's point: one wide supernode page-run beats two maximally
  // overlapping directory nodes that both match every query. Compare
  // total page accesses per query.
  const auto data = hdidx::testing::SmallClustered(2500, 16, 67);
  const RTree xtree =
      RStarTree::BuildByInsertion(data, XtreeOptions()).ToRTree();
  RStarTree::Options plain = XtreeOptions();
  plain.supernode_overlap_threshold = -1.0;
  const RTree rstar = RStarTree::BuildByInsertion(data, plain).ToRTree();

  common::Rng rng(68);
  size_t xtree_total = 0, rstar_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto rx = TreeKnnSearch(xtree, data, query, 10);
    const auto rr = TreeKnnSearch(rstar, data, query, 10);
    const auto px = MeasureSphere(xtree, query, rx.kth_distance);
    const auto pr = MeasureSphere(rstar, query, rr.kth_distance);
    xtree_total += px.leaves + px.dirs;
    rstar_total += pr.leaves + pr.dirs;
  }
  // Not a strict theorem on every dataset, but with MAX_OVERLAP = 0.2 on
  // 24-d clustered data the X-tree should not be substantially worse.
  EXPECT_LE(xtree_total, rstar_total * 5 / 4)
      << "xtree " << xtree_total << " vs rstar " << rstar_total;
}

}  // namespace
}  // namespace hdidx::index
