#include "index/rstar.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/knn.h"
#include "test_util.h"

namespace hdidx::index {
namespace {

RStarTree::Options SmallOptions() {
  RStarTree::Options options;
  options.max_data_entries = 16;
  options.max_dir_entries = 8;
  return options;
}

TEST(RStarTreeTest, EmptyTree) {
  const data::Dataset data(3);
  RStarTree tree(&data, SmallOptions());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, FewPointsStayInRoot) {
  const auto data = hdidx::testing::SmallClustered(10, 3, 1);
  const RStarTree tree = RStarTree::BuildByInsertion(data, SmallOptions());
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, GrowsOnOverflow) {
  const auto data = hdidx::testing::SmallClustered(17, 3, 2);
  const RStarTree tree = RStarTree::BuildByInsertion(data, SmallOptions());
  EXPECT_GE(tree.height(), 2u);
  EXPECT_GE(tree.num_leaves(), 2u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, InvariantsAtScale) {
  const auto data = hdidx::testing::SmallClustered(5000, 6, 3);
  const RStarTree tree = RStarTree::BuildByInsertion(data, SmallOptions());
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_TRUE(tree.CheckInvariants());
  // Heights stay logarithmic: 5000/16 = 313 leaves, fanout >= ~3.2
  // effective -> height well under 10.
  EXPECT_LE(tree.height(), 8u);
  EXPECT_GE(tree.num_leaves(), 5000u / 16);
}

TEST(RStarTreeTest, SnapshotIsValidTree) {
  const auto data = hdidx::testing::SmallClustered(2000, 5, 4);
  const RStarTree dynamic = RStarTree::BuildByInsertion(data, SmallOptions());
  const RTree tree = dynamic.ToRTree();
  hdidx::testing::ExpectValidTree(tree, data, 1);
  EXPECT_EQ(tree.num_leaves(), dynamic.num_leaves());
}

TEST(RStarTreeTest, SnapshotKnnMatchesExactScan) {
  const auto data = hdidx::testing::SmallClustered(3000, 4, 5);
  const RTree tree =
      RStarTree::BuildByInsertion(data, SmallOptions()).ToRTree();
  common::Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto result = TreeKnnSearch(tree, data, query, 5);
    const double exact = ExactKthDistanceExcludingRow(data, query, 5,
                                                      data.size());
    EXPECT_NEAR(result.kth_distance, exact, 1e-9);
  }
}

TEST(RStarTreeTest, LeafOccupancyAboveMinFill) {
  // R* guarantees pages stay above the min-fill fraction (except the root).
  const auto data = hdidx::testing::SmallClustered(4000, 4, 7);
  const RStarTree::Options options = SmallOptions();
  const RTree tree = RStarTree::BuildByInsertion(data, options).ToRTree();
  const auto min_fill = static_cast<uint32_t>(
      options.min_fill * static_cast<double>(options.max_data_entries));
  for (uint32_t id : tree.leaf_ids()) {
    if (id == tree.root()) continue;
    EXPECT_GE(tree.node(id).count + 1, min_fill) << "leaf " << id;
  }
}

TEST(RStarTreeTest, BetterPackedThanWorstCase) {
  // Average leaf occupancy lands in the usual R* band (>55%).
  const auto data = hdidx::testing::SmallClustered(6000, 4, 8);
  const RStarTree tree = RStarTree::BuildByInsertion(data, SmallOptions());
  const double avg_occupancy =
      static_cast<double>(tree.size()) /
      (static_cast<double>(tree.num_leaves()) * 16.0);
  EXPECT_GT(avg_occupancy, 0.55);
  EXPECT_LE(avg_occupancy, 1.0);
}

TEST(RStarTreeTest, InsertionOrderChangesLayoutNotContents) {
  const auto data = hdidx::testing::SmallClustered(800, 3, 9);
  // Reversed insertion order.
  std::vector<size_t> reversed(data.size());
  for (size_t i = 0; i < data.size(); ++i) reversed[i] = data.size() - 1 - i;
  const data::Dataset backwards = data.Select(reversed);

  const RTree a = RStarTree::BuildByInsertion(data, SmallOptions()).ToRTree();
  const RTree b =
      RStarTree::BuildByInsertion(backwards, SmallOptions()).ToRTree();
  // Same point population, (possibly) different page layout; both valid.
  hdidx::testing::ExpectValidTree(a, data, 1);
  hdidx::testing::ExpectValidTree(b, backwards, 1);
}

TEST(RStarTreeTest, DuplicatePointsHandled) {
  data::Dataset data(2);
  for (int i = 0; i < 200; ++i) {
    data.Append(std::vector<float>{1.0f, 2.0f});
  }
  const RStarTree tree = RStarTree::BuildByInsertion(data, SmallOptions());
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace hdidx::index
