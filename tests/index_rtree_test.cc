#include "index/rtree.h"

#include <array>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/range_workload.h"

namespace hdidx::index {
namespace {

using hdidx::testing::MeasureSphere;

/// Hand-built 2-level tree over the unit square:
///   leaves: [0,0.4]x[0,1] and [0.6,1]x[0,1] under one root.
RTree MakeTwoLeafTree() {
  RTree tree(2);
  const uint32_t a =
      tree.AddLeaf(geometry::BoundingBox({0, 0}, {0.4f, 1}), 1, 0, 10);
  const uint32_t b =
      tree.AddLeaf(geometry::BoundingBox({0.6f, 0}, {1, 1}), 1, 10, 10);
  const uint32_t root = tree.AddDirectory(2, std::array{a, b});
  tree.SetRoot(root);
  return tree;
}

TEST(RTreeTest, ConstructionBasics) {
  const RTree tree = MakeTwoLeafTree();
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.num_leaves(), 2u);
  EXPECT_EQ(tree.root_level(), 2u);
  // Directory box is the union of children.
  const auto& root_box = tree.node(tree.root()).box;
  EXPECT_EQ(root_box.lo(), (std::vector<float>{0, 0}));
  EXPECT_EQ(root_box.hi(), (std::vector<float>{1, 1}));
}

TEST(RTreeTest, OrderedIndexIdentityWhenUnset) {
  const RTree tree = MakeTwoLeafTree();
  EXPECT_EQ(tree.OrderedIndex(5), 5u);
}

TEST(RTreeTest, OrderedIndexFollowsPermutation) {
  RTree tree = MakeTwoLeafTree();
  std::vector<uint32_t> order(20);
  for (uint32_t i = 0; i < 20; ++i) order[i] = 19 - i;
  tree.SetOrder(order);
  EXPECT_EQ(tree.OrderedIndex(0), 19u);
  EXPECT_EQ(tree.OrderedIndex(19), 0u);
}

TEST(RTreeTest, SphereAccessesBothLeaves) {
  RTree tree = MakeTwoLeafTree();
  // Sphere in the middle reaching both leaves.
  const std::vector<float> center = {0.5f, 0.5f};
  const auto count = MeasureSphere(tree, center, 0.2);
  EXPECT_EQ(count.leaves, 2u);
  EXPECT_EQ(count.dirs, 1u);
  // A leaf spanning two pages is charged both.
  tree.SetNodePages(tree.leaf_ids()[0], 2);
  EXPECT_EQ(MeasureSphere(tree, center, 0.2).leaves, 3u);
}

TEST(RTreeTest, SphereAccessesOneLeaf) {
  const RTree tree = MakeTwoLeafTree();
  const std::vector<float> center = {0.1f, 0.5f};
  const auto count = MeasureSphere(tree, center, 0.1);
  EXPECT_EQ(count.leaves, 1u);
}

TEST(RTreeTest, SphereInGapTouchesNothingButRoot) {
  const RTree tree = MakeTwoLeafTree();
  const std::vector<float> center = {0.5f, 0.5f};
  const auto count = MeasureSphere(tree, center, 0.05);
  EXPECT_EQ(count.leaves, 0u);
  EXPECT_EQ(count.dirs, 1u);  // root always read
}

TEST(RTreeTest, SphereOutsideEverythingReadsRootOnly) {
  RTree tree = MakeTwoLeafTree();
  const std::vector<float> center = {5, 5};
  const auto count = MeasureSphere(tree, center, 0.1);
  EXPECT_EQ(count.leaves, 0u);
  EXPECT_EQ(count.dirs, 1u);
  // An X-tree supernode root is charged all of its pages, and only them.
  tree.SetNodePages(tree.root(), 3);
  EXPECT_EQ(MeasureSphere(tree, center, 0.1).dirs, 3u);
}

TEST(RTreeTest, SingleLeafTreeAlwaysReadsThatPage) {
  RTree tree(2);
  const uint32_t leaf =
      tree.AddLeaf(geometry::BoundingBox({0, 0}, {1, 1}), 1, 0, 5);
  tree.SetRoot(leaf);
  const auto count = MeasureSphere(tree, std::vector<float>{9, 9}, 0.001);
  EXPECT_EQ(count.leaves, 1u);
  EXPECT_EQ(count.dirs, 0u);
  // A multi-page root leaf is read whole.
  tree.SetNodePages(leaf, 4);
  EXPECT_EQ(MeasureSphere(tree, std::vector<float>{9, 9}, 0.001).leaves, 4u);
}

/// Leaf pages the box centered at `center` with `half_extents` reads.
size_t BoxLeafAccesses(const RTree& tree, std::vector<float> center,
                       std::vector<float> half_extents) {
  data::Dataset centers(center.size());
  centers.Append(center);
  common::Rng rng(1);
  const auto box = workload::RangeWorkload::Create(
      centers, 1, std::move(half_extents), &rng);
  const auto pages = hdidx::testing::MeasureOneQuery(tree, box);
  EXPECT_EQ(pages.dirs, 1u);  // the root is always read
  return pages.leaves;
}

TEST(RTreeTest, BoxAccessCounts) {
  const RTree tree = MakeTwoLeafTree();
  EXPECT_EQ(BoxLeafAccesses(tree, {0.5f, 0.5f}, {0.5f, 0.5f}), 2u);
  EXPECT_EQ(BoxLeafAccesses(tree, {0.15f, 0.15f}, {0.15f, 0.15f}), 1u);
  EXPECT_EQ(BoxLeafAccesses(tree, {0.5f, 0.5f}, {0.05f, 0.5f}), 0u);
}

TEST(RTreeTest, TotalLeafVolume) {
  const RTree tree = MakeTwoLeafTree();
  EXPECT_NEAR(tree.TotalLeafVolume(), 0.4 + 0.4, 1e-6);
}

TEST(RTreeTest, ThreeLevelTraversalPrunes) {
  RTree tree(1);
  const uint32_t l1 = tree.AddLeaf(geometry::BoundingBox({0}, {1}), 1, 0, 2);
  const uint32_t l2 = tree.AddLeaf(geometry::BoundingBox({2}, {3}), 1, 2, 2);
  const uint32_t l3 = tree.AddLeaf(geometry::BoundingBox({8}, {9}), 1, 4, 2);
  const uint32_t d1 = tree.AddDirectory(2, std::array{l1, l2});
  const uint32_t d2 = tree.AddDirectory(2, std::array{l3});
  const uint32_t root = tree.AddDirectory(3, std::array{d1, d2});
  tree.SetRoot(root);

  // Query near the left group: must not read d2 or l3.
  const auto count = MeasureSphere(tree, std::vector<float>{1.5f}, 0.6);
  EXPECT_EQ(count.leaves, 2u);
  EXPECT_EQ(count.dirs, 2u);  // root + d1
}

}  // namespace
}  // namespace hdidx::index
