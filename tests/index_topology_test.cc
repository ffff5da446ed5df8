#include "index/topology.h"

#include "gtest/gtest.h"
#include "io/disk_model.h"

namespace hdidx::index {
namespace {

TEST(TopologyTest, SinglePageTree) {
  const TreeTopology t(10, 33, 16);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.NumLeaves(), 1u);
  EXPECT_DOUBLE_EQ(t.PointsPerSubtree(1), 10.0);
}

TEST(TopologyTest, HeightGrowsLogarithmically) {
  EXPECT_EQ(TreeTopology(33, 33, 16).height(), 1u);
  EXPECT_EQ(TreeTopology(34, 33, 16).height(), 2u);
  EXPECT_EQ(TreeTopology(33 * 16, 33, 16).height(), 2u);
  EXPECT_EQ(TreeTopology(33 * 16 + 1, 33, 16).height(), 3u);
}

TEST(TopologyTest, Texture60MatchesPaperSetting) {
  // TEXTURE60: 275,465 60-d points, 8 KB pages. The paper reports tree
  // height 5 and sigma_upper = 10,000/275,465 = 0.0363 for M = 10,000.
  const io::DiskModel disk;
  const TreeTopology t = TreeTopology::FromDisk(275465, 60, disk);
  EXPECT_EQ(t.data_capacity(), 33u);  // 8192 / 244
  EXPECT_EQ(t.dir_capacity(), 16u);   // 8192 / 484
  EXPECT_EQ(t.height(), 5u);
  // k for h_upper=2 is NodesAtLevel(4) = 3 (paper: sigma_lower = 0.1089 =
  // 3*10000/275465).
  EXPECT_EQ(t.NodesAtLevel(4), 3u);
  EXPECT_EQ(t.NodesAtLevel(3), 33u);
  // Leaf count in the thousands, close to the paper's 8,641.
  EXPECT_NEAR(static_cast<double>(t.NumLeaves()), 8641.0, 400.0);
}

TEST(TopologyTest, SubtreeCapacityMultiplies) {
  const TreeTopology t(100000, 33, 16);
  EXPECT_EQ(t.SubtreeCapacity(1), 33u);
  EXPECT_EQ(t.SubtreeCapacity(2), 33u * 16);
  EXPECT_EQ(t.SubtreeCapacity(3), 33u * 16 * 16);
}

TEST(TopologyTest, NodesAtLevelAreCeilings) {
  const TreeTopology t(1000, 10, 4);
  // height: cap(1)=10, cap(2)=40, cap(3)=160, cap(4)=640, cap(5)=2560.
  EXPECT_EQ(t.height(), 5u);
  EXPECT_EQ(t.NodesAtLevel(1), 100u);
  EXPECT_EQ(t.NodesAtLevel(2), 25u);
  EXPECT_EQ(t.NodesAtLevel(3), 7u);
  EXPECT_EQ(t.NodesAtLevel(4), 2u);
  EXPECT_EQ(t.NodesAtLevel(5), 1u);
}

TEST(TopologyTest, PtsFunctionEndpoints) {
  // pts(height) = N and pts(1) = C_eff,data (paper Section 4.2).
  const TreeTopology t(1000, 10, 4);
  EXPECT_DOUBLE_EQ(t.PointsPerSubtree(t.height()), 1000.0);
  EXPECT_DOUBLE_EQ(t.PointsPerSubtree(1), 10.0);
}

TEST(TopologyTest, EffectiveDirCapacityBounded) {
  const TreeTopology t(100000, 33, 16);
  const double eff = t.EffectiveDirCapacity();
  EXPECT_GT(eff, 1.0);
  EXPECT_LE(eff, 16.0);
}

TEST(TopologyTest, FanoutForRoundsUp) {
  const TreeTopology t(1000, 10, 4);
  EXPECT_EQ(t.FanoutFor(2, 40), 4u);
  EXPECT_EQ(t.FanoutFor(2, 41), 5u);
  EXPECT_EQ(t.FanoutFor(2, 1), 1u);
  EXPECT_EQ(t.FanoutFor(5, 1000), 2u);  // 1000 / 640
}

TEST(TopologyTest, FromDiskClampsTinyPages) {
  io::DiskModel disk;
  disk.page_bytes = 64;  // too small for any realistic point
  const TreeTopology t = TreeTopology::FromDisk(100, 100, disk);
  EXPECT_GE(t.data_capacity(), 1u);
  EXPECT_GE(t.dir_capacity(), 2u);
}

TEST(TopologyTest, ConsistencyAcrossLevels) {
  // Parent node count times dir capacity must cover child node count.
  const TreeTopology t(275465, 33, 16);
  for (size_t level = 2; level <= t.height(); ++level) {
    EXPECT_LE(t.NodesAtLevel(level - 1),
              t.NodesAtLevel(level) * t.dir_capacity());
    EXPECT_LE(t.NodesAtLevel(level), t.NodesAtLevel(level - 1));
  }
}

}  // namespace
}  // namespace hdidx::index
