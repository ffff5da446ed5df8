#include "core/hupper.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "io/disk_model.h"

namespace hdidx::core {
namespace {

index::TreeTopology Texture60Topology() {
  return index::TreeTopology::FromDisk(275465, 60, io::DiskModel{});
}

TEST(HupperTest, StopLevelArithmetic) {
  const auto topo = Texture60Topology();
  ASSERT_EQ(topo.height(), 5u);
  EXPECT_EQ(StopLevel(topo, 1), 5u);
  EXPECT_EQ(StopLevel(topo, 2), 4u);
  EXPECT_EQ(StopLevel(topo, 5), 1u);
}

TEST(HupperTest, SigmaUpperMatchesPaper) {
  const auto topo = Texture60Topology();
  // Paper Table 3: sigma_upper = 0.0363 for M = 10,000.
  EXPECT_NEAR(SigmaUpper(topo, 10000), 0.0363, 0.0001);
  EXPECT_DOUBLE_EQ(SigmaUpper(topo, 10000000), 1.0);
}

TEST(HupperTest, SigmaLowerMatchesPaperTable3) {
  const auto topo = Texture60Topology();
  // h_upper = 2: k = 3 upper leaves -> sigma_lower = 0.1089.
  EXPECT_NEAR(SigmaLower(topo, 10000, 2), 0.1089, 0.0005);
  // h_upper = 3: k = 33 -> saturates at 1.
  EXPECT_DOUBLE_EQ(SigmaLower(topo, 10000, 3), 1.0);
  // h_upper = 4 saturates too.
  EXPECT_DOUBLE_EQ(SigmaLower(topo, 10000, 4), 1.0);
}

TEST(HupperTest, SigmaLowerAtLeastSigmaUpper) {
  const auto topo = Texture60Topology();
  for (size_t h = 2; h < topo.height(); ++h) {
    EXPECT_GE(SigmaLower(topo, 10000, h), SigmaUpper(topo, 10000));
  }
}

TEST(HupperTest, ChooseHupperPicksPaperValue) {
  const auto topo = Texture60Topology();
  // pts(stop) closest to M = 10,000: stop level 3 has ~8,348 points per
  // subtree; stop 4 has ~91,800. The paper's best h_upper is 3.
  EXPECT_EQ(ChooseHupper(topo, 10000), 3u);
}

TEST(HupperTest, ChooseHupperSmallMemory) {
  const auto topo = Texture60Topology();
  // M = 1,000: pts(stop) ~ 528-ish is closest -> stop level 2, h_upper 4
  // (the paper's M=1,000 diagrams use h_upper = 4).
  EXPECT_EQ(ChooseHupper(topo, 1000), 4u);
}

TEST(HupperTest, BoundsWithinValidRange) {
  // Whatever the memory, the choice lies in the structural range
  // [2, height - 1]; above 2 its upper-tree leaves keep >= 1.5 sample
  // points on average.
  const auto topo = Texture60Topology();
  for (const size_t memory : {size_t{1}, size_t{100}, size_t{1000},
                              size_t{10000}, size_t{100000},
                              topo.num_points(), 10 * topo.num_points()}) {
    const size_t h = ChooseHupper(topo, memory);
    EXPECT_GE(h, 2u) << memory;
    EXPECT_LE(h, topo.height() - 1) << memory;
    if (h > 2) {
      const double sample =
          static_cast<double>(std::min(memory, topo.num_points()));
      EXPECT_GE(sample / static_cast<double>(
                             topo.NodesAtLevel(StopLevel(topo, h))),
                1.5)
          << memory;
    }
  }
}

TEST(HupperTest, DegenerateShortTree) {
  const index::TreeTopology flat(100, 50, 4);  // height 2
  ASSERT_EQ(flat.height(), 2u);
  EXPECT_EQ(ChooseHupper(flat, 10), 2u);
}

}  // namespace
}  // namespace hdidx::core
