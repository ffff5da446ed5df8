#include "core/cutoff.h"

#include <cmath>
#include <memory>

#include "common/random.h"
#include "common/stats.h"
#include "core/hupper.h"
#include "core/predictor.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"

namespace hdidx::core {
namespace {

TEST(SynthesizeUniformLeavesTest, LeafCountMatchesBulkLoader) {
  // Splitting a box holding cap(3) points must produce exactly the number
  // of data pages the topology prescribes for that subtree.
  const index::TreeTopology topo(100000, 10, 4);
  const geometry::BoundingBox box({0, 0}, {1, 1});
  std::vector<geometry::BoundingBox> leaves;
  SynthesizeUniformLeaves(box, static_cast<double>(topo.SubtreeCapacity(3)),
                          3, topo, &leaves);
  // cap(3) = 160 points -> 16 data pages of 10.
  EXPECT_EQ(leaves.size(), 16u);
}

TEST(SynthesizeUniformLeavesTest, LeavesStayInsideInflatedRegion) {
  const index::TreeTopology topo(100000, 10, 4);
  geometry::BoundingBox box({0, 0, 0}, {2, 1, 1});
  std::vector<geometry::BoundingBox> leaves;
  SynthesizeUniformLeaves(box, 160.0, 3, topo, &leaves);
  geometry::BoundingBox region = box;
  region.InflateAboutCenter((160.0 + 1) / (160.0 - 1) + 1e-3);
  for (const auto& leaf : leaves) {
    EXPECT_TRUE(geometry::BoundingBox::Union(region, leaf) == region)
        << "leaf escapes the parent region";
  }
}

TEST(SynthesizeUniformLeavesTest, SplitsLongestDimensionFirst) {
  // An elongated box must be split along its long axis: the two halves'
  // extents along dim 0 are about half the parent's.
  const index::TreeTopology topo(40, 10, 2);  // height 3, fanout 2
  const geometry::BoundingBox box({0, 0}, {10, 1});
  std::vector<geometry::BoundingBox> leaves;
  SynthesizeUniformLeaves(box, 40.0, topo.height(), topo, &leaves);
  ASSERT_EQ(leaves.size(), 4u);
  for (const auto& leaf : leaves) {
    EXPECT_LT(leaf.Extent(0), 3.5f);  // 10/4 plus shrink slack
  }
}

TEST(SynthesizeUniformLeavesTest, LeafVolumeSumBelowRegionVolume) {
  const index::TreeTopology topo(100000, 10, 4);
  const geometry::BoundingBox box({0, 0}, {1, 1});
  std::vector<geometry::BoundingBox> leaves;
  SynthesizeUniformLeaves(box, 640.0, 4, topo, &leaves);
  double total = 0.0;
  for (const auto& leaf : leaves) total += leaf.Volume();
  // MBR shrinkage makes the tiling strictly smaller than the region.
  EXPECT_LT(total, box.Volume() * 1.05);
  EXPECT_GT(total, 0.0);
}

TEST(SynthesizeUniformLeavesTest, EmptyOrDegenerateInputsProduceNothing) {
  const index::TreeTopology topo(1000, 10, 4);
  std::vector<geometry::BoundingBox> leaves;
  SynthesizeUniformLeaves(geometry::BoundingBox(2), 100.0, 3, topo, &leaves);
  EXPECT_TRUE(leaves.empty());
  SynthesizeUniformLeaves(geometry::BoundingBox({0, 0}, {1, 1}), 0.0, 3,
                          topo, &leaves);
  EXPECT_TRUE(leaves.empty());
}

class CutoffPredictorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng gen(1);
    data_ = data::GenerateUniform(30000, 8, &gen);
    topo_ = std::make_unique<index::TreeTopology>(data_.size(), 60, 8);
    ASSERT_GE(topo_->height(), 3u);
    common::Rng wrng(2);
    workload_ = std::make_unique<workload::QueryWorkload>(
        workload::QueryWorkload::Create(data_, 40, 10, &wrng));

    index::BulkLoadOptions options;
    options.topology = topo_.get();
    const index::RTree tree = index::BulkLoadInMemory(data_, options);
    measured_ =
        common::Mean(core::MeasureLeafAccesses(tree, *workload_, nullptr));
  }

  data::Dataset data_{1};
  std::unique_ptr<index::TreeTopology> topo_;
  std::unique_ptr<workload::QueryWorkload> workload_;
  double measured_ = 0.0;
};

TEST_F(CutoffPredictorTest, AccurateOnUniformData) {
  // Section 5.2: on uniform data the cutoff errors were -0.5%..-3%. Allow a
  // wider band for our smaller setup.
  io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
  CutoffParams params;
  params.memory_points = 3000;
  params.h_upper = ChooseHupper(*topo_, params.memory_points);
  const PredictionResult result =
      PredictWithCutoffTree(&file, *topo_, *workload_, params);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured_);
  EXPECT_LT(std::abs(rel), 0.2) << "relative error " << rel;
}

TEST_F(CutoffPredictorTest, PredictedLeafCountTracksTopology) {
  io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
  CutoffParams params;
  params.memory_points = 3000;
  params.h_upper = 2;
  const PredictionResult result =
      PredictWithCutoffTree(&file, *topo_, *workload_, params);
  EXPECT_NEAR(static_cast<double>(result.num_predicted_leaves),
              static_cast<double>(topo_->NumLeaves()),
              0.1 * static_cast<double>(topo_->NumLeaves()));
}

TEST_F(CutoffPredictorTest, IoCostIsEquationThree) {
  // cost_Cutoff = q random reads + one scan, independent of h_upper.
  io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
  CutoffParams params;
  params.memory_points = 3000;
  params.h_upper = 2;
  const PredictionResult r2 =
      PredictWithCutoffTree(&file, *topo_, *workload_, params);
  const size_t scan_pages = file.num_pages();
  EXPECT_EQ(r2.io.page_transfers,
            workload_->num_queries() + scan_pages);
  EXPECT_LE(r2.io.page_seeks, workload_->num_queries() + 1);

  params.h_upper = 3;
  io::PagedFile file2 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  const PredictionResult r3 =
      PredictWithCutoffTree(&file2, *topo_, *workload_, params);
  EXPECT_EQ(r2.io.page_transfers, r3.io.page_transfers);
}

TEST_F(CutoffPredictorTest, DeterministicForSeed) {
  CutoffParams params;
  params.memory_points = 2000;
  params.h_upper = 2;
  params.seed = 77;
  io::PagedFile f1 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  io::PagedFile f2 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  const auto a = PredictWithCutoffTree(&f1, *topo_, *workload_, params);
  const auto b = PredictWithCutoffTree(&f2, *topo_, *workload_, params);
  EXPECT_EQ(a.avg_leaf_accesses, b.avg_leaf_accesses);
  EXPECT_EQ(a.per_query_accesses, b.per_query_accesses);
}

}  // namespace
}  // namespace hdidx::core
