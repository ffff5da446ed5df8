#include "core/cost_model.h"

#include <cmath>
#include <algorithm>

#include "common/random.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "io/paged_file.h"
#include "test_util.h"
#include "workload/query_workload.h"

namespace hdidx::core {
namespace {

CostModelInputs PaperScaleInputs() {
  CostModelInputs in;
  in.num_points = 1000000;
  in.dim = 60;
  in.memory_points = 10000;
  in.num_query_points = 500;
  return in;
}

TEST(CostModelTest, QueryPointReadCost) {
  const CostModelInputs in = PaperScaleInputs();
  const io::IoStats io = ReadQueryPointsCost(in);
  EXPECT_EQ(io.page_seeks, 500u);
  EXPECT_EQ(io.page_transfers, 500u);
  // 500 * (10ms + 0.4ms) = 5.2 s.
  EXPECT_NEAR(io.CostSeconds(in.disk), 5.2, 1e-9);
}

TEST(CostModelTest, ScanCostIsOneSequentialPass) {
  const CostModelInputs in = PaperScaleInputs();
  const io::IoStats io = ScanDatasetCost(in);
  EXPECT_EQ(io.page_seeks, 1u);
  EXPECT_EQ(io.page_transfers, (1000000 + 33) / 34);
}

TEST(CostModelTest, CutoffIsQueryPlusScan) {
  const CostModelInputs in = PaperScaleInputs();
  const io::IoStats cutoff = CutoffCost(in);
  const io::IoStats expected = ReadQueryPointsCost(in) + ScanDatasetCost(in);
  EXPECT_TRUE(cutoff == expected);
}

TEST(CostModelTest, OrderingMatchesFigure9) {
  // For every memory size: cutoff < resampled < on-disk, with the
  // on-disk/resampled gap about an order of magnitude and the
  // on-disk/cutoff gap up to two (Section 4.6).
  for (size_t m : {2500u, 10000u, 40000u, 160000u}) {
    CostModelInputs in = PaperScaleInputs();
    in.memory_points = m;
    const auto topo = in.Topology();
    const size_t h = ChooseHupper(topo, m);
    const double on_disk = OnDiskBuildCost(in).CostSeconds(in.disk);
    const double resampled = ResampledCost(in, h).CostSeconds(in.disk);
    const double cutoff = CutoffCost(in).CostSeconds(in.disk);
    EXPECT_LT(cutoff, resampled) << "M=" << m;
    EXPECT_LT(resampled, on_disk) << "M=" << m;
    EXPECT_GT(on_disk / resampled, 3.0) << "M=" << m;
    EXPECT_GT(on_disk / cutoff, 20.0) << "M=" << m;
  }
}

TEST(CostModelTest, OnDiskCostDecreasesWithMemory) {
  CostModelInputs small = PaperScaleInputs();
  small.memory_points = 2500;
  CostModelInputs large = PaperScaleInputs();
  large.memory_points = 160000;
  EXPECT_GT(OnDiskBuildCost(small).CostSeconds(small.disk),
            OnDiskBuildCost(large).CostSeconds(large.disk));
}

TEST(CostModelTest, ResamplingPassMatchesEquationFour) {
  const CostModelInputs in = PaperScaleInputs();
  const auto topo = in.Topology();
  const size_t h = 2;
  const size_t k = topo.NodesAtLevel(StopLevel(topo, h));
  const double sigma_lower = SigmaLower(topo, in.memory_points, h);
  const size_t chunks = static_cast<size_t>(
      std::ceil(1000000.0 * sigma_lower / 10000.0));
  const io::IoStats io = ResamplingPassCost(in, h);
  EXPECT_EQ(io.page_seeks, chunks * (1 + k));
}

TEST(CostModelTest, CostGrowsWithDimension) {
  // Figure 10: with M = 600000/dim, all three costs grow with d.
  double prev_cutoff = 0.0, prev_resampled = 0.0, prev_disk = 0.0;
  for (size_t d : {20u, 40u, 60u, 80u, 120u}) {
    CostModelInputs in;
    in.num_points = 1000000;
    in.dim = d;
    in.memory_points = 600000 / d;
    const auto topo = in.Topology();
    const size_t h = ChooseHupper(topo, in.memory_points);
    const double cutoff = CutoffCost(in).CostSeconds(in.disk);
    const double resampled = ResampledCost(in, h).CostSeconds(in.disk);
    const double disk = OnDiskBuildCost(in).CostSeconds(in.disk);
    EXPECT_GT(cutoff, prev_cutoff) << d;
    EXPECT_GT(disk, prev_disk) << d;
    prev_cutoff = cutoff;
    prev_resampled = std::max(prev_resampled, resampled);
    prev_disk = disk;
  }
}

TEST(CostModelTest, WholeDatasetInMemoryIsCheap) {
  CostModelInputs in = PaperScaleInputs();
  in.memory_points = in.num_points;
  const io::IoStats io = OnDiskBuildCost(in);
  // One read + one write + directory pages.
  const size_t data_pages = (in.num_points + 33) / 34;
  EXPECT_LE(io.page_transfers, 2 * data_pages + 40000);
  EXPECT_LE(io.page_seeks, 3u);
}

TEST(CostModelTest, ScanCostMatchesPagedFileCharges) {
  // Cross-model consistency: the analytic cost_ScanDataset equals what the
  // simulated disk charges for an actual sequential scan.
  common::Rng rng(1);
  const auto data = data::GenerateUniform(12345, 6, &rng);
  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  file.ChargeAccess(0, file.size());

  CostModelInputs in;
  in.num_points = data.size();
  in.dim = data.dim();
  in.memory_points = 1000;
  const io::IoStats analytic = ScanDatasetCost(in);
  EXPECT_EQ(file.stats().page_seeks, analytic.page_seeks);
  EXPECT_EQ(file.stats().page_transfers, analytic.page_transfers);
}

TEST(CostModelTest, CutoffAnalyticMatchesCutoffPredictorCharges) {
  // Equation 3 is exactly what the cutoff predictor pays (up to saved
  // seeks when adjacent query points share a page).
  const auto data = hdidx::testing::SmallClustered(20000, 8, 2);
  const index::TreeTopology topo(data.size(), 60, 8);
  common::Rng wrng(3);
  const auto workload = workload::QueryWorkload::Create(data, 25, 5, &wrng);
  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  CutoffParams params;
  params.memory_points = 2000;
  params.h_upper = 2;
  const PredictionResult result =
      PredictWithCutoffTree(&file, topo, workload, params);

  CostModelInputs in;
  in.num_points = data.size();
  in.dim = data.dim();
  in.memory_points = params.memory_points;
  in.num_query_points = workload.num_queries();
  const io::IoStats analytic = CutoffCost(in);
  EXPECT_EQ(result.io.page_transfers, analytic.page_transfers);
  EXPECT_LE(result.io.page_seeks, analytic.page_seeks);
  EXPECT_GE(result.io.page_seeks + 5, analytic.page_seeks / 2);
}

}  // namespace
}  // namespace hdidx::core
