/// End-to-end integration: the full Table-3-style pipeline on a reduced
/// clustered dataset — on-disk ground truth with charged I/O, then all three
/// predictors against it, checking both the accuracy bands and the I/O-cost
/// ordering the paper reports.

#include <cmath>
#include <memory>

#include "common/random.h"
#include "common/stats.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/external_build.h"
#include "test_util.h"

namespace hdidx {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr size_t kN = 20000;
  static constexpr size_t kDim = 12;
  static constexpr size_t kQueries = 30;
  static constexpr size_t kK = 8;
  static constexpr size_t kMemory = 2500;

  void SetUp() override {
    data_ = testing::SmallClustered(kN, kDim, 101);
    topo_ = std::make_unique<index::TreeTopology>(kN, 30, 6);
    ASSERT_GE(topo_->height(), 3u);

    // Ground truth: on-disk build with charged I/O, then measured queries.
    common::Rng wrng(102);
    workload_ = std::make_unique<workload::QueryWorkload>(
        workload::QueryWorkload::Create(data_, kQueries, kK, &wrng));

    io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
    index::ExternalBuildOptions options;
    options.topology = topo_.get();
    options.memory_points = kMemory;
    auto built = index::BuildOnDisk(&file, options);
    build_io_ = built.io;

    io::IoStats query_io;
    per_query_measured_ =
        core::MeasureLeafAccesses(built.tree, *workload_, &query_io);
    measured_ = common::Mean(per_query_measured_);
    on_disk_io_ = build_io_ + query_io;
    ASSERT_GT(measured_, 0.0);
  }

  data::Dataset data_{1};
  std::unique_ptr<index::TreeTopology> topo_;
  std::unique_ptr<workload::QueryWorkload> workload_;
  std::vector<double> per_query_measured_;
  double measured_ = 0.0;
  io::IoStats build_io_;
  io::IoStats on_disk_io_;
};

TEST_F(EndToEndTest, ResampledBeatsCutoffInAccuracy) {
  io::PagedFile f1 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  core::ResampledParams rp;
  rp.memory_points = kMemory;
  rp.h_upper = core::ChooseHupper(*topo_, kMemory);
  const auto resampled =
      core::PredictWithResampledTree(&f1, *topo_, *workload_, rp);

  io::PagedFile f2 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  core::CutoffParams cp;
  cp.memory_points = kMemory;
  cp.h_upper = rp.h_upper;
  const auto cutoff =
      core::PredictWithCutoffTree(&f2, *topo_, *workload_, cp);

  const double resampled_err = std::abs(
      common::RelativeError(resampled.avg_leaf_accesses, measured_));
  const double cutoff_err =
      std::abs(common::RelativeError(cutoff.avg_leaf_accesses, measured_));
  EXPECT_LT(resampled_err, 0.3);
  // The cutoff's uniformity assumption costs accuracy on clustered data.
  EXPECT_LT(resampled_err, cutoff_err + 0.05)
      << "resampled " << resampled_err << " vs cutoff " << cutoff_err;
}

TEST_F(EndToEndTest, PredictionIoOrdersOfMagnitudeBelowOnDisk) {
  io::PagedFile f1 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  core::ResampledParams rp;
  rp.memory_points = kMemory;
  rp.h_upper = core::ChooseHupper(*topo_, kMemory);
  const auto resampled =
      core::PredictWithResampledTree(&f1, *topo_, *workload_, rp);

  io::PagedFile f2 = io::PagedFile::FromDataset(data_, io::DiskModel{});
  core::CutoffParams cp;
  cp.memory_points = kMemory;
  cp.h_upper = 2;
  const auto cutoff =
      core::PredictWithCutoffTree(&f2, *topo_, *workload_, cp);

  const io::DiskModel disk;
  const double on_disk_cost = on_disk_io_.CostSeconds(disk);
  const double resampled_cost = resampled.io.CostSeconds(disk);
  const double cutoff_cost = cutoff.io.CostSeconds(disk);
  EXPECT_LT(cutoff_cost, resampled_cost);
  EXPECT_LT(resampled_cost * 3.0, on_disk_cost)
      << "resampled " << resampled_cost << "s vs on-disk " << on_disk_cost
      << "s";
}

TEST_F(EndToEndTest, HupperSweepShapesError) {
  // Section 4.5.2: small h_upper underestimates; the chosen h_upper is
  // near the error minimum.
  std::vector<double> errors;
  for (size_t h = 2; h <= topo_->height() - 1; ++h) {
    io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
    core::ResampledParams params;
    params.memory_points = kMemory;
    params.h_upper = h;
    const auto result =
        core::PredictWithResampledTree(&file, *topo_, *workload_, params);
    errors.push_back(
        common::RelativeError(result.avg_leaf_accesses, measured_));
  }
  const size_t chosen = core::ChooseHupper(*topo_, kMemory);
  const double chosen_err = std::abs(errors[chosen - 2]);
  double min_err = chosen_err;
  for (double e : errors) min_err = std::min(min_err, std::abs(e));
  EXPECT_LT(chosen_err, min_err + 0.15)
      << "chosen h_upper is far from the error minimum";
}

TEST_F(EndToEndTest, MiniIndexUnlimitedMemoryAlsoAccurate) {
  core::MiniIndexParams params;
  params.sampling_fraction = 0.2;
  const auto result =
      core::PredictWithMiniIndex(data_, *topo_, *workload_, params);
  EXPECT_LT(std::abs(common::RelativeError(result.avg_leaf_accesses,
                                           measured_)),
            0.35);
}

TEST_F(EndToEndTest, OnDiskQueriesAreMostlyRandom) {
  // Section 5.1: seek/transfer ratio for queries is close to 1.
  io::IoStats query_io;
  // Re-measure on an in-memory tree (identical page accesses).
  index::BulkLoadOptions options;
  options.topology = topo_.get();
  const auto tree = index::BulkLoadInMemory(data_, options);
  core::MeasureLeafAccesses(tree, *workload_, &query_io);
  EXPECT_EQ(query_io.page_seeks, query_io.page_transfers);
}

}  // namespace
}  // namespace hdidx
