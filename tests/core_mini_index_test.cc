#include "core/mini_index.h"

#include <cmath>

#include "common/random.h"
#include "common/stats.h"
#include "core/predictor.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "test_util.h"

namespace hdidx::core {
namespace {

/// Measured average leaf accesses on the fully built index.
double MeasureAverage(const data::Dataset& data,
                      const index::TreeTopology& topo,
                      const workload::QueryWorkload& workload) {
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  const auto counts = core::MeasureLeafAccesses(tree, workload, nullptr);
  return common::Mean(counts);
}

class MiniIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng gen(1);
    data_ = data::GenerateUniform(20000, 8, &gen);
    topo_ = std::make_unique<index::TreeTopology>(data_.size(), 80, 10);
    common::Rng wrng(2);
    workload_ = std::make_unique<workload::QueryWorkload>(
        workload::QueryWorkload::Create(data_, 60, 10, &wrng));
    measured_ = MeasureAverage(data_, *topo_, *workload_);
  }

  data::Dataset data_{1};
  std::unique_ptr<index::TreeTopology> topo_;
  std::unique_ptr<workload::QueryWorkload> workload_;
  double measured_ = 0.0;
};

TEST_F(MiniIndexTest, FullSampleReproducesMeasurementExactly) {
  MiniIndexParams params;
  params.sampling_fraction = 1.0;
  const PredictionResult result =
      PredictWithMiniIndex(data_, *topo_, *workload_, params);
  EXPECT_NEAR(result.avg_leaf_accesses, measured_, 1e-9);
  EXPECT_EQ(result.num_predicted_leaves, topo_->NumLeaves());
}

TEST_F(MiniIndexTest, CompensatedPredictionAccurateOnUniformData) {
  MiniIndexParams params;
  params.sampling_fraction = 0.2;
  params.compensate = true;
  const PredictionResult result =
      PredictWithMiniIndex(data_, *topo_, *workload_, params);
  const double rel = common::RelativeError(result.avg_leaf_accesses, measured_);
  EXPECT_LT(std::abs(rel), 0.15) << "relative error " << rel;
}

TEST_F(MiniIndexTest, UncompensatedUnderestimates) {
  MiniIndexParams compensated, plain;
  compensated.sampling_fraction = plain.sampling_fraction = 0.1;
  plain.compensate = false;
  const double with_comp =
      PredictWithMiniIndex(data_, *topo_, *workload_, compensated)
          .avg_leaf_accesses;
  const double without_comp =
      PredictWithMiniIndex(data_, *topo_, *workload_, plain)
          .avg_leaf_accesses;
  // Shrunken pages intersect fewer spheres (Figure 2's lower curve).
  EXPECT_LT(without_comp, with_comp);
  EXPECT_LT(without_comp, measured_);
}

TEST_F(MiniIndexTest, ErrorShrinksWithSampleSize) {
  // Figure 2: average |relative error| decreases as the sample grows.
  auto abs_error = [&](double fraction) {
    MiniIndexParams params;
    params.sampling_fraction = fraction;
    double total = 0.0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      params.seed = seed;
      total += std::abs(common::RelativeError(
          PredictWithMiniIndex(data_, *topo_, *workload_, params)
              .avg_leaf_accesses,
          measured_));
    }
    return total / 3.0;
  };
  EXPECT_LT(abs_error(0.5), abs_error(0.02) + 0.02);
}

TEST_F(MiniIndexTest, StructuralSimilarityOfLeafCount) {
  MiniIndexParams params;
  params.sampling_fraction = 0.1;
  const auto leaves = BuildGrownMiniIndexLeaves(data_, *topo_, params);
  // Within a few leaves of the full index's count.
  EXPECT_NEAR(static_cast<double>(leaves.size()),
              static_cast<double>(topo_->NumLeaves()),
              0.05 * static_cast<double>(topo_->NumLeaves()));
}

TEST_F(MiniIndexTest, IoIsZeroForInMemoryModel) {
  MiniIndexParams params;
  params.sampling_fraction = 0.1;
  const PredictionResult result =
      PredictWithMiniIndex(data_, *topo_, *workload_, params);
  EXPECT_EQ(result.io.page_seeks, 0u);
  EXPECT_EQ(result.io.page_transfers, 0u);
}

TEST_F(MiniIndexTest, AdaptiveBuiltTreePredictedWithinFivePercent) {
  // The predictor must model kAdaptiveSample layouts too: measure leaf
  // accesses on a full adaptive-built index, predict with a mini-index
  // built by the same strategy, and require < 5% average error across
  // sample seeds (the issue's acceptance bar for the new layout).
  index::BulkLoadOptions options;
  options.topology = topo_.get();
  options.split_strategy = index::SplitStrategy::kAdaptiveSample;
  const index::RTree tree = index::BulkLoadInMemory(data_, options);
  const auto counts = core::MeasureLeafAccesses(tree, *workload_, nullptr);
  const double measured = common::Mean(counts);

  MiniIndexParams params;
  params.split_strategy = index::SplitStrategy::kAdaptiveSample;
  params.sampling_fraction = 0.5;
  double total_rel = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    params.seed = seed;
    total_rel += std::abs(common::RelativeError(
        PredictWithMiniIndex(data_, *topo_, *workload_, params)
            .avg_leaf_accesses,
        measured));
  }
  EXPECT_LT(total_rel / 3.0, 0.05);
}

TEST_F(MiniIndexTest, AdaptiveFullSampleReproducesMeasurementExactly) {
  // zeta = 1 must degenerate to the measurement itself, exactly as for
  // VAMSplit — pins that the mini build really runs the adaptive pipeline
  // (same split planes from the same full "sample").
  index::BulkLoadOptions options;
  options.topology = topo_.get();
  options.split_strategy = index::SplitStrategy::kAdaptiveSample;
  const index::RTree tree = index::BulkLoadInMemory(data_, options);
  const auto counts = core::MeasureLeafAccesses(tree, *workload_, nullptr);
  const double measured = common::Mean(counts);

  MiniIndexParams params;
  params.split_strategy = index::SplitStrategy::kAdaptiveSample;
  params.sampling_fraction = 1.0;
  const PredictionResult result =
      PredictWithMiniIndex(data_, *topo_, *workload_, params);
  EXPECT_NEAR(result.avg_leaf_accesses, measured, 1e-9);
}

TEST(MiniIndexClusteredTest, WorksOnClusteredData) {
  const auto data = hdidx::testing::SmallClustered(15000, 6, 3);
  const index::TreeTopology topo(data.size(), 60, 8);
  common::Rng wrng(4);
  const auto workload = workload::QueryWorkload::Create(data, 50, 8, &wrng);
  const double measured = MeasureAverage(data, topo, workload);

  MiniIndexParams params;
  params.sampling_fraction = 0.25;
  const PredictionResult result =
      PredictWithMiniIndex(data, topo, workload, params);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured);
  // Clustered data is harder than uniform; generous band.
  EXPECT_LT(std::abs(rel), 0.35) << "relative error " << rel;
}

}  // namespace
}  // namespace hdidx::core
