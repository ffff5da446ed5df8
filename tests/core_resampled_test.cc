#include "core/resampled.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/predictor.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "test_util.h"

namespace hdidx::core {
namespace {

class ResampledPredictorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = hdidx::testing::SmallClustered(30000, 8, 5);
    topo_ = std::make_unique<index::TreeTopology>(data_.size(), 60, 8);
    ASSERT_GE(topo_->height(), 3u);
    common::Rng wrng(6);
    workload_ = std::make_unique<workload::QueryWorkload>(
        workload::QueryWorkload::Create(data_, 40, 10, &wrng));

    index::BulkLoadOptions options;
    options.topology = topo_.get();
    const index::RTree tree = index::BulkLoadInMemory(data_, options);
    per_query_measured_ = core::MeasureLeafAccesses(tree, *workload_, nullptr);
    measured_ = common::Mean(per_query_measured_);
  }

  PredictionResult Predict(size_t memory_points, size_t h_upper,
                           uint64_t seed = 9) {
    io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
    ResampledParams params;
    params.memory_points = memory_points;
    params.h_upper = h_upper;
    params.seed = seed;
    return PredictWithResampledTree(&file, *topo_, *workload_, params);
  }

  data::Dataset data_{1};
  std::unique_ptr<index::TreeTopology> topo_;
  std::unique_ptr<workload::QueryWorkload> workload_;
  std::vector<double> per_query_measured_;
  double measured_ = 0.0;
};

TEST_F(ResampledPredictorTest, AccurateAtChosenHupper) {
  const size_t h = ChooseHupper(*topo_, 3000);
  const PredictionResult result = Predict(3000, h);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured_);
  // Paper: <5% at the sweet spot on real data; allow more on the small
  // clustered testbed.
  EXPECT_LT(std::abs(rel), 0.25) << "relative error " << rel;
}

TEST_F(ResampledPredictorTest, PerQueryCorrelationHigh) {
  // Figures 11-12: per-query predictions correlate with measurements.
  const size_t h = ChooseHupper(*topo_, 3000);
  const PredictionResult result = Predict(3000, h);
  const double r = common::PearsonCorrelation(result.per_query_accesses,
                                              per_query_measured_);
  EXPECT_GT(r, 0.7) << "correlation " << r;
}

TEST_F(ResampledPredictorTest, SigmaLowerSaturatesForTallUpperTree) {
  const PredictionResult result = Predict(3000, topo_->height() - 1);
  EXPECT_DOUBLE_EQ(result.sigma_lower,
                   SigmaLower(*topo_, 3000, topo_->height() - 1));
}

TEST_F(ResampledPredictorTest, MoreIoThanCutoffLessThanFullScanSquared) {
  io::PagedFile file = io::PagedFile::FromDataset(data_, io::DiskModel{});
  CutoffParams cutoff_params;
  cutoff_params.memory_points = 3000;
  cutoff_params.h_upper = 2;
  const PredictionResult cutoff =
      PredictWithCutoffTree(&file, *topo_, *workload_, cutoff_params);
  const PredictionResult resampled = Predict(3000, 2);
  EXPECT_GT(resampled.io.page_transfers, cutoff.io.page_transfers);
  // The resampling pass adds at most ~2 extra dataset scans worth of
  // transfers at sigma_lower <= 1.
  EXPECT_LT(resampled.io.page_transfers, 4 * cutoff.io.page_transfers + 100);
}

TEST_F(ResampledPredictorTest, DeterministicForSeed) {
  const PredictionResult a = Predict(2000, 2, 3);
  const PredictionResult b = Predict(2000, 2, 3);
  EXPECT_EQ(a.avg_leaf_accesses, b.avg_leaf_accesses);
  EXPECT_TRUE(a.io == b.io);
}

TEST_F(ResampledPredictorTest, PredictedLeafCountTracksTopology) {
  const size_t h = ChooseHupper(*topo_, 3000);
  const PredictionResult result = Predict(3000, h);
  EXPECT_NEAR(static_cast<double>(result.num_predicted_leaves),
              static_cast<double>(topo_->NumLeaves()),
              0.12 * static_cast<double>(topo_->NumLeaves()));
}

TEST_F(ResampledPredictorTest, MemoryAsLargeAsDataIsNearExact) {
  // With M = N, sigma_upper = sigma_lower = 1: the prediction replays the
  // real index construction.
  const size_t h = ChooseHupper(*topo_, data_.size());
  const PredictionResult result = Predict(data_.size(), h);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured_);
  EXPECT_LT(std::abs(rel), 0.1) << "relative error " << rel;
}

/// FNV-1a over the bit patterns of `values`: pins a vector of doubles
/// bit for bit in one constant.
uint64_t BitsDigest(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct PinnedPrediction {
  double sigma_lower;
  double avg_leaf_accesses;
  uint64_t per_query_digest;
  size_t num_predicted_leaves;
  uint64_t page_seeks;
  uint64_t page_transfers;
};

void ExpectPinned(const PredictionResult& result,
                  const PinnedPrediction& pinned, const std::string& what) {
  EXPECT_EQ(result.sigma_lower, pinned.sigma_lower) << what;
  EXPECT_EQ(result.avg_leaf_accesses, pinned.avg_leaf_accesses) << what;
  EXPECT_EQ(BitsDigest(result.per_query_accesses), pinned.per_query_digest)
      << what;
  EXPECT_EQ(result.num_predicted_leaves, pinned.num_predicted_leaves)
      << what;
  EXPECT_EQ(result.io.page_seeks, pinned.page_seeks) << what;
  EXPECT_EQ(result.io.page_transfers, pinned.page_transfers) << what;
}

TEST_F(ResampledPredictorTest, ViewAndCopyMatchPinnedBits) {
  // Both predictors on a borrowed view and on an owned copy of the same
  // data, against bits pinned from the resample pass that wrote the k·M·d
  // area file. On this testbed (k = 8 upper leaves at h = 2, 63 at h = 3):
  //   M=1000 h=2: sigma_lower = 4/15 < 1, five areas overflow M;
  //   M=3000 h=2: sigma_lower = 0.8, six areas overflow M;
  //   M=2000 h=3: sigma_lower saturates at 1, and one area fills up partway
  //               through a chunk, keeping 89 of that chunk's 129 points;
  //   M=5000 h=3: sigma_lower = 1, no area overflows.
  // An area keeps the first M points in resample order (footnote 5): any
  // other choice changes the lower trees and these bits.
  struct Case {
    size_t memory;
    size_t h_upper;
    PinnedPrediction resampled;
    PinnedPrediction cutoff;
  };
  const Case cases[] = {
      {1000, 2,
       {0x1.1111111111111p-2, 0x1.e19999999999ap+3, 0xc35f920a1097a1e0ull,
        506, 120, 411},
       {1.0, 0x1.38ccccccccccdp+3, 0xcdb863bff3723a03ull, 500, 41, 158}},
      {3000, 2,
       {0x1.999999999999ap-1, 0x1.3733333333333p+4, 0xc40580be0217c565ull,
        508, 121, 535},
       {1.0, 0x1.9666666666666p+3, 0x2be460c8084e6946ull, 500, 41, 158}},
      {2000, 3,
       {1.0, 0x1.6733333333333p+4, 0x9bae2bae079d85fdull, 466, 975, 1437},
       {1.0, 0x1.4cp+3, 0x819d51bb986e8206ull, 500, 41, 158}},
      {5000, 3,
       {1.0, 0x1.639999999999ap+4, 0x9be511f1cc2336ecull, 500, 487, 956},
       {1.0, 0x1.40ccccccccccdp+3, 0xc4d06166b65e2e4eull, 500, 41, 158}},
  };
  for (const Case& c : cases) {
    for (const bool view : {true, false}) {
      const std::string what = "M=" + std::to_string(c.memory) +
                               " h=" + std::to_string(c.h_upper) +
                               (view ? " view" : " copy");
      io::PagedFile file =
          view ? io::PagedFile::View(data_, io::DiskModel{})
               : io::PagedFile::FromDataset(data_, io::DiskModel{});
      ResampledParams params;
      params.memory_points = c.memory;
      params.h_upper = c.h_upper;
      params.seed = 9;
      ExpectPinned(PredictWithResampledTree(&file, *topo_, *workload_, params),
                   c.resampled, what + " resampled");

      CutoffParams cutoff_params;
      cutoff_params.memory_points = c.memory;
      cutoff_params.h_upper = c.h_upper;
      cutoff_params.seed = 9;
      ExpectPinned(
          PredictWithCutoffTree(&file, *topo_, *workload_, cutoff_params),
          c.cutoff, what + " cutoff");
    }
  }
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(ResampledMemoryTest, DatasetSizedBudgetStaysBounded) {
  // memory = N on 6,000 60-d points under 4 KB pages (16 points per data
  // page, fanout 8) with h_upper = 3: about 47 upper leaves, so the k·M·d
  // area file alone would be ~68 MB. Only its page accounting is kept, and
  // each area is gathered into one buffer of at most M points, so the
  // request's peak resident set grows by about 2 MB (about 12 MB under
  // TSan, whose shadow memory has a fixed start-up share).
  const auto data = hdidx::testing::SmallClustered(6000, 60, 11);
  io::DiskModel disk;
  disk.page_bytes = 4096;
  const auto topo = index::TreeTopology::FromDisk(data.size(), 60, disk);
  ASSERT_EQ(topo.height(), 4u);
  common::ThreadPool pool(1);
  const common::ExecutionContext ctx(&pool);
  common::Rng wrng(12);
  const auto workload =
      workload::QueryWorkload::Create(data, 10, 5, &wrng, ctx);
  io::PagedFile file = io::PagedFile::View(data, disk);
  ResampledParams params;
  params.memory_points = data.size();
  params.h_upper = 3;
  const long before_kb = PeakRssKb();
  const PredictionResult result =
      PredictWithResampledTree(&file, topo, workload, params, ctx);
  EXPECT_LT(PeakRssKb() - before_kb, 16 * 1024);
  EXPECT_EQ(result.sigma_lower, 1.0);
  EXPECT_GT(result.avg_leaf_accesses, 0.0);
}

TEST(ResampledUniformTest, UniformDataValidation) {
  // Section 5.2: 8-d uniform data, resampled errors were -0.5%..-3%.
  common::Rng gen(7);
  const auto data = data::GenerateUniform(30000, 8, &gen);
  const index::TreeTopology topo(data.size(), 60, 8);
  common::Rng wrng(8);
  const auto workload = workload::QueryWorkload::Create(data, 40, 10, &wrng);

  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  const double measured =
      common::Mean(core::MeasureLeafAccesses(tree, workload, nullptr));

  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  ResampledParams params;
  params.memory_points = 3000;
  params.h_upper = ChooseHupper(topo, 3000);
  const PredictionResult result =
      PredictWithResampledTree(&file, topo, workload, params);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured);
  EXPECT_LT(std::abs(rel), 0.12) << "relative error " << rel;
}

}  // namespace
}  // namespace hdidx::core
