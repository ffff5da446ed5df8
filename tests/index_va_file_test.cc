#include "index/va_file.h"

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

TEST(VaFileTest, QuantizeRespectsBoundaries) {
  data::Dataset data(1);
  for (int i = 0; i < 256; ++i) {
    data.Append(std::vector<float>{static_cast<float>(i)});
  }
  VaFile::Options options;
  options.bits = 2;  // 4 slices of 64 points
  const VaFile va(&data, options);
  EXPECT_EQ(va.Quantize(0, 0.0f), 0u);
  EXPECT_EQ(va.Quantize(0, 63.0f), 0u);
  EXPECT_EQ(va.Quantize(0, 64.0f), 1u);
  EXPECT_EQ(va.Quantize(0, 255.0f), 3u);
  // Out-of-range values clamp to the edge slices.
  EXPECT_EQ(va.Quantize(0, -100.0f), 0u);
  EXPECT_EQ(va.Quantize(0, 1e6f), 3u);
}

TEST(VaFileTest, BoundsBracketTrueDistance) {
  const auto data = hdidx::testing::SmallClustered(2000, 6, 1);
  VaFile::Options options;
  options.bits = 4;
  const VaFile va(&data, options);
  common::Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t q = rng.NextBounded(data.size());
    const size_t p = rng.NextBounded(data.size());
    const double exact = geometry::SquaredL2(data.row(q), data.row(p));
    EXPECT_LE(va.LowerBoundSq(data.row(q), p), exact + 1e-9);
    EXPECT_GE(va.UpperBoundSq(data.row(q), p), exact - 1e-9);
  }
}

TEST(VaFileTest, SearchIsExact) {
  const auto data = hdidx::testing::SmallClustered(3000, 8, 3);
  VaFile::Options options;
  options.bits = 6;
  const VaFile va(&data, options);
  const io::DiskModel disk;
  common::Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto result = va.SearchKnn(query, 5, disk);
    const double exact = ExactKthDistanceExcludingRow(data, query, 5,
                                                      data.size());
    EXPECT_NEAR(result.kth_distance, exact, 1e-9) << "trial " << trial;
    ASSERT_EQ(result.neighbors.size(), 5u);
    // Neighbors ascending by distance.
    double prev = -1.0;
    for (size_t row : result.neighbors) {
      const double d = geometry::L2(data.row(row), query);
      EXPECT_GE(d, prev - 1e-12);
      prev = d;
    }
  }
}

TEST(VaFileTest, MoreBitsFewerCandidates) {
  const auto data = hdidx::testing::SmallClustered(4000, 8, 5);
  const io::DiskModel disk;
  common::Rng rng(6);
  const auto query = data.row(rng.NextBounded(data.size()));
  size_t prev_candidates = data.size() + 1;
  for (uint8_t bits : {2, 4, 6, 8}) {
    VaFile::Options options;
    options.bits = bits;
    const VaFile va(&data, options);
    const auto result = va.SearchKnn(query, 10, disk);
    EXPECT_LE(result.candidates, prev_candidates) << "bits " << int(bits);
    prev_candidates = result.candidates;
  }
  // At 8 bits the filter should prune the vast majority of points.
  EXPECT_LT(prev_candidates, data.size() / 10);
}

TEST(VaFileTest, IoChargesScanPlusCandidates) {
  const auto data = hdidx::testing::SmallClustered(5000, 16, 7);
  VaFile::Options options;
  options.bits = 8;
  const VaFile va(&data, options);
  const io::DiskModel disk;
  const auto result = va.SearchKnn(data.row(0), 3, disk);
  const size_t approx_pages =
      (data.size() * va.ApproximationBytes() + disk.page_bytes - 1) /
      disk.page_bytes;
  EXPECT_EQ(result.io.page_transfers, approx_pages + result.candidates);
  EXPECT_EQ(result.io.page_seeks, 1 + result.candidates);
}

TEST(VaFileTest, ApproximationBytesRoundUp) {
  const auto data = hdidx::testing::SmallClustered(10, 5, 8);
  VaFile::Options options;
  options.bits = 6;  // 30 bits -> 4 bytes
  const VaFile va(&data, options);
  EXPECT_EQ(va.ApproximationBytes(), 4u);
}

TEST(VaFileTest, DuplicateHeavyDimension) {
  data::Dataset data(2);
  common::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    data.Append(std::vector<float>{
        0.5f, static_cast<float>(rng.NextDouble())});
  }
  VaFile::Options options;
  options.bits = 4;
  const VaFile va(&data, options);  // constant dim 0 must not crash
  const auto result = va.SearchKnn(data.row(0), 3, io::DiskModel{});
  EXPECT_EQ(result.neighbors.size(), 3u);
}

}  // namespace
}  // namespace hdidx::index
