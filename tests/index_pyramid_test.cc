#include "index/pyramid.h"

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

TEST(PyramidTest, PyramidValueBasics) {
  // Unit-square data so normalization is the identity (corners pin the
  // bounding box).
  data::Dataset data(2);
  data.Append(std::vector<float>{0.0f, 0.0f});
  data.Append(std::vector<float>{1.0f, 1.0f});
  const PyramidIndex index(&data, 4);

  // Left of center in dim 0: pyramid 0, height 0.4.
  EXPECT_NEAR(index.PyramidValue(std::vector<float>{0.1f, 0.5f}), 0.4, 1e-6);
  // Right of center in dim 0: pyramid 0 + d = 2.
  EXPECT_NEAR(index.PyramidValue(std::vector<float>{0.9f, 0.5f}), 2.4, 1e-6);
  // Below center in dim 1: pyramid 1.
  EXPECT_NEAR(index.PyramidValue(std::vector<float>{0.5f, 0.2f}), 1.3, 1e-6);
  // Above center in dim 1: pyramid 3.
  EXPECT_NEAR(index.PyramidValue(std::vector<float>{0.5f, 0.8f}), 3.3, 1e-6);
  // Center has height 0 (any pyramid).
  const double center = index.PyramidValue(std::vector<float>{0.5f, 0.5f});
  EXPECT_NEAR(center - std::floor(center), 0.0, 1e-6);
}

TEST(PyramidTest, QueryIntervalsCoverMatchingPoints) {
  // Every point inside the box must have its pyramid value inside one of
  // the box's intervals (the correctness lemma of the technique).
  const auto data = hdidx::testing::SmallClustered(2000, 5, 71);
  const PyramidIndex index(&data, 16);
  common::Rng rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    const auto center = data.row(rng.NextBounded(data.size()));
    std::vector<float> lo(5), hi(5);
    const float r = static_cast<float>(rng.NextUniform(0.02, 0.3));
    for (size_t k = 0; k < 5; ++k) {
      lo[k] = center[k] - r;
      hi[k] = center[k] + r;
    }
    const geometry::BoundingBox box(lo, hi);

    // Normalized box for interval computation: replicate the index's
    // normalization through a probe round-trip (PyramidValue normalizes
    // internally, so compare via membership).
    io::IoStats io;
    index.RangeQueryPages(lo, hi, &io);
    const auto bounds = data.Bounds();
    std::vector<float> lo_n(5), hi_n(5);
    for (size_t k = 0; k < 5; ++k) {
      const double extent = bounds.Extent(k);
      lo_n[k] = static_cast<float>(
          std::clamp((lo[k] - bounds.lo()[k]) / extent, 0.0, 1.0));
      hi_n[k] = static_cast<float>(
          std::clamp((hi[k] - bounds.lo()[k]) / extent, 0.0, 1.0));
    }
    const auto intervals = index.QueryIntervals(lo_n, hi_n);
    for (size_t i = 0; i < data.size(); ++i) {
      if (!box.Contains(data.row(i))) continue;
      const double pv = index.PyramidValue(data.row(i));
      bool covered = false;
      for (const auto& [a, b] : intervals) {
        if (pv >= a - 1e-9 && pv <= b + 1e-9) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "point " << i << " pv " << pv;
    }
  }
}

TEST(PyramidTest, AtMostTwoDIntervals) {
  const auto data = hdidx::testing::SmallClustered(500, 4, 73);
  const PyramidIndex index(&data, 8);
  std::vector<float> lo(4, 0.1f), hi(4, 0.9f);
  EXPECT_LE(index.QueryIntervals(lo, hi).size(), 8u);
}

TEST(PyramidTest, KnnIsExact) {
  const auto data = hdidx::testing::SmallClustered(3000, 6, 74);
  const PyramidIndex index(&data, 25);
  common::Rng rng(75);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto result = index.SearchKnn(query, 5);
    ASSERT_EQ(result.neighbors.size(), 5u);
    EXPECT_NEAR(result.kth_distance,
                ExactKthDistanceExcludingRow(data, query, 5,
                                             data.size()), 1e-9);
    EXPECT_GE(result.iterations, 1u);
    EXPECT_GT(result.page_reads, 0u);
  }
}

TEST(PyramidTest, PageAccountingSaneForFullSpaceQuery) {
  const auto data = hdidx::testing::SmallClustered(2000, 4, 76);
  const PyramidIndex index(&data, 20);
  const auto bounds = data.Bounds();
  io::IoStats io;
  const size_t pages = index.RangeQueryPages(
      std::vector<float>(bounds.lo()), std::vector<float>(bounds.hi()), &io);
  // The whole space touches every page exactly once (deduplicated).
  EXPECT_EQ(pages, index.num_pages());
  EXPECT_EQ(io.page_transfers, index.num_pages());
}

TEST(PyramidTest, SamplingPredictionOfRangePages) {
  // Section 4.7 applied to the pyramid technique: a mini pyramid index on
  // a zeta-sample with capacity C*zeta predicts the range-query page
  // counts of the full index.
  const auto data = hdidx::testing::SmallClustered(20000, 6, 77);
  const size_t capacity = 40;
  const PyramidIndex full(&data, capacity);

  common::Rng srng(78);
  std::vector<size_t> rows;
  srng.SampleIndices(data.size(), 5000, &rows);  // zeta = 0.25
  const data::Dataset sample = data.Select(rows);
  const PyramidIndex mini(&sample, capacity / 4);

  common::Rng rng(79);
  double measured_total = 0.0, predicted_total = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto center = data.row(rng.NextBounded(data.size()));
    std::vector<float> lo(6), hi(6);
    const float r = static_cast<float>(rng.NextUniform(0.05, 0.2));
    for (size_t k = 0; k < 6; ++k) {
      lo[k] = center[k] - r;
      hi[k] = center[k] + r;
    }
    measured_total +=
        static_cast<double>(full.RangeQueryPages(lo, hi, nullptr));
    predicted_total +=
        static_cast<double>(mini.RangeQueryPages(lo, hi, nullptr));
  }
  const double rel = (predicted_total - measured_total) / measured_total;
  EXPECT_LT(std::abs(rel), 0.25) << "relative error " << rel;
}

}  // namespace
}  // namespace hdidx::index
