#include "workload/query_workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/predictor.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/knn.h"
#include "io/paged_file.h"
#include "test_util.h"

namespace hdidx::workload {
namespace {

TEST(QueryWorkloadTest, QueriesComeFromData) {
  const auto data = hdidx::testing::SmallClustered(500, 4, 1);
  common::Rng rng(2);
  const QueryWorkload w = QueryWorkload::Create(data, 20, 3, &rng);
  ASSERT_EQ(w.num_queries(), 20u);
  EXPECT_EQ(w.k(), 3u);
  for (size_t i = 0; i < w.num_queries(); ++i) {
    const size_t row = w.query_rows()[i];
    EXPECT_DOUBLE_EQ(
        geometry::SquaredL2(w.queries().row(i), data.row(row)), 0.0);
  }
}

/// Peak resident set of this process so far, in KiB.
long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(QueryWorkloadTest, WideTileHeapMemoryStaysBounded) {
  // q = 4000 queries with k = 3999 neighbors each would hold 4000 · 3999 ·
  // 8 bytes = 128 MB of heaps in one tile; the scan splits the tile so its
  // heaps stay under kScanTileHeapBytes (1 MB), and the peak resident set
  // grows by far less than the unsplit tile.
  const auto data = hdidx::testing::SmallClustered(4000, 2, 9);
  common::ThreadPool pool(1);
  const common::ExecutionContext ctx(&pool);
  const long before_kb = PeakRssKb();
  common::Rng rng(10);
  const QueryWorkload w = QueryWorkload::Create(data, 4000, 3999, &rng, ctx);
  EXPECT_LT(PeakRssKb() - before_kb, 32 * 1024);
  ASSERT_EQ(w.num_queries(), 4000u);
  for (const size_t i : {size_t{0}, size_t{1234}, size_t{3999}}) {
    EXPECT_EQ(w.radius(i),
              index::ExactKthDistanceExcludingRow(data, w.queries().row(i),
                                                  3999, w.query_rows()[i]));
  }
}

TEST(QueryWorkloadTest, RadiiAreExactKnnDistances) {
  const auto data = hdidx::testing::SmallClustered(500, 4, 3);
  common::Rng rng(4);
  const QueryWorkload w = QueryWorkload::Create(data, 10, 5, &rng);
  for (size_t i = 0; i < w.num_queries(); ++i) {
    const double expected = index::ExactKthDistanceExcludingRow(
        data, w.queries().row(i), 5, w.query_rows()[i]);
    EXPECT_DOUBLE_EQ(w.radius(i), expected);
    EXPECT_GT(w.radius(i), 0.0);
  }
}

TEST(QueryWorkloadTest, DuplicatePointsCountAsNeighbors) {
  // Regression for the duplicate-radius unification: only the query's own
  // row is excluded from its neighbor set, so a duplicate of the query point
  // is a valid neighbor at distance 0 — a 1-NN radius of exactly 0 on a
  // fully duplicated dataset.
  data::Dataset base = hdidx::testing::SmallClustered(100, 3, 17);
  data::Dataset data(3);
  for (size_t i = 0; i < base.size(); ++i) {
    const auto row = base.row(i);
    data.Append(std::vector<float>(row.begin(), row.end()));
    data.Append(std::vector<float>(row.begin(), row.end()));
  }

  common::Rng rng_a(18);
  const QueryWorkload created = QueryWorkload::Create(data, 20, 1, &rng_a);
  for (size_t i = 0; i < created.num_queries(); ++i) {
    EXPECT_EQ(created.radius(i), 0.0) << "query " << i;
  }
}

TEST(QueryWorkloadTest, CreateAndScanAgreeOnDuplicatedData) {
  // Create's radii must equal a plain sort over every row but the query's
  // own, even when the dataset contains exact duplicates (k > 1 so the
  // neighbor set mixes zero- and nonzero-distance points).
  data::Dataset base = hdidx::testing::SmallClustered(150, 4, 19);
  data::Dataset data(4);
  for (size_t i = 0; i < base.size(); ++i) {
    const auto row = base.row(i);
    data.Append(std::vector<float>(row.begin(), row.end()));
    if (i % 3 == 0) data.Append(std::vector<float>(row.begin(), row.end()));
  }

  common::Rng rng(20);
  const QueryWorkload created = QueryWorkload::Create(data, 15, 4, &rng);
  for (size_t i = 0; i < created.num_queries(); ++i) {
    std::vector<double> d2;
    for (size_t row = 0; row < data.size(); ++row) {
      if (row == created.query_rows()[i]) continue;
      d2.push_back(
          geometry::SquaredL2(created.queries().row(i), data.row(row)));
    }
    std::sort(d2.begin(), d2.end());
    EXPECT_EQ(created.radius(i), std::sqrt(d2[3])) << "query " << i;
  }
}

TEST(QueryWorkloadTest, LargerKLargerRadius) {
  const auto data = hdidx::testing::SmallClustered(500, 4, 5);
  common::Rng rng_a(6), rng_b(6);
  const QueryWorkload w1 = QueryWorkload::Create(data, 15, 1, &rng_a);
  const QueryWorkload w2 = QueryWorkload::Create(data, 15, 10, &rng_b);
  for (size_t i = 0; i < 15; ++i) {
    EXPECT_LE(w1.radius(i), w2.radius(i));
  }
}

// The predictors' accounted first pass over the workload's query points
// (Figures 5 and 7, steps 2-4), as core::ChargeScanAndDrawSample charges it.

TEST(ScanForWorkloadTest, SampleSizeAndMembership) {
  const auto data = hdidx::testing::SmallClustered(600, 3, 9);
  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  common::Rng rng(10);
  const data::Dataset sample =
      core::ChargeScanAndDrawSample(&file, 5, 50, &rng);
  ASSERT_EQ(sample.size(), 50u);
  ASSERT_EQ(sample.dim(), 3u);
  // Every sample point exists in the dataset.
  for (size_t i = 0; i < sample.size(); ++i) {
    bool found = false;
    for (size_t j = 0; j < data.size() && !found; ++j) {
      found = geometry::SquaredL2(sample.row(i), data.row(j)) == 0.0;
    }
    EXPECT_TRUE(found) << "sample row " << i;
  }
}

TEST(ScanForWorkloadTest, SampleLargerThanDataTruncates) {
  const auto data = hdidx::testing::SmallClustered(40, 3, 11);
  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  common::Rng rng(12);
  const data::Dataset sample =
      core::ChargeScanAndDrawSample(&file, 3, 1000, &rng);
  EXPECT_EQ(sample.size(), 40u);
}

TEST(ScanForWorkloadTest, IoChargesMatchEquations) {
  // Equation 2 + cost_ScanDataset: q random reads then one sequential scan.
  // The head is invalidated before every query read and before the scan,
  // so each of the q + 1 accesses pays exactly one seek.
  const auto data = hdidx::testing::SmallClustered(4096, 2, 13);
  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  common::Rng rng(14);
  const size_t q = 7;
  core::ChargeScanAndDrawSample(&file, q, 100, &rng);
  EXPECT_EQ(file.stats().page_seeks, q + 1);
  EXPECT_EQ(file.stats().page_transfers, q + file.num_pages());
}

TEST(QueryWorkloadTest, DensityBias) {
  // Two clusters, 90/10 population: queries should land ~90/10.
  common::Rng gen(15);
  data::Dataset data(2);
  for (int i = 0; i < 900; ++i) {
    data.Append(std::vector<float>{
        static_cast<float>(gen.NextGaussian()) * 0.01f, 0.0f});
  }
  for (int i = 0; i < 100; ++i) {
    data.Append(std::vector<float>{
        10.0f + static_cast<float>(gen.NextGaussian()) * 0.01f, 0.0f});
  }
  common::Rng rng(16);
  const QueryWorkload w = QueryWorkload::Create(data, 200, 2, &rng);
  size_t near_origin = 0;
  for (size_t i = 0; i < w.num_queries(); ++i) {
    if (w.queries().row(i)[0] < 5.0f) ++near_origin;
  }
  EXPECT_NEAR(static_cast<double>(near_origin) / 200.0, 0.9, 0.07);
}

}  // namespace
}  // namespace hdidx::workload
