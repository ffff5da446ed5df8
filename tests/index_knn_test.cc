#include "index/knn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/predictor.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "test_util.h"
#include "workload/query_workload.h"

namespace hdidx::index {
namespace {

using hdidx::testing::MeasureSphere;

TEST(ExactKthDistanceTest, SimpleLine) {
  data::Dataset d(1);
  for (float x : {0.f, 1.f, 2.f, 3.f, 10.f}) {
    d.Append(std::vector<float>{x});
  }
  const std::vector<float> q = {0.f};
  // Excluding the query's own row (distance 0).
  EXPECT_DOUBLE_EQ(ExactKthDistanceExcludingRow(d, q, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(ExactKthDistanceExcludingRow(d, q, 3, 0), 3.0);
  // Including it.
  EXPECT_DOUBLE_EQ(ExactKthDistanceExcludingRow(d, q, 1, d.size()), 0.0);
  // Fewer than k rows qualify.
  EXPECT_TRUE(std::isinf(ExactKthDistanceExcludingRow(d, q, 5, 0)));
}

TEST(ExactKnnTest, ReturnsAscendingNeighbors) {
  data::Dataset d(1);
  for (float x : {5.f, 1.f, 3.f, 2.f, 4.f}) {
    d.Append(std::vector<float>{x});
  }
  const auto nn = ExactKnn(d, std::vector<float>{0.f}, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0], 1u);  // x=1
  EXPECT_EQ(nn[1], 3u);  // x=2
  EXPECT_EQ(nn[2], 2u);  // x=3
}

TEST(ExactKnnTest, KLargerThanDataset) {
  data::Dataset d(1);
  d.Append(std::vector<float>{1.f});
  d.Append(std::vector<float>{2.f});
  const auto nn = ExactKnn(d, std::vector<float>{0.f}, 10);
  EXPECT_EQ(nn.size(), 2u);
}

TEST(ExactKnnDeathTest, QueryOfWrongDimensionIsFatal) {
  // A short query would make the distance loop read past its end.
  data::Dataset d(3);
  d.Append(std::vector<float>{1.f, 2.f, 3.f});
  EXPECT_DEATH(ExactKnn(d, std::vector<float>{0.f, 0.f}, 1), "dim");
}

class TreeKnnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = hdidx::testing::SmallClustered(3000, 6, 42);
    topo_ = std::make_unique<TreeTopology>(data_.size(), 20, 6);
    BulkLoadOptions options;
    options.topology = topo_.get();
    tree_ = std::make_unique<RTree>(BulkLoadInMemory(data_, options));
  }

  data::Dataset data_{1};
  std::unique_ptr<TreeTopology> topo_;
  std::unique_ptr<RTree> tree_;
};

TEST_F(TreeKnnTest, MatchesExactScan) {
  common::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t row = rng.NextBounded(data_.size());
    const auto query = data_.row(row);
    const auto exact = ExactKnn(data_, query, 5);
    const auto result = TreeKnnSearch(*tree_, data_, query, 5);
    ASSERT_EQ(result.neighbors.size(), 5u);
    // Distances must match exactly (neighbor identity can differ on ties).
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(
          geometry::SquaredL2(data_.row(result.neighbors[i]), query),
          geometry::SquaredL2(data_.row(exact[i]), query));
    }
  }
}

TEST_F(TreeKnnTest, AccessesMatchSphereCounting) {
  // The pages an optimal best-first search reads are exactly those whose
  // MBR intersects the final k-NN sphere — the equivalence both the
  // paper's measurement and our predictors rely on.
  common::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t row = rng.NextBounded(data_.size());
    const auto query = data_.row(row);
    const auto result = TreeKnnSearch(*tree_, data_, query, 8);
    const auto sphere = MeasureSphere(*tree_, query, result.kth_distance);
    EXPECT_EQ(result.accesses.leaf_accesses, sphere.leaves)
        << "trial " << trial;
  }
}

TEST_F(TreeKnnTest, KthDistanceMatchesExact) {
  const auto query = data_.row(7);
  const auto result = TreeKnnSearch(*tree_, data_, query, 4);
  // Exact 4th distance including the query point itself (it is in the
  // dataset, distance 0).
  const double exact = ExactKthDistanceExcludingRow(data_, query, 4,
                                                    data_.size());
  EXPECT_NEAR(result.kth_distance, exact, 1e-9);
}

TEST_F(TreeKnnTest, NeighborsIdenticalToExactKnnIncludingTies) {
  // The leaf loop's bounded pair heap must reproduce ExactKnn *exactly* —
  // same rows in the same order, not just equal distances — because both
  // resolve distance ties towards the lower row index.
  common::Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<float> query(data_.dim());
    if (trial % 2 == 0) {
      const auto row = data_.row(rng.NextBounded(data_.size()));
      std::copy(row.begin(), row.end(), query.begin());
    } else {
      for (auto& v : query) {
        v = static_cast<float>(rng.NextUniform(0.0, 1.0));
      }
    }
    for (const size_t k : {1u, 5u, 23u}) {
      const auto exact = ExactKnn(data_, query, k);
      const auto result = TreeKnnSearch(*tree_, data_, query, k);
      EXPECT_EQ(result.neighbors, exact) << "trial " << trial << " k " << k;
      EXPECT_EQ(result.kth_distance,
                std::sqrt(geometry::SquaredL2(data_.row(exact.back()), query)));
    }
  }
}

TEST_F(TreeKnnTest, NegativeRadiusIsFatal) {
  // A NaN radius would silently intersect nothing.
  for (const double radius : {-1.0, std::nan("")}) {
    EXPECT_DEATH(workload::QueryWorkload(data_.Select({0}), {radius}, {0}, 1),
                 "non-negative");
  }
  EXPECT_DEATH(workload::QueryWorkload(data_.Select({0, 1}), {0.5}, {0, 1}, 1),
               "one radius per query");
}

TEST_F(TreeKnnTest, MeasureLeafAccessesBatch) {
  common::Rng rng(3);
  std::vector<size_t> rows;
  std::vector<double> radii;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(rng.NextBounded(data_.size()));
    radii.push_back(0.05 * (i + 1));
  }
  const workload::QueryWorkload spheres(data_.Select(rows), radii, rows, 1);
  io::IoStats io;
  const auto counts = core::MeasureLeafAccesses(*tree_, spheres, &io);
  ASSERT_EQ(counts.size(), 5u);
  // I/O: every page touched (leaf + dir) is one random access.
  double total_pages = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const auto one = MeasureSphere(*tree_, data_.row(rows[i]), radii[i]);
    EXPECT_EQ(counts[i], static_cast<double>(one.leaves));
    total_pages += static_cast<double>(one.leaves + one.dirs);
  }
  EXPECT_EQ(static_cast<double>(io.page_transfers), total_pages);
  EXPECT_EQ(io.page_seeks, io.page_transfers);
}

TEST_F(TreeKnnTest, GrowingRadiusIsMonotone) {
  const auto query = data_.row(100);
  size_t prev = 0;
  for (double r : {0.01, 0.05, 0.1, 0.5, 2.0}) {
    const auto count = MeasureSphere(*tree_, query, r);
    EXPECT_GE(count.leaves, prev);
    prev = count.leaves;
  }
  // A huge radius reaches every leaf.
  const auto all = MeasureSphere(*tree_, query, 1e6);
  EXPECT_EQ(all.leaves, tree_->num_leaves());
}

}  // namespace
}  // namespace hdidx::index
