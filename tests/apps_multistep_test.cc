#include "apps/multistep_knn.h"

#include <algorithm>
#include <memory>
#include <span>

#include "common/random.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/knn.h"
#include "test_util.h"

namespace hdidx::apps {
namespace {

class MultiStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    full_ = hdidx::testing::SmallClustered(4000, 16, 51);
    projected_ = full_.ProjectPrefix(4);
    topo_ = std::make_unique<index::TreeTopology>(projected_.size(), 30, 8);
    index::BulkLoadOptions options;
    options.topology = topo_.get();
    tree_ = std::make_unique<index::RTree>(
        index::BulkLoadInMemory(projected_, options));
  }

  data::Dataset full_{1};
  data::Dataset projected_{1};
  std::unique_ptr<index::TreeTopology> topo_;
  std::unique_ptr<index::RTree> tree_;
};

TEST_F(MultiStepTest, ReturnsExactFullSpaceKnn) {
  common::Rng rng(52);
  for (int trial = 0; trial < 15; ++trial) {
    const auto query = full_.row(rng.NextBounded(full_.size()));
    const auto result = MultiStepKnn(*tree_, projected_, full_, query, 7);
    const double exact = index::ExactKthDistanceExcludingRow(full_, query, 7,
                                                             full_.size());
    EXPECT_NEAR(result.kth_distance, exact, 1e-9) << "trial " << trial;
    ASSERT_EQ(result.neighbors.size(), 7u);
    // Ascending full-space distances.
    double prev = -1.0;
    for (size_t row : result.neighbors) {
      const double d = geometry::L2(full_.row(row), query);
      EXPECT_GE(d, prev - 1e-12);
      prev = d;
    }
  }
}

TEST_F(MultiStepTest, RefinementsAtLeastKAndBelowN) {
  const auto query = full_.row(11);
  const auto result = MultiStepKnn(*tree_, projected_, full_, query, 9);
  EXPECT_GE(result.refinements, 9u);
  EXPECT_LT(result.refinements, full_.size());
  EXPECT_GT(result.index_accesses.leaf_accesses, 0u);
  // I/O: one random access per page + per refinement.
  EXPECT_EQ(result.io.page_seeks,
            result.index_accesses.total() + result.refinements);
}

TEST_F(MultiStepTest, MoreIndexedDimsFewerRefinements) {
  // A higher-dimensional filter is tighter: refinements shrink.
  const auto query = full_.row(42);
  size_t prev = full_.size() + 1;
  for (size_t d : {2u, 4u, 8u, 16u}) {
    const data::Dataset proj = full_.ProjectPrefix(d);
    const index::TreeTopology topo(proj.size(), 30, 8);
    index::BulkLoadOptions options;
    options.topology = &topo;
    const index::RTree tree = index::BulkLoadInMemory(proj, options);
    const auto result = MultiStepKnn(tree, proj, full_, query, 5);
    EXPECT_LE(result.refinements, prev + 3) << d << " dims";
    prev = result.refinements;
    // Always exact regardless of the filter dimensionality.
    EXPECT_NEAR(result.kth_distance,
                index::ExactKthDistanceExcludingRow(full_, query, 5,
                                                    full_.size()), 1e-9);
  }
  // Full-dimensional filter refines (nearly) only the k results.
  EXPECT_LE(prev, 8u);
}

TEST_F(MultiStepTest, RefinementsMatchTheMinimalCandidateSet) {
  // Optimality (Seidl-Kriegel): exactly the points whose reduced-space
  // distance is within the full-space k-th distance are refined (plus
  // boundary ties).
  const auto query = full_.row(99);
  const size_t k = 6;
  const auto result = MultiStepKnn(*tree_, projected_, full_, query, k);
  const double r = result.kth_distance;
  size_t minimal = 0;
  const auto query_reduced =
      std::span<const float>(query).subspan(0, projected_.dim());
  for (size_t i = 0; i < projected_.size(); ++i) {
    if (geometry::L2(projected_.row(i), query_reduced) <= r) ++minimal;
  }
  EXPECT_GE(result.refinements, minimal > 0 ? minimal - 1 : 0);
  EXPECT_LE(result.refinements, minimal + 1);  // boundary ties
}

}  // namespace
}  // namespace hdidx::apps
