/// Second parameterized property batch: cross-implementation equivalences
/// and parameter sweeps over the newer modules.

#include <cmath>
#include <tuple>

#include "common/random.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/external_build.h"
#include "index/knn.h"
#include "index/pyramid.h"
#include "index/rstar.h"
#include "index/va_file.h"
#include "test_util.h"

namespace hdidx {
namespace {

// ---------------------------------------------------------------------------
// External build == in-memory build (structure and geometry) across
// (n, dim, memory) shapes, including memory sizes that force many external
// quickselect passes.
// ---------------------------------------------------------------------------

using ExternalParams = std::tuple<size_t, size_t, size_t>;

class ExternalEquivalence : public ::testing::TestWithParam<ExternalParams> {};

TEST_P(ExternalEquivalence, MatchesInMemoryBuild) {
  const auto [n, dim, memory] = GetParam();
  const auto data = testing::SmallClustered(n, dim, 9000 + n + dim);
  const index::TreeTopology topo(n, 25, 6);

  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree in_memory = index::BulkLoadInMemory(data, options);

  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  index::ExternalBuildOptions external;
  external.topology = &topo;
  external.memory_points = memory;
  const auto built = index::BuildOnDisk(&file, external);

  ASSERT_EQ(built.tree.num_nodes(), in_memory.num_nodes());
  ASSERT_EQ(built.tree.num_leaves(), in_memory.num_leaves());
  // Same per-node point counts and near-identical geometry (ties along
  // split values may migrate individual points).
  double volume_external = 0.0, volume_memory = 0.0;
  for (uint32_t id = 0; id < built.tree.num_nodes(); ++id) {
    if (built.tree.node(id).is_leaf()) {
      EXPECT_EQ(built.tree.node(id).count, in_memory.node(id).count) << id;
    }
    volume_external += built.tree.node(id).box.Volume();
    volume_memory += in_memory.node(id).box.Volume();
  }
  EXPECT_NEAR(volume_external, volume_memory,
              0.05 * std::max(volume_memory, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    MemoryGrid, ExternalEquivalence,
    ::testing::Values(ExternalParams{1000, 4, 100},
                      ExternalParams{1000, 4, 50},
                      ExternalParams{2000, 8, 200},
                      ExternalParams{2000, 8, 2000},
                      ExternalParams{3000, 3, 75},
                      ExternalParams{1500, 12, 300}));

// ---------------------------------------------------------------------------
// VA-file exactness across (dim, bits, k).
// ---------------------------------------------------------------------------

using VaParams = std::tuple<size_t, int, size_t>;

class VaFileProperty : public ::testing::TestWithParam<VaParams> {};

TEST_P(VaFileProperty, ExactAcrossParameters) {
  const auto [dim, bits, k] = GetParam();
  const auto data = testing::SmallClustered(1500, dim, 800 + dim + bits);
  index::VaFile::Options options;
  options.bits = static_cast<uint8_t>(bits);
  const index::VaFile va(&data, options);
  common::Rng rng(dim * 3 + bits);
  for (int trial = 0; trial < 5; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto result = va.SearchKnn(query, k, io::DiskModel{});
    EXPECT_NEAR(result.kth_distance,
                index::ExactKthDistanceExcludingRow(data, query, k,
                                                    data.size()), 1e-9);
    EXPECT_GE(result.candidates, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsGrid, VaFileProperty,
    ::testing::Combine(::testing::Values(2, 8, 24),
                       ::testing::Values(2, 5, 8),
                       ::testing::Values(1, 10)));

// ---------------------------------------------------------------------------
// R*-tree invariants across capacities and reinsert settings.
// ---------------------------------------------------------------------------

using RStarParams = std::tuple<size_t, size_t, double>;

class RStarProperty : public ::testing::TestWithParam<RStarParams> {};

TEST_P(RStarProperty, InvariantsAndExactSearch) {
  const auto [data_cap, dir_cap, reinsert] = GetParam();
  const auto data = testing::SmallClustered(1200, 5, data_cap * 7);
  index::RStarTree::Options options;
  options.max_data_entries = data_cap;
  options.max_dir_entries = dir_cap;
  options.reinsert_fraction = reinsert;
  const index::RStarTree tree =
      index::RStarTree::BuildByInsertion(data, options);
  EXPECT_TRUE(tree.CheckInvariants());
  const index::RTree snapshot = tree.ToRTree();
  testing::ExpectValidTree(snapshot, data, 1);

  common::Rng rng(data_cap + dir_cap);
  const auto query = data.row(rng.NextBounded(data.size()));
  const auto result = index::TreeKnnSearch(snapshot, data, query, 4);
  EXPECT_NEAR(result.kth_distance,
              index::ExactKthDistanceExcludingRow(data, query, 4,
                                                  data.size()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityGrid, RStarProperty,
    ::testing::Values(RStarParams{4, 4, 0.3}, RStarParams{8, 16, 0.3},
                      RStarParams{32, 8, 0.3}, RStarParams{16, 16, 0.0},
                      RStarParams{16, 16, 0.45}, RStarParams{64, 4, 0.3}));

// ---------------------------------------------------------------------------
// Pyramid k-NN exactness across dimensionalities and page capacities.
// ---------------------------------------------------------------------------

using PyramidParams = std::tuple<size_t, size_t>;

class PyramidProperty : public ::testing::TestWithParam<PyramidParams> {};

TEST_P(PyramidProperty, ExactKnn) {
  const auto [dim, capacity] = GetParam();
  const auto data = testing::SmallClustered(1200, dim, 600 + dim);
  const index::PyramidIndex index(&data, capacity);
  common::Rng rng(dim * 5);
  for (int trial = 0; trial < 4; ++trial) {
    const auto query = data.row(rng.NextBounded(data.size()));
    const auto result = index.SearchKnn(query, 3);
    EXPECT_NEAR(result.kth_distance,
                index::ExactKthDistanceExcludingRow(data, query, 3,
                                                    data.size()), 1e-9)
        << "dim " << dim << " cap " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimCapacityGrid, PyramidProperty,
    ::testing::Combine(::testing::Values(2, 6, 16, 32),
                       ::testing::Values(8, 64)));

// ---------------------------------------------------------------------------
// Quantization bounds are valid for arbitrary query/point pairs across
// split strategies: the bulk loader's three strategies all yield trees
// whose leaves cover their points (the core containment property that makes
// intersection counting an exact access count).
// ---------------------------------------------------------------------------

class SplitStrategyProperty
    : public ::testing::TestWithParam<index::SplitStrategy> {};

TEST_P(SplitStrategyProperty, ValidTreeAndExactSearch) {
  const auto data = testing::SmallClustered(2500, 7, 4242);
  const index::TreeTopology topo(data.size(), 30, 6);
  index::BulkLoadOptions options;
  options.topology = &topo;
  options.split_strategy = GetParam();
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  testing::ExpectValidTree(tree, data, 1);
  EXPECT_EQ(tree.num_leaves(), topo.NumLeaves());
  common::Rng rng(77);
  const auto query = data.row(rng.NextBounded(data.size()));
  const auto result = index::TreeKnnSearch(tree, data, query, 6);
  EXPECT_NEAR(result.kth_distance,
              index::ExactKthDistanceExcludingRow(data, query, 6,
                                                  data.size()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Strategies, SplitStrategyProperty,
                         ::testing::Values(
                             index::SplitStrategy::kMaxVariance,
                             index::SplitStrategy::kMaxExtent,
                             index::SplitStrategy::kRoundRobin));

}  // namespace
}  // namespace hdidx
