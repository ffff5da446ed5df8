/// Parameterized property sweeps: invariants that must hold across a grid
/// of dataset shapes, capacities, and sampling fractions.

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/compensation.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "geometry/kernels.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/knn.h"
#include "test_util.h"

namespace hdidx {
namespace {

// ---------------------------------------------------------------------------
// Bulk-loader invariants across (n, dim, data_capacity, dir_capacity).
// ---------------------------------------------------------------------------

using TreeParams = std::tuple<size_t, size_t, size_t, size_t>;

class BulkLoadProperty : public ::testing::TestWithParam<TreeParams> {};

TEST_P(BulkLoadProperty, TreeInvariantsHold) {
  const auto [n, dim, data_cap, dir_cap] = GetParam();
  const auto data = testing::SmallClustered(n, dim, 1000 + n + dim);
  const index::TreeTopology topo(n, data_cap, dir_cap);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  testing::ExpectValidTree(tree, data, 1);
  EXPECT_EQ(tree.num_leaves(), topo.NumLeaves());
  for (uint32_t id : tree.leaf_ids()) {
    EXPECT_LE(tree.node(id).count, data_cap);
  }
}

TEST_P(BulkLoadProperty, KnnSearchMatchesScan) {
  const auto [n, dim, data_cap, dir_cap] = GetParam();
  const auto data = testing::SmallClustered(n, dim, 2000 + n + dim);
  const index::TreeTopology topo(n, data_cap, dir_cap);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  common::Rng rng(n + dim);
  for (int trial = 0; trial < 3; ++trial) {
    const auto query = data.row(rng.NextBounded(n));
    const auto result = index::TreeKnnSearch(tree, data, query, 3);
    const double exact = index::ExactKthDistanceExcludingRow(data, query, 3,
                                                             data.size());
    EXPECT_NEAR(result.kth_distance, exact, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, BulkLoadProperty,
    ::testing::Values(TreeParams{100, 2, 5, 3}, TreeParams{500, 3, 10, 4},
                      TreeParams{1000, 8, 20, 5}, TreeParams{2000, 16, 16, 8},
                      TreeParams{3000, 4, 50, 12}, TreeParams{777, 5, 7, 2},
                      TreeParams{64, 32, 8, 4}, TreeParams{4096, 6, 32, 16}));

// ---------------------------------------------------------------------------
// Parallel-build invariants for randomized (n, dim, data_cap, dir_cap): a
// build fanned out over a 4-thread pool must leave leaves tiling [0, n)
// exactly once, and — with scale 1 — every page at every level full except
// the rightmost one (the level-wise loader's packing guarantee, which makes
// node counts the topology's ceilings).
// ---------------------------------------------------------------------------

class ParallelBuildProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelBuildProperty, LeavesTileAndOnlyRightmostPagePartial) {
  common::Rng shape_rng(GetParam());
  const size_t n = 50 + shape_rng.NextBounded(4000);
  const size_t dim = 2 + shape_rng.NextBounded(14);
  const size_t data_cap = 2 + shape_rng.NextBounded(38);
  const size_t dir_cap = 2 + shape_rng.NextBounded(12);
  const auto data = testing::SmallClustered(n, dim, GetParam() * 977 + 5);
  const index::TreeTopology topo(n, data_cap, dir_cap);

  common::ThreadPool pool(4);
  const common::ExecutionContext ctx(&pool);
  index::BulkLoadOptions options;
  options.topology = &topo;
  options.exec = &ctx;
  const index::RTree tree = index::BulkLoadInMemory(data, options);
  testing::ExpectValidTree(tree, data, 1);

  // Leaves tile [0, n) exactly once, in leaf_ids (left-to-right) order.
  size_t covered = 0;
  for (const uint32_t id : tree.leaf_ids()) {
    EXPECT_EQ(tree.node(id).start, covered) << "gap/overlap before leaf " << id;
    covered += tree.node(id).count;
  }
  EXPECT_EQ(covered, n);

  // Points under every node, per level, in left-to-right (DFS) order.
  std::vector<std::vector<size_t>> points_at_level(tree.root_level() + 1);
  const auto subtree_points = [&tree, &points_at_level](
                                  const auto& self, uint32_t id) -> size_t {
    const index::RTreeNode& node = tree.node(id);
    size_t points = node.count;
    for (const uint32_t child : node.children) points += self(self, child);
    points_at_level[node.level].push_back(points);
    return points;
  };
  subtree_points(subtree_points, tree.root());

  for (size_t level = 1; level <= tree.root_level(); ++level) {
    // DFS pushes a node after its subtree, which still visits each level
    // left to right.
    const std::vector<size_t>& nodes = points_at_level[level];
    ASSERT_EQ(nodes.size(), topo.NodesAtLevel(level)) << "level " << level;
    const size_t cap = topo.SubtreeCapacity(level);
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      EXPECT_EQ(nodes[i], cap)
          << "non-rightmost node " << i << " at level " << level
          << " is not full";
    }
    EXPECT_EQ(nodes.back(), n - (nodes.size() - 1) * cap)
        << "rightmost node at level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBuildProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Compensation-factor properties across (capacity, zeta).
// ---------------------------------------------------------------------------

using CompParams = std::tuple<double, double>;

class CompensationProperty : public ::testing::TestWithParam<CompParams> {};

TEST_P(CompensationProperty, GrowthAtLeastOneAndFinite) {
  const auto [capacity, zeta] = GetParam();
  const double g = core::CompensationGrowthPerDim(capacity, zeta);
  EXPECT_GE(g, 1.0);
  EXPECT_LT(g, 5.0);
  EXPECT_TRUE(std::isfinite(g));
}

TEST_P(CompensationProperty, DeltaConsistentWithGrowth) {
  const auto [capacity, zeta] = GetParam();
  for (size_t dim : {1u, 8u, 64u, 617u}) {
    const double g = core::CompensationGrowthPerDim(capacity, zeta);
    const double log_delta = dim * std::log(g);
    if (log_delta > 700.0) continue;  // g^dim overflows a double
    const double delta = core::CompensationDelta(capacity, zeta, dim);
    EXPECT_NEAR(std::log(delta), log_delta, 1e-9 * dim);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityZetaGrid, CompensationProperty,
    ::testing::Combine(::testing::Values(5.0, 33.0, 100.0, 1000.0),
                       ::testing::Values(0.01, 0.1, 0.3, 0.6, 0.95)));

// ---------------------------------------------------------------------------
// MINDIST properties against sampled points: MINDIST is a lower bound on
// the distance to any point in the box, and 0 iff inside.
// ---------------------------------------------------------------------------

class MinDistProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MinDistProperty, LowerBoundsDistanceToContainedPoints) {
  const size_t dim = GetParam();
  common::Rng rng(dim * 31);
  const auto points = data::GenerateUniform(200, dim, &rng);
  const auto box = points.Bounds();
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> q(dim);
    for (auto& v : q) {
      v = static_cast<float>(rng.NextUniform(-2.0, 3.0));
    }
    const double min_dist = geometry::MinDist(q, box);
    for (size_t i = 0; i < points.size(); i += 17) {
      EXPECT_LE(min_dist, geometry::L2(q, points.row(i)) + 1e-9);
    }
    EXPECT_EQ(min_dist == 0.0, box.Contains(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MinDistProperty,
                         ::testing::Values(1, 2, 3, 8, 32, 128));

// ---------------------------------------------------------------------------
// Topology properties across (n, caps): counts are consistent ceilings.
// ---------------------------------------------------------------------------

using TopoParams = std::tuple<size_t, size_t, size_t>;

class TopologyProperty : public ::testing::TestWithParam<TopoParams> {};

TEST_P(TopologyProperty, CeilingConsistency) {
  const auto [n, data_cap, dir_cap] = GetParam();
  const index::TreeTopology topo(n, data_cap, dir_cap);
  EXPECT_GE(topo.SubtreeCapacity(topo.height()), n);
  if (topo.height() > 1) {
    EXPECT_LT(topo.SubtreeCapacity(topo.height() - 1), n);
  }
  EXPECT_EQ(topo.NodesAtLevel(topo.height()), 1u);
  for (size_t level = 1; level <= topo.height(); ++level) {
    const size_t nodes = topo.NodesAtLevel(level);
    EXPECT_GE(nodes * topo.SubtreeCapacity(level), n);
    EXPECT_LT((nodes - 1) * topo.SubtreeCapacity(level), n);
    EXPECT_GT(topo.PointsPerSubtree(level), 0.0);
    EXPECT_LE(topo.PointsPerSubtree(level),
              static_cast<double>(topo.SubtreeCapacity(level)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, TopologyProperty,
    ::testing::Values(TopoParams{1, 10, 4}, TopoParams{10, 10, 4},
                      TopoParams{11, 10, 4}, TopoParams{100000, 33, 16},
                      TopoParams{275465, 33, 16}, TopoParams{999983, 7, 2},
                      TopoParams{42, 1, 2}, TopoParams{65536, 16, 16}));

// ---------------------------------------------------------------------------
// Kernel equivalence: every batched geometry kernel lane the host can run
// (generic and each reachable SIMD ISA) must be bit-identical to the
// retained scalar reference across every (dimension, slab size)
// combination, including slab sizes straddling the kBlock stride boundary,
// empty boxes mixed into the slab, and degenerate all-identical datasets.
// For the scans, dimensions 1/3/7/9/65 leave a tail inside a staged 8-lane
// block and 1037 rows end two full 512-row chunks with one staged block
// and a five-row scalar tail, so excluded rows land in staged blocks, in
// the scalar tail and across chunk boundaries.
// EXPECT_EQ throughout — on doubles, not EXPECT_NEAR.
// ---------------------------------------------------------------------------

using KernelParams = std::tuple<size_t, size_t>;  // (dim, slab/box count)

class KernelEquivalenceProperty
    : public ::testing::TestWithParam<KernelParams> {};

TEST_P(KernelEquivalenceProperty, SphereAndBoxCountsBitIdentical) {
  namespace gk = geometry::kernels;
  const auto [dim, count] = GetParam();
  common::Rng rng(dim * 131 + count);
  std::vector<geometry::BoundingBox> boxes;
  for (size_t i = 0; i < count; ++i) {
    std::vector<float> lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      const float a = static_cast<float>(rng.NextUniform(-1.0, 2.0));
      const float b = static_cast<float>(rng.NextUniform(-1.0, 2.0));
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    boxes.emplace_back(std::move(lo), std::move(hi));
  }
  // Sprinkle empty boxes (infinitely far sentinels in the slab).
  for (size_t i = 2; i < boxes.size(); i += 5) {
    boxes[i] = geometry::BoundingBox(dim);
  }
  const gk::BoxSlab slab{std::span<const geometry::BoundingBox>(boxes)};
  ASSERT_EQ(slab.size(), count);
  ASSERT_EQ(slab.padded_size() % gk::BoxSlab::kBlock, 0u);

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<float> center(dim);
    for (auto& v : center) {
      v = static_cast<float>(rng.NextUniform(-1.5, 2.5));
    }
    const double r = rng.NextUniform(0.0, 0.5 * std::sqrt(double(dim)));
    const double r2 = r * r;
    size_t brute = 0;
    for (const auto& box : boxes) {
      if (geometry::SquaredMinDist(center, box) <= r2) ++brute;
    }
    std::vector<uint32_t> scalar_hits;
    gk::AppendSphereHits(center, r2, slab, &scalar_hits,
                         gk::KernelMode::kScalar);
    const auto query_box = boxes[rng.NextBounded(boxes.size())];
    std::vector<uint32_t> box_brute;
    for (uint32_t b = 0; b < boxes.size(); ++b) {
      if (query_box.Intersects(boxes[b])) box_brute.push_back(b);
    }
    const gk::BoxRows rows{slab};
    const size_t scalar_nearest =
        gk::NearestBox(center, slab, rows, gk::KernelMode::kScalar);
    for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
      SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
      EXPECT_EQ(gk::CountSphereHits(center, r2, slab, mode), brute);
      std::vector<uint32_t> mode_hits;
      gk::AppendSphereHits(center, r2, slab, &mode_hits, mode);
      EXPECT_EQ(mode_hits, scalar_hits);
      std::vector<uint32_t> box_hits;
      gk::AppendBoxHits(query_box, slab, &box_hits, mode);
      EXPECT_EQ(box_hits, box_brute);
      EXPECT_EQ(gk::NearestBox(center, slab, rows, mode), scalar_nearest);
    }
  }
}

// The exact scan's order statistics are bit-identical across modes:
// OneQueryKthScan (+inf past the qualifying rows) equals the scalar
// oracle's. The inputs are six random queries, alternately with and
// without an excluded row, and all-identical rows, where every distance
// ties and early exit must never fire spuriously. On the small shapes each
// input sweeps every k in 1..n+1. On the 1037-row shapes a full sweep costs
// n + 1 scans of n rows per mode, so there each input sweeps the k that
// reach distinct paths of the scan: the heap filling before, at and after a
// block and a chunk boundary, at the last full block and in the scalar
// tail, n - 1, n and n + 1, plus three random k.
TEST_P(KernelEquivalenceProperty, ScanKernelsBitIdentical) {
  namespace gk = geometry::kernels;
  const auto [dim, n] = GetParam();
  constexpr size_t kInputs = 7;
  common::Rng rng(dim * 977 + n);
  std::vector<float> rows(n * dim);
  for (auto& v : rows) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  std::vector<size_t> ks;
  if (n <= 64) {
    for (size_t k = 1; k <= n + 1; ++k) ks.push_back(k);
  } else {
    constexpr size_t kBlock = gk::BoxSlab::kBlock;
    constexpr size_t kChunk = gk::kScanChunkRows;
    const size_t last_block_end = n / kBlock * kBlock;
    ks = {1,          2,           kBlock - 1,     kBlock,
          kBlock + 1, 2 * kBlock,  2 * kBlock + 1, kChunk - 1,
          kChunk,     kChunk + 1,  last_block_end, last_block_end + 1,
          n - 1,      n,           n + 1};
    // A separate stream, so the queries below stay the ones drawn from rng.
    common::Rng k_rng(dim * 131 + n);
    for (int i = 0; i < 3; ++i) ks.push_back(1 + k_rng.NextBounded(n + 1));
  }
  const auto expect_order_statistics_identical =
      [&](size_t input, std::span<const float> query, size_t exclude,
          std::span<const float> scanned) {
        for (const size_t k : ks) {
          const double scalar = testing::OneQueryKthScan(
              query, exclude, scanned, dim, k, gk::KernelMode::kScalar);
          for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
            if (mode == gk::KernelMode::kScalar) continue;
            EXPECT_EQ(testing::OneQueryKthScan(query, exclude, scanned, dim,
                                               k, mode),
                      scalar)
                << gk::KernelModeName(mode) << " input " << input
                << " k=" << k;
          }
        }
      };
  // The draw that once picked a single k: kept so the queries and excluded
  // rows below stay the inputs this test has always used.
  rng.NextBounded(n + 2);
  for (size_t trial = 0; trial + 1 < kInputs; ++trial) {
    std::vector<float> query(dim);
    for (auto& v : query) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    const size_t exclude = trial % 2 == 0 ? gk::kNoRow : rng.NextBounded(n);
    expect_order_statistics_identical(trial, query, exclude, rows);
  }
  const std::vector<float> same(n * dim, 0.25f);
  expect_order_statistics_identical(
      kInputs - 1, std::vector<float>(dim, -0.75f), gk::kNoRow, same);
}

// The query-tiled scan at tile widths {1, 2, 3, 5, 8, 100} (whole query
// groups, and a group of one left over) equals one-query scalar scans bit
// for bit, on random and on all-duplicate rows.
TEST_P(KernelEquivalenceProperty, TiledKthScansBitIdentical) {
  namespace gk = geometry::kernels;
  const auto [dim, n] = GetParam();
  common::Rng rng(dim * 389 + n);
  std::vector<float> random_rows(n * dim);
  for (auto& v : random_rows) {
    v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  const std::vector<float> same_rows(n * dim, 0.25f);
  const size_t k = 1 + rng.NextBounded(n + 2);  // occasionally k > n
  for (const bool duplicates : {false, true}) {
    const std::vector<float>& rows = duplicates ? same_rows : random_rows;
    for (const size_t width : {1u, 2u, 3u, 5u, 8u, 100u}) {
      std::vector<float> queries;
      std::vector<size_t> exclude;
      for (size_t i = 0; i < width; ++i) {
        const size_t row = rng.NextBounded(n);
        exclude.push_back(i % 4 == 3 ? gk::kNoRow : row);
        queries.insert(queries.end(), rows.begin() + row * dim,
                       rows.begin() + (row + 1) * dim);
      }
      for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
        SCOPED_TRACE(std::string(gk::KernelModeName(mode)));
        std::vector<double> out(width);
        gk::KthDistanceScans(queries, exclude, rows, dim, k, out, mode);
        for (size_t i = 0; i < width; ++i) {
          EXPECT_EQ(out[i],
                    testing::OneQueryKthScan(
                        std::span<const float>(queries.data() + i * dim, dim),
                        exclude[i], rows, dim, k, gk::KernelMode::kScalar));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimSlabGrid, KernelEquivalenceProperty,
    ::testing::Combine(::testing::Values(1, 3, 7, 9, 60, 65, 617),
                       ::testing::Values(1, 7, 8, 9, 16, 17, 1037)));

// ---------------------------------------------------------------------------
// Sphere-counting consistency: leaf accesses measured on the tree
// (core::MeasureLeafAccesses) match a brute-force scan over leaf boxes, for
// random radii.
// ---------------------------------------------------------------------------

class SphereCountProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SphereCountProperty, TraversalMatchesBruteForce) {
  const size_t dim = GetParam();
  const auto data = testing::SmallClustered(1500, dim, dim * 7);
  const index::TreeTopology topo(data.size(), 25, 5);
  index::BulkLoadOptions options;
  options.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, options);

  common::Rng rng(dim * 13);
  for (int trial = 0; trial < 10; ++trial) {
    const auto center = data.row(rng.NextBounded(data.size()));
    const double radius = rng.NextUniform(0.0, 0.5);
    size_t brute = 0;
    for (uint32_t id : tree.leaf_ids()) {
      if (geometry::SphereIntersectsBox(center, radius, tree.node(id).box)) {
        ++brute;
      }
    }
    EXPECT_EQ(testing::MeasureSphere(tree, center, radius).leaves, brute);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SphereCountProperty,
                         ::testing::Values(2, 4, 8, 24));

}  // namespace
}  // namespace hdidx
