#include "workload/range_workload.h"

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "core/hupper.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "geometry/kernels.h"
#include "gtest/gtest.h"
#include "index/bulk_loader.h"
#include "index/rstar.h"
#include "test_util.h"

namespace hdidx::workload {
namespace {

TEST(RangeWorkloadTest, BoxesCenteredOnDataPoints) {
  const auto data = hdidx::testing::SmallClustered(500, 3, 1);
  common::Rng rng(2);
  const RangeWorkload w =
      RangeWorkload::Create(data, 10, {0.1f, 0.2f, 0.3f}, &rng);
  ASSERT_EQ(w.size(), 10u);
  for (size_t i = 0; i < w.size(); ++i) {
    const auto center = data.row(w.query_rows()[i]);
    EXPECT_NEAR(w.box(i).Center(0), center[0], 1e-5);
    EXPECT_FLOAT_EQ(w.box(i).Extent(0), 0.2f);
    EXPECT_FLOAT_EQ(w.box(i).Extent(2), 0.6f);
    EXPECT_TRUE(w.box(i).Contains(center));
  }
}

TEST(RangeWorkloadTest, IntersectsMatchesBoxGeometry) {
  data::Dataset data(2);
  data.Append(std::vector<float>{0.5f, 0.5f});
  common::Rng rng(3);
  const RangeWorkload w = RangeWorkload::Create(data, 1, {0.1f, 0.1f}, &rng);
  const std::vector<geometry::BoundingBox> pages = {
      geometry::BoundingBox({0, 0}, {0.3f, 0.3f}),
      geometry::BoundingBox({0, 0}, {0.45f, 0.45f})};
  const geometry::kernels::BoxSlab slab{std::span(pages)};
  std::vector<uint32_t> hits;
  w.AppendIntersections(0, slab, &hits);
  EXPECT_EQ(hits, std::vector<uint32_t>{1});
  EXPECT_EQ(w.CountIntersections(0, slab), 1u);
}

TEST(RangeWorkloadTest, CardinalityTargetedBoxesContainTarget) {
  const auto data = hdidx::testing::SmallClustered(2000, 4, 4);
  common::Rng rng(5);
  const size_t target = 50;
  const RangeWorkload w =
      RangeWorkload::CreateWithCardinality(data, 8, target, &rng);
  for (size_t i = 0; i < w.size(); ++i) {
    size_t inside = 0;
    for (size_t j = 0; j < data.size(); ++j) {
      if (w.box(i).Contains(data.row(j))) ++inside;
    }
    // At least the target (ties can add a few more).
    EXPECT_GE(inside, target);
    EXPECT_LE(inside, target + 20);
  }
}

TEST(RangeWorkloadTest, DenserRegionsGetMoreQueries) {
  common::Rng gen(6);
  data::Dataset data(1);
  for (int i = 0; i < 900; ++i) data.Append(std::vector<float>{0.0f});
  for (int i = 0; i < 100; ++i) data.Append(std::vector<float>{10.0f});
  common::Rng rng(7);
  const RangeWorkload w = RangeWorkload::Create(data, 300, {0.5f}, &rng);
  size_t near_zero = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w.box(i).Center(0) < 5.0f) ++near_zero;
  }
  EXPECT_NEAR(static_cast<double>(near_zero) / 300.0, 0.9, 0.07);
}

TEST(RangePredictionTest, MiniIndexPredictsRangeQueries) {
  // The paper's Section 1 claim: the technique applies to range queries.
  // Prediction against the QueryRegions interface must track measurement.
  const auto data = hdidx::testing::SmallClustered(15000, 6, 8);
  const index::TreeTopology topo(data.size(), 60, 8);
  common::Rng rng(9);
  const RangeWorkload w =
      RangeWorkload::CreateWithCardinality(data, 30, 40, &rng);

  index::BulkLoadOptions full;
  full.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, full);
  const std::vector<double> measured =
      core::MeasureLeafAccesses(tree, w, nullptr);
  const double measured_avg = common::Mean(measured);
  ASSERT_GT(measured_avg, 0.0);

  core::MiniIndexParams params;
  params.sampling_fraction = 0.25;
  const core::PredictionResult result =
      core::PredictWithMiniIndex(data, topo, w, params);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured_avg);
  EXPECT_LT(std::abs(rel), 0.3) << "relative error " << rel;
}

TEST(RangePredictionTest, ResampledPredictsRangeQueries) {
  const auto data = hdidx::testing::SmallClustered(20000, 6, 10);
  const index::TreeTopology topo(data.size(), 40, 8);
  ASSERT_GE(topo.height(), 3u);
  common::Rng rng(11);
  const RangeWorkload w =
      RangeWorkload::CreateWithCardinality(data, 25, 60, &rng);

  index::BulkLoadOptions full;
  full.topology = &topo;
  const index::RTree tree = index::BulkLoadInMemory(data, full);
  const double measured_avg =
      common::Mean(core::MeasureLeafAccesses(tree, w, nullptr));

  io::PagedFile file = io::PagedFile::FromDataset(data, io::DiskModel{});
  core::ResampledParams params;
  params.memory_points = 3000;
  params.h_upper = core::ChooseHupper(topo, params.memory_points);
  const core::PredictionResult result =
      core::PredictWithResampledTree(&file, topo, w, params);
  const double rel =
      common::RelativeError(result.avg_leaf_accesses, measured_avg);
  EXPECT_LT(std::abs(rel), 0.3) << "relative error " << rel;
}

/// Brute-force ground truth of core::MeasureLeafAccesses for one query:
/// the root is read whole; any other node is read iff the query region
/// intersects the root's box and the box of every node on the path down to
/// it (scalar geometry, no slabs). Returns (leaf pages, all pages).
template <typename IntersectsFn>
std::pair<uint64_t, uint64_t> BrutePages(const index::RTree& tree,
                                         IntersectsFn intersects) {
  std::vector<uint32_t> parent(tree.num_nodes(), tree.root());
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    for (const uint32_t child : tree.node(id).children) parent[child] = id;
  }
  uint64_t leaves = 0;
  uint64_t all = 0;
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    bool read = true;
    for (uint32_t n = id; read && n != tree.root(); n = parent[n]) {
      read = intersects(tree.node(n).box);
    }
    read = read && (id == tree.root() ||
                    intersects(tree.node(tree.root()).box));
    if (!read) continue;
    const index::RTreeNode& node = tree.node(id);
    all += node.pages;
    if (node.is_leaf()) leaves += node.pages;
  }
  return {leaves, all};
}

/// Checks core::MeasureLeafAccesses on `tree` against BrutePages for every
/// query of `regions`, leaf counts and charged I/O alike.
template <typename IntersectsFn>
void ExpectMeasuredMatchesBruteForce(const index::RTree& tree,
                                     const QueryRegions& regions,
                                     IntersectsFn intersects) {
  io::IoStats io;
  const std::vector<double> measured =
      core::MeasureLeafAccesses(tree, regions, &io);
  ASSERT_EQ(measured.size(), regions.size());
  uint64_t all_pages = 0;
  for (size_t i = 0; i < regions.size(); ++i) {
    const auto [leaves, all] = BrutePages(
        tree, [&](const geometry::BoundingBox& box) {
          return intersects(i, box);
        });
    EXPECT_EQ(measured[i], static_cast<double>(leaves)) << "query " << i;
    all_pages += all;
  }
  EXPECT_EQ(io.page_seeks, all_pages);
  EXPECT_EQ(io.page_transfers, all_pages);
}

TEST(RangePredictionTest, MeasureLeafAccessesMatchesSphereCounting) {
  // Sphere and box workloads on a VAMSplit tree and on an X-tree whose
  // supernodes span several pages, including regions that miss the root
  // box (only the root's pages are charged).
  const auto data = hdidx::testing::SmallClustered(3000, 5, 12);
  const index::TreeTopology topo(data.size(), 25, 6);
  index::BulkLoadOptions full;
  full.topology = &topo;
  index::RStarTree::Options xtree_options;
  xtree_options.max_data_entries = 16;
  xtree_options.max_dir_entries = 6;
  xtree_options.supernode_overlap_threshold = 0.2;
  const auto dense = hdidx::testing::SmallClustered(2500, 16, 64);
  const index::RStarTree xtree =
      index::RStarTree::BuildByInsertion(dense, xtree_options);
  ASSERT_GT(xtree.CountSupernodes(), 0u);

  const std::pair<const data::Dataset*, index::RTree> cases[] = {
      {&data, index::BulkLoadInMemory(data, full)},
      {&dense, xtree.ToRTree()}};
  for (const auto& [points, tree] : cases) {
    common::Rng rng(13);
    const QueryWorkload spheres = QueryWorkload::Create(*points, 15, 5, &rng);
    ExpectMeasuredMatchesBruteForce(
        tree, spheres, [&](size_t i, const geometry::BoundingBox& box) {
          return geometry::SquaredMinDist(spheres.queries().row(i), box) <=
                 spheres.radius(i) * spheres.radius(i);
        });
    const RangeWorkload boxes = RangeWorkload::Create(
        *points, 15, std::vector<float>(points->dim(), 0.05f), &rng);
    ExpectMeasuredMatchesBruteForce(
        tree, boxes, [&](size_t i, const geometry::BoundingBox& box) {
          return boxes.box(i).Intersects(box);
        });
    // Far outside the data: every query misses the root box.
    data::Dataset far(points->dim());
    far.Append(std::vector<float>(points->dim(), 100.f));
    const QueryWorkload outside(far.Select({0, 0}), {0.5, 1.0}, {0, 0}, 5);
    io::IoStats io;
    EXPECT_EQ(core::MeasureLeafAccesses(tree, outside, &io),
              (std::vector<double>{0.0, 0.0}));
    EXPECT_EQ(io.page_seeks, 2u * tree.node(tree.root()).pages);
  }
}

}  // namespace
}  // namespace hdidx::workload
