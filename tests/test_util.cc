#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/predictor.h"
#include "gtest/gtest.h"
#include "service/wire.h"

namespace hdidx::testing {

data::Dataset SmallClustered(size_t n, size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  data::ClusteredConfig config;
  config.num_points = n;
  config.dim = dim;
  config.num_clusters = 8;
  config.intrinsic_dim = std::max<double>(2.0, static_cast<double>(dim) / 4.0);
  return data::GenerateClustered(config, &rng);
}

data::Dataset DatasetOf(const std::vector<float>& values, size_t dim) {
  HDIDX_CHECK(dim > 0 && values.size() % dim == 0);
  data::Dataset out(values.size() / dim, dim);
  std::copy(values.begin(), values.end(), out.mutable_data().begin());
  return out;
}

data::Dataset GenerateLine(size_t n, size_t dim, double jitter,
                           common::Rng* rng) {
  HDIDX_CHECK(dim > 0);
  std::vector<double> direction(dim);
  double norm = 0.0;
  for (double& v : direction) {
    v = rng->NextGaussian();
    norm += v * v;
  }
  norm = std::sqrt(norm);
  for (double& v : direction) v /= norm;

  data::Dataset out(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const double t = rng->NextDouble() - 0.5;
    auto row = out.mutable_row(i);
    for (size_t k = 0; k < dim; ++k) {
      row[k] = static_cast<float>(0.5 + t * direction[k] +
                                  jitter * rng->NextGaussian());
    }
  }
  return out;
}

std::string CanonicalBytes(service::ServiceResponse response, bool per_query) {
  response.id = 0;
  response.shard = 0;
  response.latency_ms = 0.0;
  response.cache_hit = false;
  response.workload_cache_hit = false;
  response.served_io = io::IoStats{};
  return service::wire::EncodePredictResponse(response, per_query);
}

void ExpectValidTree(const index::RTree& tree, const data::Dataset& data,
                     size_t expected_leaf_level) {
  ASSERT_FALSE(tree.empty());
  std::vector<int> seen(data.size(), 0);
  size_t total_leaf_points = 0;

  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const index::RTreeNode& node = tree.node(id);
    if (node.is_leaf()) {
      EXPECT_EQ(node.level, expected_leaf_level) << "leaf " << id;
      EXPECT_GT(node.count, 0u) << "empty leaf " << id;
      total_leaf_points += node.count;
      for (uint32_t pos = node.start; pos < node.start + node.count; ++pos) {
        const uint32_t row = tree.OrderedIndex(pos);
        ASSERT_LT(row, data.size());
        ++seen[row];
        EXPECT_TRUE(node.box.Contains(data.row(row)))
            << "leaf " << id << " does not contain its point " << row;
      }
    } else {
      for (uint32_t child : node.children) {
        ASSERT_LT(child, tree.num_nodes());
        const index::RTreeNode& child_node = tree.node(child);
        EXPECT_EQ(child_node.level + 1, node.level)
            << "level mismatch under node " << id;
        EXPECT_TRUE(
            geometry::BoundingBox::Union(node.box, child_node.box) == node.box)
            << "directory box " << id << " does not cover child " << child;
      }
    }
  }

  EXPECT_EQ(total_leaf_points, data.size());
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }))
      << "some point is missing or duplicated across leaves";
}

void ExpectTreesIdentical(const index::RTree& expected,
                          const index::RTree& actual, const char* what) {
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes()) << what;
  ASSERT_EQ(expected.dim(), actual.dim()) << what;
  EXPECT_EQ(expected.root(), actual.root()) << what;
  EXPECT_EQ(expected.leaf_ids(), actual.leaf_ids()) << what;
  EXPECT_EQ(expected.order(), actual.order()) << what;
  for (uint32_t id = 0; id < expected.num_nodes(); ++id) {
    const index::RTreeNode& e = expected.node(id);
    const index::RTreeNode& a = actual.node(id);
    EXPECT_EQ(e.level, a.level) << what << ", node " << id;
    EXPECT_EQ(e.start, a.start) << what << ", node " << id;
    EXPECT_EQ(e.count, a.count) << what << ", node " << id;
    // children is a span into each tree's arena; compare element-wise.
    ASSERT_EQ(e.children.size(), a.children.size()) << what << ", node " << id;
    EXPECT_TRUE(std::equal(e.children.begin(), e.children.end(),
                           a.children.begin()))
        << what << ", node " << id;
    EXPECT_EQ(e.pages, a.pages) << what << ", node " << id;
    // Exact float equality: "bit-identical" means the very same MBRs.
    EXPECT_TRUE(e.box.lo() == a.box.lo() && e.box.hi() == a.box.hi())
        << what << ", node " << id << " has a different MBR";
  }
  EXPECT_EQ(index::TreeLayoutDigest(expected), index::TreeLayoutDigest(actual))
      << what;
}

MeasuredPages MeasureOneQuery(const index::RTree& tree,
                              const workload::QueryRegions& region) {
  EXPECT_EQ(region.size(), 1u);
  io::IoStats io;
  const std::vector<double> leaves =
      core::MeasureLeafAccesses(tree, region, &io);
  EXPECT_EQ(io.page_seeks, io.page_transfers);
  MeasuredPages pages;
  pages.leaves = static_cast<size_t>(leaves.at(0));
  pages.dirs = static_cast<size_t>(io.page_seeks) - pages.leaves;
  return pages;
}

MeasuredPages MeasureSphere(const index::RTree& tree,
                            std::span<const float> center, double radius) {
  data::Dataset centers(center.size());
  centers.Append(center);
  const workload::QueryWorkload sphere(std::move(centers), {radius}, {0},
                                       /*k=*/1);
  return MeasureOneQuery(tree, sphere);
}

double OneQueryKthScan(std::span<const float> query, size_t exclude_row,
                       std::span<const float> rows, size_t dim, size_t k,
                       geometry::kernels::KernelMode mode) {
  double kth_sq = 0.0;
  geometry::kernels::KthDistanceScans(query, std::span(&exclude_row, 1), rows,
                                      dim, k, std::span(&kth_sq, 1), mode);
  return kth_sq;
}

}  // namespace hdidx::testing
