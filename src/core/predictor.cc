#include "core/predictor.h"

#include <algorithm>

#include "core/compensation.h"
#include "geometry/kernels.h"
#include "index/bulk_loader.h"
#include "index/rtree.h"

namespace hdidx::core {

void CountLeafIntersections(
    const std::vector<geometry::BoundingBox>& leaf_boxes,
    const workload::QueryRegions& queries, PredictionResult* result,
    const common::ExecutionContext& ctx) {
  const size_t q = queries.size();
  result->per_query_accesses.assign(q, 0.0);
  result->num_predicted_leaves = leaf_boxes.size();
  // One SoA slab over the predicted leaf layout, built once per prediction
  // and read concurrently by every query chunk.
  const geometry::kernels::BoxSlab slab{std::span(leaf_boxes)};
  ctx.ParallelFor(0, q, /*grain=*/0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      result->per_query_accesses[i] =
          static_cast<double>(queries.CountIntersections(i, slab));
    }
  });
  // Serial reduction in query order: the same floating-point additions, in
  // the same order, as the serial loop.
  double total = 0.0;
  for (size_t i = 0; i < q; ++i) total += result->per_query_accesses[i];
  result->avg_leaf_accesses = q > 0 ? total / static_cast<double>(q) : 0.0;
}

std::vector<double> MeasureLeafAccesses(const index::RTree& tree,
                                        const workload::QueryRegions& queries,
                                        io::IoStats* io,
                                        const common::ExecutionContext& ctx) {
  const size_t q = queries.size();
  std::vector<double> result(q, 0.0);
  if (tree.empty()) return result;
  std::vector<uint64_t> pages_touched(q, 0);
  const index::RTreeNode& root = tree.node(tree.root());
  ctx.ParallelFor(0, q, /*grain=*/0, [&](size_t begin, size_t end) {
    // DFS stack and slab hits, reused across the chunk's queries.
    std::vector<uint32_t> stack;
    std::vector<uint32_t> hits;
    for (size_t i = begin; i < end; ++i) {
      // The root page is always read: every search starts there.
      size_t leaves = root.is_leaf() ? root.pages : 0;
      size_t dirs = root.is_leaf() ? 0 : root.pages;
      // Each popped directory tests all its children at once against its
      // child slab (a leaf's slab is empty). A child box lies inside its
      // parent's and IEEE rounding is monotone, so no child passes a test
      // its parent fails: a region that misses the root box reads only the
      // root. Page totals are integer sums, so visit order cannot matter.
      stack.assign(1, tree.root());
      while (!stack.empty()) {
        const uint32_t id = stack.back();
        stack.pop_back();
        hits.clear();
        queries.AppendIntersections(i, tree.child_slab(id), &hits);
        const std::span<const uint32_t> children = tree.node(id).children;
        for (const uint32_t hit : hits) {
          const index::RTreeNode& child = tree.node(children[hit]);
          if (child.is_leaf()) {
            leaves += child.pages;
          } else {
            dirs += child.pages;
            stack.push_back(children[hit]);
          }
        }
      }
      result[i] = static_cast<double>(leaves);
      pages_touched[i] = leaves + dirs;
    }
  });
  if (io != nullptr) {
    // Reduced serially in query order — bit-identical to the serial loop.
    for (size_t i = 0; i < q; ++i) {
      io->page_seeks += pages_touched[i];
      io->page_transfers += pages_touched[i];
    }
  }
  return result;
}

data::Dataset ChargeScanAndDrawSample(io::PagedFile* file,
                                      size_t num_query_points,
                                      size_t sample_size, common::Rng* rng) {
  const size_t n = file->size();
  const size_t dim = file->dim();

  // Step 2: q random accesses for the query points (Equation 2). The bytes
  // themselves come from the shared workload; only the cost is charged.
  for (size_t i = 0; i < num_query_points; ++i) {
    file->InvalidateHead();
    file->ChargeAccess(static_cast<size_t>(rng->NextBounded(n)), 1);
  }

  // Step 3: one sequential scan of the whole dataset; the sample positions
  // are chosen up front and collected on the way through.
  std::vector<size_t> rows;
  rng->SampleIndices(n, std::min(sample_size, n), &rows);
  file->InvalidateHead();
  file->ChargeAccess(0, n);
  data::Dataset sample(dim);
  sample.AppendRows(file->raw(), rows);
  return sample;
}

UpperTreeResult BuildGrownUpperTree(const data::Dataset& sample,
                                    const index::TreeTopology& topology,
                                    size_t h_upper, double sigma_upper,
                                    const common::ExecutionContext& ctx) {
  UpperTreeResult result;
  result.sigma_upper = sigma_upper;
  result.stop_level = topology.height() - h_upper + 1;

  index::BulkLoadOptions options;
  options.topology = &topology;
  options.scale = sigma_upper;
  options.root_level = topology.height();
  options.stop_level = result.stop_level;
  options.exec = &ctx;
  const index::RTree upper = index::BulkLoadInMemory(sample, options);

  result.grown_leaves.reserve(upper.num_leaves());
  result.full_points_per_leaf.reserve(upper.num_leaves());
  AppendGrownLeaves(upper, sigma_upper, /*compensate=*/true,
                    &result.grown_leaves, &result.full_points_per_leaf);
  return result;
}

}  // namespace hdidx::core
