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
  ctx.ParallelFor(0, q, /*grain=*/0, [&](size_t begin, size_t end) {
    std::vector<uint32_t> stack;  // reused DFS stack, private to the chunk
    for (size_t i = begin; i < end; ++i) {
      size_t leaves = 0;
      size_t dirs = 0;
      const index::RTreeNode& root = tree.node(tree.root());
      if (root.is_leaf()) {
        leaves = root.pages;  // the single page is always read
      } else {
        dirs = root.pages;  // the root page is always read
        if (queries.Intersects(i, root.box)) {
          stack.assign(root.children.begin(), root.children.end());
          while (!stack.empty()) {
            const uint32_t id = stack.back();
            stack.pop_back();
            const index::RTreeNode& n = tree.node(id);
            if (!queries.Intersects(i, n.box)) continue;
            if (n.is_leaf()) {
              leaves += n.pages;
            } else {
              dirs += n.pages;
              for (uint32_t child : n.children) stack.push_back(child);
            }
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
  for (uint32_t id : upper.leaf_ids()) {
    const index::RTreeNode& node = upper.node(id);
    const double full_points =
        static_cast<double>(node.count) / sigma_upper;
    geometry::BoundingBox box = node.box;
    box.InflateAboutCenter(
        CompensationGrowthPerDim(full_points, sigma_upper));
    result.grown_leaves.push_back(std::move(box));
    result.full_points_per_leaf.push_back(full_points);
  }
  return result;
}

}  // namespace hdidx::core
