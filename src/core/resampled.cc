#include "core/resampled.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "core/compensation.h"
#include "core/hupper.h"
#include "geometry/kernels.h"
#include "index/bulk_loader.h"
#include "index/rtree.h"
#include "io/page_accountant.h"

namespace hdidx::core {

PredictionResult PredictWithResampledTree(
    io::PagedFile* file, const index::TreeTopology& topology,
    const workload::QueryRegions& queries, const ResampledParams& params,
    const common::ExecutionContext& ctx) {
  HDIDX_CHECK(params.memory_points > 0);
  HDIDX_CHECK(params.h_upper >= 1 && params.h_upper < topology.height());

  PredictionResult result;
  result.h_upper = params.h_upper;
  result.sigma_upper = SigmaUpper(topology, params.memory_points);

  const io::IoStats before = file->stats();
  common::Rng rng(params.seed);
  const size_t n = file->size();
  const size_t dim = file->dim();
  const size_t m = params.memory_points;

  // Steps 2-4: query-point reads plus the scan that yields the upper
  // sample.
  const data::Dataset sample =
      ChargeScanAndDrawSample(file, queries.size(), m, &rng);

  // Step 5: upper tree with grown leaves; k = number of upper leaf pages.
  const UpperTreeResult upper = BuildGrownUpperTree(
      sample, topology, params.h_upper, result.sigma_upper, ctx);
  const size_t k = upper.grown_leaves.size();
  const double sigma_lower = std::min(
      1.0, static_cast<double>(k) * static_cast<double>(m) /
               static_cast<double>(n));
  result.sigma_lower = sigma_lower;

  // Steps 6-7: the resampling pass (Figure 8). Sample positions are chosen
  // up front; the pass reads the file sequentially in chunks of M sampled
  // points, distributes each chunk among the k consecutive disk areas, and
  // pays Equation 4's seeks/transfers. The areas are never materialized:
  // a bare accountant of k·M points charges their writes and reads, and
  // each area's points are gathered straight from the data file when its
  // lower tree is built.
  std::vector<size_t> resample_rows;
  rng.SampleIndices(
      n,
      static_cast<size_t>(
          std::llround(sigma_lower * static_cast<double>(n))),
      &resample_rows);

  io::PageAccountant areas(file->points_per_page(), k * m);
  const auto raw = file->raw();

  // Pass 1: assign every resampled row to its area and charge the pass. An
  // area keeps the first M rows assigned to it in resample order; the rest
  // overflow and are discarded (footnote 5).
  constexpr uint32_t kDiscarded = std::numeric_limits<uint32_t>::max();
  HDIDX_CHECK(k < kDiscarded);
  std::vector<uint32_t> area_of(resample_rows.size());
  std::vector<size_t> area_fill(k, 0);   // rows kept per area so far
  std::vector<size_t> chunk_kept(k, 0);  // of which from the current chunk
  {
    // One SoA slab over the grown upper leaves (never empty boxes) and the
    // same boxes box-major, reused by every chunk's point assignment below:
    // each point goes to the first box containing it (tested on the rows),
    // else the box with minimal MINDIST (scanned on the slab). Both are
    // released before the lower bulk loads allocate.
    const geometry::kernels::BoxSlab leaf_slab{std::span(upper.grown_leaves)};
    const geometry::kernels::BoxRows leaf_rows{leaf_slab};
    const geometry::kernels::KernelMode kernel_mode =
        geometry::kernels::ActiveKernelMode();
    size_t next = 0;
    while (next < resample_rows.size()) {
      const size_t chunk_begin_row = resample_rows[next];
      const size_t chunk_count =
          std::min<size_t>(m, resample_rows.size() - next);
      const size_t chunk_end_row = resample_rows[next + chunk_count - 1] + 1;
      // Sequential read over the file span covering this chunk's samples.
      file->ChargeAccess(chunk_begin_row, chunk_end_row - chunk_begin_row);

      for (size_t i = next; i < next + chunk_count; ++i) {
        const size_t box = geometry::kernels::NearestBox(
            raw.subspan(resample_rows[i] * dim, dim), leaf_slab, leaf_rows,
            kernel_mode);
        if (area_fill[box] + chunk_kept[box] < m) {
          area_of[i] = static_cast<uint32_t>(box);
          ++chunk_kept[box];
        } else {
          area_of[i] = kDiscarded;
        }
      }
      // Each area's kept share of the chunk is written after the points the
      // area already holds.
      for (size_t b = 0; b < k; ++b) {
        if (chunk_kept[b] == 0) continue;
        areas.ChargeAccess(b * m + area_fill[b], chunk_kept[b]);
        area_fill[b] += chunk_kept[b];
        chunk_kept[b] = 0;
      }
      // The head returns to the data file for the next chunk: next chunk's
      // read pays its seek.
      file->InvalidateHead();
      next += chunk_count;
    }
  }

  // Stable counting sort of the kept rows by area: area b's rows, in
  // resample order (the order the area file would hold them), are
  // area_rows[area_begin[b], area_begin[b + 1]).
  std::vector<size_t> area_begin(k + 1, 0);
  for (size_t b = 0; b < k; ++b) {
    area_begin[b + 1] = area_begin[b] + area_fill[b];
  }
  std::vector<size_t> area_rows(area_begin[k]);
  {
    std::vector<size_t> cursor(area_begin.begin(), area_begin.end() - 1);
    for (size_t i = 0; i < resample_rows.size(); ++i) {
      if (area_of[i] != kDiscarded) {
        area_rows[cursor[area_of[i]]++] = resample_rows[i];
      }
    }
  }

  // Pass 2 (steps 8-11): read each area back (k random area reads) and
  // bulk-load the lower tree in memory; grow its data pages for
  // sigma_lower. One gather buffer of at most M points serves every area.
  std::vector<geometry::BoundingBox> leaves;
  leaves.reserve(topology.NumLeaves());
  data::Dataset lower_points(dim);
  lower_points.Reserve(*std::max_element(area_fill.begin(), area_fill.end()));
  for (size_t b = 0; b < k; ++b) {
    const size_t count = area_fill[b];
    if (count == 0) {
      // No resampled point landed in this box; fall back to the grown upper
      // leaf itself so the page is not lost from the layout.
      leaves.push_back(upper.grown_leaves[b]);
      continue;
    }
    areas.InvalidateHead();
    areas.ChargeAccess(b * m, count);
    lower_points.Clear();
    lower_points.AppendRows(
        raw, std::span(area_rows).subspan(area_begin[b], count));

    // Effective sampling ratio of THIS lower tree: what its area actually
    // holds over the upper tree's estimate of the subtree's full
    // population. Using the global sigma_lower instead would break
    // structural similarity whenever an area overflowed M and discarded
    // points (footnote 5) or the subtree sizes are uneven — the lower tree
    // would come out with the wrong number of pages. Values above 1 are
    // legitimate: a grown box can attract more resampled points than the
    // subtree it models holds, and scaling keeps its page count at the
    // upper tree's estimate.
    const double zeta = static_cast<double>(count) /
                        std::max(1.0, upper.full_points_per_leaf[b]);

    index::BulkLoadOptions options;
    options.topology = &topology;
    options.scale = zeta;
    options.root_level = upper.stop_level;
    options.stop_level = 1;
    options.exec = &ctx;
    const index::RTree lower = index::BulkLoadInMemory(lower_points, options);

    AppendGrownLeaves(lower, zeta, /*compensate=*/true, &leaves,
                      /*full_points=*/nullptr);
  }

  // Step 12: intersection counting (the only parallel section — the
  // resampling pass above charges all its I/O serially on this thread).
  CountLeafIntersections(leaves, queries, &result, ctx);
  result.io = file->stats() + areas.stats();
  result.io.page_seeks -= before.page_seeks;
  result.io.page_transfers -= before.page_transfers;
  return result;
}

}  // namespace hdidx::core
