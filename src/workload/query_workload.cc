#include "workload/query_workload.h"

#include <cmath>
#include <span>

#include "common/check.h"
#include "geometry/kernels.h"

namespace hdidx::workload {

QueryWorkload::QueryWorkload(data::Dataset queries, std::vector<double> radii,
                             std::vector<size_t> rows, size_t k)
    : queries_(std::move(queries)),
      radii_(std::move(radii)),
      query_rows_(std::move(rows)),
      k_(k) {
  HDIDX_CHECK(radii_.size() == queries_.size())
      << "one radius per query: " << radii_.size() << " radii for "
      << queries_.size() << " queries";
  for (const double radius : radii_) {
    HDIDX_CHECK(radius >= 0.0) << "query sphere radius must be non-negative";
  }
}

size_t QueryWorkload::CountIntersections(
    size_t i, const geometry::kernels::BoxSlab& slab) const {
  return geometry::kernels::CountSphereHits(queries_.row(i),
                                            radii_[i] * radii_[i], slab);
}

void QueryWorkload::AppendIntersections(
    size_t i, const geometry::kernels::BoxSlab& slab,
    std::vector<uint32_t>* hits) const {
  geometry::kernels::AppendSphereHits(queries_.row(i), radii_[i] * radii_[i],
                                      slab, hits);
}

QueryWorkload QueryWorkload::Create(const data::Dataset& data, size_t q,
                                    size_t k, common::Rng* rng,
                                    const common::ExecutionContext& ctx) {
  HDIDX_CHECK(!data.empty());
  // The RNG is consumed serially so the draws match the serial run for any
  // thread count.
  std::vector<size_t> rows(q);
  for (size_t i = 0; i < q; ++i) {
    rows[i] = static_cast<size_t>(rng->NextBounded(data.size()));
  }
  data::Dataset queries = data.Select(rows);
  // Each ParallelFor chunk is one tile of the exact scan: the data is
  // streamed once per tile, and every query writes only its own slot.
  std::vector<double> radii(q);
  const size_t dim = data.dim();
  ctx.ParallelFor(0, q, /*grain=*/0, [&](size_t begin, size_t end) {
    const size_t count = end - begin;
    geometry::kernels::KthDistanceScans(
        queries.data().subspan(begin * dim, count * dim),
        std::span<const size_t>(rows).subspan(begin, count), data.data(), dim,
        k, std::span<double>(radii).subspan(begin, count));
    for (size_t i = begin; i < end; ++i) radii[i] = std::sqrt(radii[i]);
  });
  return QueryWorkload(std::move(queries), std::move(radii), std::move(rows),
                       k);
}

}  // namespace hdidx::workload
