#include "workload/range_workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geometry/kernels.h"

namespace hdidx::workload {

namespace {

geometry::BoundingBox BoxAround(std::span<const float> center,
                                std::span<const float> half_extents) {
  std::vector<float> lo(center.size()), hi(center.size());
  for (size_t k = 0; k < center.size(); ++k) {
    lo[k] = center[k] - half_extents[k];
    hi[k] = center[k] + half_extents[k];
  }
  return geometry::BoundingBox(std::move(lo), std::move(hi));
}

}  // namespace

RangeWorkload::RangeWorkload(std::vector<geometry::BoundingBox> boxes,
                             std::vector<size_t> rows)
    : boxes_(std::move(boxes)), query_rows_(std::move(rows)) {}

RangeWorkload RangeWorkload::Create(const data::Dataset& data, size_t q,
                                    std::vector<float> half_extents,
                                    common::Rng* rng) {
  HDIDX_CHECK(!data.empty());
  HDIDX_CHECK(half_extents.size() == data.dim());
  std::vector<geometry::BoundingBox> boxes;
  std::vector<size_t> rows;
  boxes.reserve(q);
  rows.reserve(q);
  for (size_t i = 0; i < q; ++i) {
    const size_t row = static_cast<size_t>(rng->NextBounded(data.size()));
    rows.push_back(row);
    boxes.push_back(BoxAround(data.row(row), half_extents));
  }
  return RangeWorkload(std::move(boxes), std::move(rows));
}

RangeWorkload RangeWorkload::CreateWithCardinality(const data::Dataset& data,
                                                   size_t q,
                                                   size_t target_cardinality,
                                                   common::Rng* rng) {
  HDIDX_CHECK(!data.empty());
  HDIDX_CHECK(target_cardinality > 0);
  const size_t d = data.dim();
  std::vector<geometry::BoundingBox> boxes;
  std::vector<size_t> rows;
  boxes.reserve(q);
  rows.reserve(q);
  std::vector<double> linf(data.size());
  std::vector<float> half(d);
  for (size_t i = 0; i < q; ++i) {
    const size_t row = static_cast<size_t>(rng->NextBounded(data.size()));
    rows.push_back(row);
    const auto center = data.row(row);
    // L-infinity distance to every point; the target-th smallest is the
    // cube half-side containing that many points.
    for (size_t j = 0; j < data.size(); ++j) {
      const auto p = data.row(j);
      double m = 0.0;
      for (size_t k = 0; k < d; ++k) {
        m = std::max(m, std::abs(static_cast<double>(p[k]) - center[k]));
      }
      linf[j] = m;
    }
    const size_t rank = std::min(target_cardinality, data.size() - 1);
    std::nth_element(linf.begin(), linf.begin() + static_cast<ptrdiff_t>(rank),
                     linf.end());
    const float h = static_cast<float>(linf[rank]);
    std::fill(half.begin(), half.end(), h);
    boxes.push_back(BoxAround(center, half));
  }
  return RangeWorkload(std::move(boxes), std::move(rows));
}

size_t RangeWorkload::CountIntersections(
    size_t i, const geometry::kernels::BoxSlab& slab) const {
  std::vector<uint32_t> hits;
  AppendIntersections(i, slab, &hits);
  return hits.size();
}

void RangeWorkload::AppendIntersections(
    size_t i, const geometry::kernels::BoxSlab& slab,
    std::vector<uint32_t>* hits) const {
  geometry::kernels::AppendBoxHits(boxes_[i], slab, hits);
}

}  // namespace hdidx::workload
