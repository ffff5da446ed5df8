#ifndef HDIDX_WORKLOAD_RANGE_WORKLOAD_H_
#define HDIDX_WORKLOAD_RANGE_WORKLOAD_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "workload/query_workload.h"

namespace hdidx::workload {

/// A density-biased range-query workload: q axis-aligned query boxes
/// centered at points drawn from the dataset (Section 1 notes the
/// prediction technique "can also be applied to range queries" — the page
/// layout estimation is identical; only the region/page intersection test
/// changes from sphere to box).
class RangeWorkload : public QueryRegions {
 public:
  /// Builds q box queries with the given half-extent per dimension (all
  /// boxes congruent, centers drawn from the data — the standard
  /// density-biased range workload).
  static RangeWorkload Create(const data::Dataset& data, size_t q,
                              std::vector<float> half_extents,
                              common::Rng* rng);

  /// Builds q box queries sized to contain approximately
  /// `target_cardinality` points each: for every query center, the
  /// half-extent is the L-infinity distance to the target_cardinality-th
  /// nearest point (a cube-shaped analogue of the k-NN sphere). O(q * N).
  static RangeWorkload CreateWithCardinality(const data::Dataset& data,
                                             size_t q,
                                             size_t target_cardinality,
                                             common::Rng* rng);

  // QueryRegions: box-vs-box overlap (BoundingBox::Intersects).
  size_t size() const override { return boxes_.size(); }
  size_t CountIntersections(
      size_t i, const geometry::kernels::BoxSlab& slab) const override;
  void AppendIntersections(size_t i, const geometry::kernels::BoxSlab& slab,
                           std::vector<uint32_t>* hits) const override;

  const geometry::BoundingBox& box(size_t i) const { return boxes_[i]; }

  /// Row indices the query centers were drawn from.
  const std::vector<size_t>& query_rows() const { return query_rows_; }

 private:
  RangeWorkload(std::vector<geometry::BoundingBox> boxes,
                std::vector<size_t> rows);

  std::vector<geometry::BoundingBox> boxes_;
  std::vector<size_t> query_rows_;
};

}  // namespace hdidx::workload

#endif  // HDIDX_WORKLOAD_RANGE_WORKLOAD_H_
