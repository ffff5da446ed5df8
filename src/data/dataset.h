#ifndef HDIDX_DATA_DATASET_H_
#define HDIDX_DATA_DATASET_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "geometry/bounding_box.h"

namespace hdidx::data {

/// A dense row-major collection of d-dimensional float points — the in-memory
/// representation of every dataset in the library.
///
/// Rows are points, columns are dimensions. The class is a thin wrapper over
/// a contiguous float buffer so that index construction and distance scans
/// stay cache-friendly; it deliberately exposes the raw layout via data() and
/// row() spans.
class Dataset {
 public:
  /// Creates an empty dataset of the given dimensionality.
  explicit Dataset(size_t dim);

  /// Creates a dataset of `n` zero-initialized points.
  Dataset(size_t n, size_t dim);

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  bool empty() const { return size_ == 0; }

  /// Read-only view of point `i`.
  std::span<const float> row(size_t i) const {
    return {values_.data() + i * dim_, dim_};
  }

  /// Mutable view of point `i`.
  std::span<float> mutable_row(size_t i) {
    return {values_.data() + i * dim_, dim_};
  }

  /// The full row-major buffer.
  std::span<const float> data() const { return values_; }
  std::span<float> mutable_data() { return values_; }

  /// Appends a point (size must equal dim()).
  void Append(std::span<const float> point);

  /// Appends the rows source[r * dim(), (r + 1) * dim()) for each r in
  /// `rows`, in order: the bytes of Append-ing them one by one, copied as
  /// whole rows while the rows a few places ahead are prefetched, so the
  /// cache misses on scattered rows overlap the copies. `source` is a
  /// row-major buffer of width dim(), not this dataset's own; one check of
  /// the largest index per call keeps every row inside it.
  void AppendRows(std::span<const float> source,
                  std::span<const size_t> rows);

  /// Reserves capacity for `n` points.
  void Reserve(size_t n);

  /// Removes every point and keeps the capacity, so a gather buffer can be
  /// refilled without reallocating.
  void Clear() {
    values_.clear();
    size_ = 0;
  }

  /// MBR of all points.
  geometry::BoundingBox Bounds() const;

  /// Returns a new dataset consisting of the rows at `indices` (in order).
  Dataset Select(const std::vector<size_t>& indices) const;

  /// Returns a new dataset keeping only the first `k` dimensions of every
  /// point. Used by the dimensionality-selection application, which indexes
  /// a KLT-ordered prefix of the dimensions.
  Dataset ProjectPrefix(size_t k) const;

  friend bool operator==(const Dataset& a, const Dataset& b) {
    return a.dim_ == b.dim_ && a.values_ == b.values_;
  }

 private:
  size_t dim_;
  size_t size_;
  /// Row storage starts on a cacheline boundary so the row-scan kernels'
  /// aligned-block loads stream whole lines (see common::AlignedVector).
  common::AlignedVector<float> values_;
};

}  // namespace hdidx::data

#endif  // HDIDX_DATA_DATASET_H_
