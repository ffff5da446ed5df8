#include "data/dataset.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace hdidx::data {

namespace {

/// Rows AppendRows prefetches ahead of the one it copies. On 10k random
/// rows of a 96 MB set at d=60, 8 ahead copied them 3-4x faster than the
/// per-row Append loop into a reused buffer; 4 and 16 were no better.
constexpr size_t kGatherPrefetchRows = 8;

}  // namespace

Dataset::Dataset(size_t dim) : dim_(dim), size_(0) { HDIDX_CHECK(dim > 0); }

Dataset::Dataset(size_t n, size_t dim)
    : dim_(dim), size_(n), values_(n * dim, 0.0f) {
  HDIDX_CHECK(dim > 0);
}

void Dataset::Append(std::span<const float> point) {
  HDIDX_CHECK(point.size() == dim_);
  values_.insert(values_.end(), point.begin(), point.end());
  ++size_;
}

void Dataset::AppendRows(std::span<const float> source,
                         std::span<const size_t> rows) {
  HDIDX_CHECK(source.size() % dim_ == 0);
  if (rows.empty()) return;
  const size_t max_row = *std::max_element(rows.begin(), rows.end());
  HDIDX_CHECK(max_row < source.size() / dim_);
  const size_t begin = values_.size();
  values_.resize(begin + rows.size() * dim_);  // default-initialized floats
  float* out = values_.data() + begin;
  const size_t row_bytes = dim_ * sizeof(float);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i + kGatherPrefetchRows < rows.size()) {
      // Every cacheline of the row kGatherPrefetchRows ahead; an unaligned
      // row's last line is the one holding its last byte.
      const char* ahead = reinterpret_cast<const char*>(
          source.data() + rows[i + kGatherPrefetchRows] * dim_);
      for (size_t offset = 0; offset < row_bytes; offset += 64) {
        __builtin_prefetch(ahead + offset);
      }
      __builtin_prefetch(ahead + row_bytes - 1);
    }
    std::memcpy(out + i * dim_, source.data() + rows[i] * dim_, row_bytes);
  }
  size_ += rows.size();
}

void Dataset::Reserve(size_t n) { values_.reserve(n * dim_); }

geometry::BoundingBox Dataset::Bounds() const {
  return geometry::BoundingBox::OfPoints(values_, size_, dim_);
}

Dataset Dataset::Select(const std::vector<size_t>& indices) const {
  Dataset out(dim_);
  out.AppendRows(values_, indices);
  return out;
}

Dataset Dataset::ProjectPrefix(size_t k) const {
  HDIDX_CHECK(k > 0 && k <= dim_);
  Dataset out(k);
  out.Reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.Append(row(i).subspan(0, k));
  }
  return out;
}

}  // namespace hdidx::data
