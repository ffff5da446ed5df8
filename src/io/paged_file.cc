#include "io/paged_file.h"

#include <cstring>

#include "common/check.h"

namespace hdidx::io {

PagedFile::PagedFile(size_t dim, const DiskModel& disk)
    : dim_(dim), disk_(disk), accountant_(disk.PointsPerPage(dim), 0) {
  HDIDX_CHECK(dim > 0);
}

PagedFile PagedFile::FromDataset(const data::Dataset& data,
                                 const DiskModel& disk) {
  PagedFile file(data.dim(), disk);
  file.accountant_.Resize(data.size());
  file.store_.assign(data.data().begin(), data.data().end());
  return file;
}

PagedFile PagedFile::View(const data::Dataset& data, const DiskModel& disk) {
  PagedFile file(data.dim(), disk);
  file.accountant_.Resize(data.size());
  file.is_view_ = true;
  file.view_ = data.data();
  return file;
}

void PagedFile::Resize(size_t n) {
  HDIDX_CHECK(!is_view_) << "Resize on a read-only PagedFile view";
  accountant_.Resize(n);
  store_.resize(n * dim_, 0.0f);
}

std::span<float> PagedFile::raw_mutable() {
  HDIDX_CHECK(!is_view_) << "raw_mutable on a read-only PagedFile view";
  return store_;
}

void PagedFile::Write(size_t start, size_t count, const float* src) {
  HDIDX_CHECK(!is_view_) << "Write on a read-only PagedFile view";
  HDIDX_CHECK(start + count <= size());
  accountant_.ChargeAccess(start, count);
  std::memcpy(store_.data() + start * dim_, src,
              count * dim_ * sizeof(float));
}

}  // namespace hdidx::io
