#include "io/page_accountant.h"

#include "common/check.h"

namespace hdidx::io {

PageAccountant::PageAccountant(size_t points_per_page, size_t num_points)
    : points_per_page_(points_per_page), num_points_(num_points) {
  HDIDX_CHECK(points_per_page > 0);
}

size_t PageAccountant::num_pages() const {
  return (num_points_ + points_per_page_ - 1) / points_per_page_;
}

void PageAccountant::ChargeAccess(size_t start, size_t count) {
  HDIDX_CHECK(start + count <= num_points_ || count == 0);
  if (count == 0) return;
  const size_t first_page = start / points_per_page_;
  const size_t last_page = (start + count - 1) / points_per_page_;
  if (first_page != next_sequential_page_) {
    ++stats_.page_seeks;
  }
  stats_.page_transfers += last_page - first_page + 1;
  next_sequential_page_ = last_page + 1;
}

void PageAccountant::ChargeSeek() {
  ++stats_.page_seeks;
  next_sequential_page_ = kNoHead;
}

void PageAccountant::ResetStats() {
  stats_ = IoStats{};
  next_sequential_page_ = kNoHead;
}

}  // namespace hdidx::io
