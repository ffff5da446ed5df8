#ifndef HDIDX_IO_PAGE_ACCOUNTANT_H_
#define HDIDX_IO_PAGE_ACCOUNTANT_H_

#include <cstddef>

#include "io/io_stats.h"

namespace hdidx::io {

/// The I/O accounting of one simulated file of fixed-size records on a
/// single-arm disk: the one place page seeks and page transfers are
/// charged. It holds no bytes, only the file's length in points, its
/// points per page, the head position and the counters.
///
/// A seek is counted when the first page of an access is not the page
/// immediately following the last page touched (the paper's definition
/// from Section 5: "caused by reading a page not adjacent to the
/// previously read page"); every page touched is one transfer.
///
/// io::PagedFile owns one for its stored or borrowed points. A predictor
/// that only needs a disk area's cost (the resampled predictor's k areas,
/// Figure 8) charges a bare accountant instead of materializing the area.
///
/// Thread-safety: NOT thread-safe, by design (see the audit note on
/// IoStats): the head position and the counters are order-sensitive.
class PageAccountant {
 public:
  PageAccountant(size_t points_per_page, size_t num_points);

  size_t size() const { return num_points_; }
  size_t points_per_page() const { return points_per_page_; }

  /// Pages occupied by size() points.
  size_t num_pages() const;

  /// Sets the file's length (not charged: allocation is metadata).
  void Resize(size_t n) { num_points_ = n; }

  /// Charges touching `count` points starting at point `start`: a transfer
  /// for every page overlapping the range, and a seek if the range does
  /// not continue the previous access.
  void ChargeAccess(size_t start, size_t count);

  /// Charges one explicit seek (e.g. repositioning between disk areas).
  void ChargeSeek();

  /// Marks the head as moved away (by I/O on another file sharing the
  /// disk) without charging anything: the next access will pay its seek.
  void InvalidateHead() { next_sequential_page_ = kNoHead; }

  /// Counters since construction or the last ResetStats().
  const IoStats& stats() const { return stats_; }

  /// Clears the counters and the head position.
  void ResetStats();

 private:
  // Page index following the last page accessed; access starting there is
  // sequential. kNoHead means no access yet (first access always seeks).
  static constexpr size_t kNoHead = static_cast<size_t>(-1);

  size_t points_per_page_;
  size_t num_points_;
  IoStats stats_;
  size_t next_sequential_page_ = kNoHead;
};

}  // namespace hdidx::io

#endif  // HDIDX_IO_PAGE_ACCOUNTANT_H_
