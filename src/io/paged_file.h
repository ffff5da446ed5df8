#ifndef HDIDX_IO_PAGED_FILE_H_
#define HDIDX_IO_PAGED_FILE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "io/disk_model.h"
#include "io/io_stats.h"

namespace hdidx::io {

/// A simulated on-disk file of fixed-size records (d-dimensional float
/// points) packed into pages.
///
/// The backing store lives in RAM — the simulation is about *accounting*,
/// not persistence: every Read/Write is charged in page seeks and page
/// transfers exactly as a single-arm disk would incur them. A seek is
/// counted when the first page of an access is not the page immediately
/// following the last page touched (the paper's definition from Section 5:
/// "caused by reading a page not adjacent to the previously read page");
/// every page touched is one transfer.
///
/// The on-disk external bulk loader and the resampled predictor's k
/// consecutive disk areas (Figure 8) are both built on this class.
///
/// Thread-safety: NOT thread-safe, by design (see the audit note on
/// IoStats). Read/Write/ChargeAccess mutate the seek-head position
/// (`next_sequential_page_`) and the I/O counters, both of which are
/// order-sensitive — the single simulated disk arm is inherently serial.
/// All accounted I/O must stay on the orchestrating thread; parallel
/// sections may only touch the unaccounted `raw()` span (read-only).
class PagedFile {
 public:
  /// Creates an empty file for points of dimensionality `dim` under the
  /// given disk parameters.
  PagedFile(size_t dim, const DiskModel& disk);

  /// Convenience: materializes `data` on the simulated disk without charging
  /// I/O (the dataset is presumed to already exist on disk, as in the
  /// paper's setting).
  static PagedFile FromDataset(const data::Dataset& data,
                               const DiskModel& disk);

  size_t size() const { return num_points_; }
  size_t dim() const { return dim_; }
  const DiskModel& disk() const { return disk_; }

  /// Points per page for this file's record size.
  size_t points_per_page() const { return points_per_page_; }

  /// Total pages currently occupied.
  size_t num_pages() const;

  /// Grows or shrinks the file to `n` points (new space zero-filled, not
  /// charged — allocation is metadata, not data movement).
  void Resize(size_t n);

  /// Reads `count` points starting at point index `start` into `out`
  /// (capacity count*dim). Charges transfers for every page overlapping the
  /// range and a seek if the range does not continue the previous access.
  void Read(size_t start, size_t count, float* out);

  /// Writes `count` points starting at point index `start` from `src`.
  /// Same charging rule as Read.
  void Write(size_t start, size_t count, const float* src);

  /// Reads the whole file as a Dataset, charged as one sequential scan.
  data::Dataset ReadAll();

  /// Charges the I/O of touching `count` points starting at `start` without
  /// moving bytes. Used where the simulation knows data flows but the
  /// in-memory model shortcut avoids an actual copy.
  void ChargeAccess(size_t start, size_t count);

  /// Charges one explicit seek (e.g. repositioning between disk areas).
  void ChargeSeek();

  /// Marks the head as moved away (by I/O on another file sharing the
  /// disk) without charging anything: the next access will pay its seek.
  void InvalidateHead() { next_sequential_page_ = kNoHead; }

  /// Accumulated I/O counters since construction or the last ResetStats().
  const IoStats& stats() const { return stats_; }
  void ResetStats();

  /// Direct unaccounted access for verification and tests.
  std::span<const float> raw() const { return store_; }
  std::span<float> raw_mutable() { return store_; }

 private:
  /// First and last page of a point range; charges the access.
  void Charge(size_t start, size_t count);

  size_t dim_;
  DiskModel disk_;
  size_t points_per_page_;
  size_t num_points_ = 0;
  std::vector<float> store_;
  IoStats stats_;
  // Page index following the last page accessed; access starting there is
  // sequential. kNoHead means no access yet (first access always seeks).
  static constexpr size_t kNoHead = static_cast<size_t>(-1);
  size_t next_sequential_page_ = kNoHead;
};

}  // namespace hdidx::io

#endif  // HDIDX_IO_PAGED_FILE_H_
