#ifndef HDIDX_IO_PAGED_FILE_H_
#define HDIDX_IO_PAGED_FILE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "io/disk_model.h"
#include "io/io_stats.h"
#include "io/page_accountant.h"

namespace hdidx::io {

/// A simulated on-disk file of fixed-size records (d-dimensional float
/// points) packed into pages.
///
/// The points live in RAM — the simulation is about *accounting*, not
/// persistence. A reader charges the pages it touches with ChargeAccess and
/// reads the points in place through raw(); Write charges the same way and
/// copies. The file's PageAccountant charges page seeks and page transfers
/// exactly as a single-arm disk would incur them (see PageAccountant for
/// the seek rule).
///
/// A file comes in one of two kinds:
///   - owned (the constructor, FromDataset): the file holds its own
///     writable copy of the points. The on-disk external bulk loader
///     rewrites its file in place and needs this kind.
///   - view (View): the file borrows a dataset's immutable row-major
///     span, copies nothing and is read-only. The predictors only read
///     and charge their data file, so they run on a view. Write, Resize
///     and raw_mutable are contract failures on a view, and the borrowed
///     dataset must outlive the file.
///
/// Thread-safety: NOT thread-safe, by design (see the audit note on
/// IoStats). Write and ChargeAccess mutate the accountant's head position
/// and I/O counters, both of which are order-sensitive — the single
/// simulated disk arm is inherently serial. All accounted I/O must stay on
/// the orchestrating thread; parallel sections may only touch the
/// unaccounted `raw()` span (read-only).
class PagedFile {
 public:
  /// Creates an empty owned file for points of dimensionality `dim` under
  /// the given disk parameters.
  PagedFile(size_t dim, const DiskModel& disk);

  /// An owned, writable copy of `data` on the simulated disk, made without
  /// charging I/O (the dataset is presumed to already exist on disk, as in
  /// the paper's setting).
  static PagedFile FromDataset(const data::Dataset& data,
                               const DiskModel& disk);

  /// A read-only view of `data` on the simulated disk: no copy, no charge.
  /// `data` must outlive the file and stay unmodified while it is read.
  static PagedFile View(const data::Dataset& data, const DiskModel& disk);
  static PagedFile View(const data::Dataset&& data,
                        const DiskModel& disk) = delete;

  size_t size() const { return accountant_.size(); }
  size_t dim() const { return dim_; }
  const DiskModel& disk() const { return disk_; }
  bool is_view() const { return is_view_; }

  /// Points per page for this file's record size.
  size_t points_per_page() const { return accountant_.points_per_page(); }

  /// Total pages currently occupied.
  size_t num_pages() const { return accountant_.num_pages(); }

  /// Grows or shrinks an owned file to `n` points (new space zero-filled,
  /// not charged — allocation is metadata, not data movement).
  void Resize(size_t n);

  /// Writes `count` points of an owned file starting at point index
  /// `start` from `src`. Same charging rule as ChargeAccess.
  void Write(size_t start, size_t count, const float* src);

  /// Charges reading `count` points starting at point index `start`: a
  /// transfer for every page overlapping the range and a seek if the range
  /// does not continue the previous access. Moves no bytes; the reader
  /// then reads the points in place through raw().
  void ChargeAccess(size_t start, size_t count) {
    accountant_.ChargeAccess(start, count);
  }

  /// Charges one explicit seek (e.g. repositioning between disk areas).
  void ChargeSeek() { accountant_.ChargeSeek(); }

  /// Marks the head as moved away (by I/O on another file sharing the
  /// disk) without charging anything: the next access will pay its seek.
  void InvalidateHead() { accountant_.InvalidateHead(); }

  /// Accumulated I/O counters since construction or the last ResetStats().
  const IoStats& stats() const { return accountant_.stats(); }
  void ResetStats() { accountant_.ResetStats(); }

  /// Direct unaccounted access to the points: every read of the file goes
  /// through here, its I/O charged separately by ChargeAccess.
  std::span<const float> raw() const {
    return is_view_ ? view_ : std::span<const float>(store_);
  }
  /// Mutable access to an owned file's points.
  std::span<float> raw_mutable();

 private:
  size_t dim_;
  DiskModel disk_;
  PageAccountant accountant_;
  bool is_view_ = false;
  std::vector<float> store_;      // an owned file's points
  std::span<const float> view_;   // a view's borrowed points
};

}  // namespace hdidx::io

#endif  // HDIDX_IO_PAGED_FILE_H_
