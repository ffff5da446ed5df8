#ifndef HDIDX_IO_DISK_MODEL_H_
#define HDIDX_IO_DISK_MODEL_H_

#include <cstddef>

#include "common/check.h"

namespace hdidx::io {

/// Parameters of the simulated hard disk.
///
/// The paper assumes an average seek-plus-latency time of 10 ms and a
/// transfer bandwidth of 20 MB/s, giving 0.4 ms per 8 KB page (Section 4.6,
/// footnote 7). All reported "I/O cost" numbers are seek/transfer counts
/// converted to seconds with these constants; this struct is that
/// conversion.
struct DiskModel {
  /// Average seek plus rotational latency per random access, in seconds.
  double seek_time_s = 0.010;
  /// Transfer time for one page of kReferencePageBytes, in seconds.
  double transfer_time_8k_s = 0.0004;
  /// Page size in bytes. Changing it scales the per-page transfer time
  /// proportionally (the page-size tuning application sweeps this).
  size_t page_bytes = kReferencePageBytes;

  static constexpr size_t kReferencePageBytes = 8192;

  /// Transfer time of one page of the configured size, in seconds.
  double transfer_time_s() const {
    return transfer_time_8k_s * static_cast<double>(page_bytes) /
           static_cast<double>(kReferencePageBytes);
  }

  /// Number of `dim`-dimensional float points that fit in one page
  /// (at least 1 so degenerate configurations stay well-formed).
  size_t PointsPerPage(size_t dim) const;

  /// Seconds for a given number of seeks and page transfers. Counts may be
  /// fractional (expected values) but a negative count always means some
  /// accounting subtraction drifted.
  double Seconds(double seeks, double transfers) const {
    HDIDX_CHECK(seeks >= 0.0 && transfers >= 0.0)
        << "negative I/O counts: seeks=" << seeks
        << " transfers=" << transfers;
    return seeks * seek_time_s + transfers * transfer_time_s();
  }
};

}  // namespace hdidx::io

#endif  // HDIDX_IO_DISK_MODEL_H_
