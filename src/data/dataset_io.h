#ifndef HDIDX_DATA_DATASET_IO_H_
#define HDIDX_DATA_DATASET_IO_H_

#include <optional>
#include <string>

#include "data/dataset.h"

namespace hdidx::data {

/// Binary on-disk dataset format: a fixed little-endian header
/// (magic "HDIX", version, point count, dimensionality) followed by the
/// row-major float payload. This is the file layout the simulated disk scans
/// assume: N*dim*4 bytes of points packed into 8 KB pages.
///
/// Writes `data` to `path`. Returns false and fills `*error` on failure.
bool WriteDataset(const Dataset& data, const std::string& path,
                  std::string* error);

/// Reads a dataset previously written by WriteDataset. `path` must name a
/// regular file: its size is checked, so a pipe or FIFO is rejected.
/// Returns std::nullopt and fills `*error` on failure (missing file, bad
/// magic, zero dimensionality, more than 2^32 - 1 points, a file whose size
/// cannot be determined, or one whose length is not exactly the header plus
/// the N * dim floats the header claims). The header is checked against the
/// file before anything is allocated.
std::optional<Dataset> ReadDataset(const std::string& path,
                                   std::string* error);

}  // namespace hdidx::data

#endif  // HDIDX_DATA_DATASET_IO_H_
