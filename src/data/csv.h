#ifndef HDIDX_DATA_CSV_H_
#define HDIDX_DATA_CSV_H_

#include <optional>
#include <string>

#include "data/dataset.h"

namespace hdidx::data {

/// Options for CSV import.
struct CsvOptions {
  char delimiter = ',';
  /// Skip the first line (column headers).
  bool has_header = false;
  /// Ignore this many leading columns per row (id/label columns).
  size_t skip_columns = 0;
};

/// Reads a dataset from a delimiter-separated text file: one point per
/// line, one coordinate per field. The dimensionality is inferred from the
/// first data row; every subsequent row must match it. Returns std::nullopt
/// and fills `*error` (with a line number) on malformed input.
///
/// This is the practical ingestion path for users with their own feature
/// vectors: `hdidx_gen` covers synthetic data, CSV covers everything else.
std::optional<Dataset> ReadCsv(const std::string& path,
                               const CsvOptions& options, std::string* error);

}  // namespace hdidx::data

#endif  // HDIDX_DATA_CSV_H_
