#include "data/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace hdidx::data {

namespace {

/// Splits `line` on the delimiter; empty fields stay empty.
std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, delimiter)) {
    fields.push_back(field);
  }
  if (!line.empty() && line.back() == delimiter) fields.emplace_back();
  return fields;
}

bool ParseFloat(const std::string& field, float* out) {
  const char* begin = field.c_str();
  char* end = nullptr;
  errno = 0;
  const float value = std::strtof(begin, &end);
  if (end == begin || errno == ERANGE) return false;
  // Trailing whitespace is fine; trailing garbage is not.
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  if (*end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

std::optional<Dataset> ReadCsv(const std::string& path,
                               const CsvOptions& options,
                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open for reading: " + path;
    return std::nullopt;
  }
  std::string line;
  size_t line_number = 0;
  size_t dim = 0;
  Dataset dataset(1);
  std::vector<float> point;
  bool first_data_row = true;

  while (std::getline(in, line)) {
    ++line_number;
    if (line_number == 1 && options.has_header) continue;
    // Skip blank lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    const std::vector<std::string> fields =
        SplitLine(line, options.delimiter);
    if (fields.size() <= options.skip_columns) {
      *error = path + ":" + std::to_string(line_number) +
               ": fewer fields than skip_columns";
      return std::nullopt;
    }
    const size_t coords = fields.size() - options.skip_columns;
    if (first_data_row) {
      dim = coords;
      dataset = Dataset(dim);
      point.resize(dim);
      first_data_row = false;
    } else if (coords != dim) {
      *error = path + ":" + std::to_string(line_number) + ": expected " +
               std::to_string(dim) + " coordinates, got " +
               std::to_string(coords);
      return std::nullopt;
    }
    for (size_t k = 0; k < dim; ++k) {
      if (!ParseFloat(fields[options.skip_columns + k], &point[k])) {
        *error = path + ":" + std::to_string(line_number) +
                 ": cannot parse '" + fields[options.skip_columns + k] + "'";
        return std::nullopt;
      }
    }
    dataset.Append(point);
  }
  if (first_data_row) {
    *error = "no data rows in " + path;
    return std::nullopt;
  }
  return dataset;
}

}  // namespace hdidx::data
