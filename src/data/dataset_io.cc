#include "data/dataset_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

namespace hdidx::data {

namespace {

constexpr char kMagic[4] = {'H', 'D', 'I', 'X'};
constexpr uint32_t kVersion = 1;
// Row ids are uint32_t throughout the index code.
constexpr uint64_t kMaxPoints = UINT32_MAX;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t num_points;
  uint64_t dim;
};

}  // namespace

bool WriteDataset(const Dataset& data, const std::string& path,
                  std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "cannot open for writing: " + path;
    return false;
  }
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.num_points = data.size();
  header.dim = data.dim();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  const auto buf = data.data();
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(float)));
  if (!out) {
    *error = "short write: " + path;
    return false;
  }
  return true;
}

std::optional<Dataset> ReadDataset(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open for reading: " + path;
    return std::nullopt;
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    *error = "bad magic or truncated header: " + path;
    return std::nullopt;
  }
  if (header.version != kVersion) {
    *error = "unsupported version in " + path;
    return std::nullopt;
  }
  if (header.dim == 0) {
    *error = "zero dimensionality in " + path;
    return std::nullopt;
  }
  // Nothing is allocated until the header agrees with the file: the point
  // count fits the bulk loaders' 32-bit row ids, and the header plus the
  // N * dim floats it claims (overflow-checked) is exactly the file size.
  if (header.num_points > kMaxPoints) {
    *error = "point count " + std::to_string(header.num_points) +
             " exceeds the 32-bit row id limit in " + path;
    return std::nullopt;
  }
  uint64_t payload_bytes = 0;
  uint64_t file_bytes = 0;
  if (__builtin_mul_overflow(header.num_points, header.dim, &payload_bytes) ||
      __builtin_mul_overflow(payload_bytes, uint64_t{sizeof(float)},
                             &payload_bytes) ||
      __builtin_add_overflow(payload_bytes, uint64_t{sizeof(Header)},
                             &file_bytes)) {
    *error = "header size overflows in " + path;
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::streamoff actual_bytes = in.tellg();
  in.seekg(sizeof(Header), std::ios::beg);
  if (!in || actual_bytes < 0) {
    *error = "cannot determine the size of " + path +
             " (not a regular file?)";
    return std::nullopt;
  }
  if (static_cast<uint64_t>(actual_bytes) != file_bytes) {
    *error = "header claims " + std::to_string(header.num_points) + " x " +
             std::to_string(header.dim) + " floats (" +
             std::to_string(file_bytes) + " bytes) but the file has " +
             std::to_string(actual_bytes) + " bytes: " + path;
    return std::nullopt;
  }
  // Read straight into the dataset's storage: the file's payload is
  // allocated once, not once here and again by a copying constructor.
  Dataset dataset(static_cast<size_t>(header.num_points),
                  static_cast<size_t>(header.dim));
  in.read(reinterpret_cast<char*>(dataset.mutable_data().data()),
          static_cast<std::streamsize>(payload_bytes));
  if (!in) {
    *error = "truncated payload: " + path;
    return std::nullopt;
  }
  return dataset;
}

}  // namespace hdidx::data
