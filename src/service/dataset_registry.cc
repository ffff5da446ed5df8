#include "service/dataset_registry.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "data/csv.h"
#include "data/dataset_io.h"

namespace hdidx::service {

std::string Echo(std::string_view text) {
  if (text.size() <= kMaxEchoBytes) return std::string(text);
  return std::string(text.substr(0, kMaxEchoBytes)) + "...";
}

DatasetRegistry::DatasetRegistry(size_t num_shards)
    : num_shards_(std::max<size_t>(1, num_shards)) {}

bool DatasetRegistry::LoadFile(const std::string& name,
                               const std::string& path, std::string* error) {
  std::optional<data::Dataset> loaded;
  std::string io_error;
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv") {
    loaded = data::ReadCsv(path, data::CsvOptions{}, &io_error);
  } else {
    loaded = data::ReadDataset(path, &io_error);
  }
  if (!loaded.has_value()) {
    if (error != nullptr) {
      *error = "cannot read " + Echo(path) + ": " + Echo(io_error);
    }
    return false;
  }
  return Add(name, std::move(*loaded), error);
}

bool DatasetRegistry::Add(const std::string& name, data::Dataset dataset,
                          std::string* error) {
  if (name.empty()) {
    if (error != nullptr) *error = "dataset name must be non-empty";
    return false;
  }
  if (datasets_.count(name) != 0) {
    if (error != nullptr) {
      *error = "dataset already registered: " + Echo(name);
    }
    return false;
  }
  if (dataset.empty()) {
    if (error != nullptr) *error = "dataset is empty: " + Echo(name);
    return false;
  }
  datasets_[name] = std::make_unique<data::Dataset>(std::move(dataset));
  return true;
}

const data::Dataset* DatasetRegistry::Find(const std::string& name) const {
  const auto it = datasets_.find(name);
  return it != datasets_.end() ? it->second.get() : nullptr;
}

size_t DatasetRegistry::ShardOf(const std::string& name) const {
  // FNV-1a, 64-bit: stable across platforms and standard-library versions
  // (std::hash is not), so routing never changes under a rebuild.
  uint64_t h = 14695981039346656037ull;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % num_shards_);
}

}  // namespace hdidx::service
