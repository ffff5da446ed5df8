#include "index/tree_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

namespace hdidx::index {

namespace {

constexpr char kMagic[4] = {'H', 'D', 'R', 'T'};
constexpr uint32_t kVersion = 1;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t dim;
  uint64_t num_nodes;
  uint64_t order_size;
  uint32_t root;
  uint32_t reserved;
};

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

bool WriteTree(const RTree& tree, const std::string& path,
               std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "cannot open for writing: " + path;
    return false;
  }
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.dim = tree.dim();
  header.num_nodes = tree.num_nodes();
  header.order_size = tree.order().size();
  header.root = tree.root();
  header.reserved = 0;
  WritePod(out, header);

  if (!tree.order().empty()) {
    out.write(reinterpret_cast<const char*>(tree.order().data()),
              static_cast<std::streamsize>(tree.order().size() *
                                           sizeof(uint32_t)));
  }
  for (uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const RTreeNode& node = tree.node(id);
    WritePod(out, node.level);
    WritePod(out, node.start);
    WritePod(out, node.count);
    const uint32_t num_children = static_cast<uint32_t>(node.children.size());
    WritePod(out, num_children);
    if (num_children > 0) {
      out.write(reinterpret_cast<const char*>(node.children.data()),
                static_cast<std::streamsize>(num_children * sizeof(uint32_t)));
    }
    const uint8_t has_box = node.box.empty() ? 0 : 1;
    WritePod(out, has_box);
    if (has_box) {
      out.write(reinterpret_cast<const char*>(node.box.lo().data()),
                static_cast<std::streamsize>(tree.dim() * sizeof(float)));
      out.write(reinterpret_cast<const char*>(node.box.hi().data()),
                static_cast<std::streamsize>(tree.dim() * sizeof(float)));
    }
  }
  if (!out) {
    *error = "short write: " + path;
    return false;
  }
  return true;
}

std::optional<RTree> ReadTree(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open for reading: " + path;
    return std::nullopt;
  }
  Header header;
  if (!ReadPod(in, &header) ||
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    *error = "bad magic or truncated header: " + path;
    return std::nullopt;
  }
  if (header.version != kVersion || header.dim == 0) {
    *error = "unsupported version or dimensionality in " + path;
    return std::nullopt;
  }
  const size_t dim = static_cast<size_t>(header.dim);
  RTree tree(dim);

  std::vector<uint32_t> order(header.order_size);
  if (!order.empty()) {
    in.read(reinterpret_cast<char*>(order.data()),
            static_cast<std::streamsize>(order.size() * sizeof(uint32_t)));
    if (!in) {
      *error = "truncated order array: " + path;
      return std::nullopt;
    }
  }

  std::vector<float> lo(dim), hi(dim);
  for (uint64_t id = 0; id < header.num_nodes; ++id) {
    uint32_t level, start, count, num_children;
    if (!ReadPod(in, &level) || !ReadPod(in, &start) || !ReadPod(in, &count) ||
        !ReadPod(in, &num_children)) {
      *error = "truncated node header: " + path;
      return std::nullopt;
    }
    std::vector<uint32_t> children(num_children);
    if (num_children > 0) {
      in.read(reinterpret_cast<char*>(children.data()),
              static_cast<std::streamsize>(num_children * sizeof(uint32_t)));
    }
    uint8_t has_box = 0;
    if (!ReadPod(in, &has_box)) {
      *error = "truncated node: " + path;
      return std::nullopt;
    }
    geometry::BoundingBox box(dim);
    if (has_box) {
      in.read(reinterpret_cast<char*>(lo.data()),
              static_cast<std::streamsize>(dim * sizeof(float)));
      in.read(reinterpret_cast<char*>(hi.data()),
              static_cast<std::streamsize>(dim * sizeof(float)));
      if (!in) {
        *error = "truncated box: " + path;
        return std::nullopt;
      }
      box = geometry::BoundingBox(lo, hi);
    }
    if (num_children == 0) {
      tree.AddLeaf(std::move(box), level, start, count);
    } else {
      // Children must already exist (writer emits construction order).
      for (uint32_t child : children) {
        if (child >= tree.num_nodes()) {
          *error = "forward child reference in " + path;
          return std::nullopt;
        }
      }
      tree.AddDirectory(level, children);
    }
  }
  if (header.root >= tree.num_nodes()) {
    *error = "root out of range in " + path;
    return std::nullopt;
  }
  tree.SetRoot(header.root);
  tree.SetOrder(std::move(order));
  return tree;
}

}  // namespace hdidx::index
