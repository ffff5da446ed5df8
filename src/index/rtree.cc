#include "index/rtree.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace hdidx::index {

RTree::RTree(size_t dim) : dim_(dim) { HDIDX_CHECK(dim > 0); }

size_t RTree::root_level() const {
  HDIDX_CHECK(!nodes_.empty());
  return nodes_[root_].level;
}

uint32_t RTree::AddLeaf(geometry::BoundingBox box, uint32_t level,
                        uint32_t start, uint32_t count) {
  HDIDX_CHECK(box.dim() == dim_);
  RTreeNode node(dim_);
  node.box = std::move(box);
  node.level = level;
  node.start = start;
  node.count = count;
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  child_slabs_.emplace_back();
  leaf_ids_.push_back(id);
  return id;
}

uint32_t RTree::AddDirectory(uint32_t level,
                             std::span<const uint32_t> children) {
  HDIDX_CHECK(!children.empty());
  RTreeNode node(dim_);
  node.level = level;
  std::vector<const geometry::BoundingBox*> child_boxes;
  child_boxes.reserve(children.size());
  for (uint32_t child : children) {
    HDIDX_CHECK(child < nodes_.size());
    node.box.ExtendBox(nodes_[child].box);
    child_boxes.push_back(&nodes_[child].box);
  }
  // The id array is copied into the tree's arena (first touch happens here, on
  // the building thread), so directory payloads and slab planes share the
  // same few cacheline-aligned blocks.
  uint32_t* ids = arena_.AllocateArray<uint32_t>(children.size());
  std::copy(children.begin(), children.end(), ids);
  node.children = std::span<const uint32_t>(ids, children.size());
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  // Child MBRs are final once their nodes exist (construction is bottom-up
  // and boxes are never mutated afterwards), so the slab copies them now
  // and serves the node's whole lifetime. Built before the push_back below:
  // growing nodes_ relocates the child boxes the pointers reference.
  child_slabs_.emplace_back(std::span<const geometry::BoundingBox* const>(
                                child_boxes.data(), child_boxes.size()),
                            &arena_);
  nodes_.push_back(std::move(node));
  return id;
}

double RTree::TotalLeafVolume() const {
  double v = 0.0;
  for (uint32_t id : leaf_ids_) v += nodes_[id].box.Volume();
  return v;
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashU64(uint64_t value, uint64_t* hash) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xffULL;
    *hash *= kFnvPrime;
  }
}

void HashFloatBits(const std::vector<float>& values, uint64_t* hash) {
  for (const float v : values) {
    uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    HashU64(bits, hash);
  }
}

}  // namespace

uint64_t TreeLayoutDigest(const RTree& tree) {
  uint64_t hash = kFnvOffset;
  HashU64(tree.dim(), &hash);
  HashU64(tree.num_nodes(), &hash);
  if (tree.empty()) return hash;
  HashU64(tree.root(), &hash);
  std::vector<uint32_t> frontier = {tree.root()};
  while (!frontier.empty()) {
    std::vector<uint32_t> next;
    for (const uint32_t id : frontier) {
      const RTreeNode& node = tree.node(id);
      HashU64(id, &hash);
      HashU64(node.level, &hash);
      HashU64(node.children.size(), &hash);
      HashU64(node.pages, &hash);
      if (node.is_leaf()) {
        HashU64(node.start, &hash);
        HashU64(node.count, &hash);
      } else {
        next.insert(next.end(), node.children.begin(), node.children.end());
      }
      HashFloatBits(node.box.lo(), &hash);
      HashFloatBits(node.box.hi(), &hash);
    }
    frontier = std::move(next);
  }
  return hash;
}

}  // namespace hdidx::index
