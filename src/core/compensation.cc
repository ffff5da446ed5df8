#include "core/compensation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace hdidx::core {

double CompensationGrowthPerDim(double capacity, double zeta) {
  if (zeta >= 1.0) return 1.0;
  // Clamp into the theorem's domain: the full page must hold more than one
  // point and the sampled page at least slightly more than one, otherwise
  // there is no extent to compare. A sampled page at the clamp (1.5 points)
  // caps the per-dimension growth at 5*(C-1)/(C+1) < 5 — unbounded growth
  // from near-single-point pages would dominate every prediction.
  const double c = std::max(capacity, 1.5);
  const double kMinSampledPoints = 1.5;
  const double c_zeta = std::max(c * zeta, kMinSampledPoints);
  return ((c_zeta + 1.0) * (c - 1.0)) / ((c_zeta - 1.0) * (c + 1.0));
}

double CompensationDelta(double capacity, double zeta, size_t dim) {
  return std::pow(CompensationGrowthPerDim(capacity, zeta),
                  static_cast<double>(dim));
}

void AppendGrownLeaves(const index::RTree& tree, double zeta, bool compensate,
                       std::vector<geometry::BoundingBox>* boxes,
                       std::vector<double>* full_points) {
  for (const uint32_t id : tree.leaf_ids()) {
    const index::RTreeNode& node = tree.node(id);
    const double full = static_cast<double>(node.count) / zeta;
    geometry::BoundingBox box = node.box;
    if (compensate) {
      box.InflateAboutCenter(CompensationGrowthPerDim(full, zeta));
    }
    boxes->push_back(std::move(box));
    if (full_points != nullptr) full_points->push_back(full);
  }
}

}  // namespace hdidx::core
