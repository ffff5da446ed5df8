#include "geometry/distance.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace hdidx::geometry {

double SquaredL2(std::span<const float> a, std::span<const float> b) {
  HDIDX_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double diff = static_cast<double>(a[d]) - b[d];
    s += diff * diff;
  }
  return s;
}

double L2(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(SquaredL2(a, b));
}

double SquaredMinDist(std::span<const float> point, const BoundingBox& box) {
  HDIDX_DCHECK(point.size() == box.dim());
  if (box.empty()) return std::numeric_limits<double>::infinity();
  double s = 0.0;
  const auto& lo = box.lo();
  const auto& hi = box.hi();
  for (size_t d = 0; d < point.size(); ++d) {
    double diff = 0.0;
    if (point[d] < lo[d]) {
      diff = static_cast<double>(lo[d]) - point[d];
    } else if (point[d] > hi[d]) {
      diff = static_cast<double>(point[d]) - hi[d];
    }
    s += diff * diff;
  }
  return s;
}

double MinDist(std::span<const float> point, const BoundingBox& box) {
  return std::sqrt(SquaredMinDist(point, box));
}

bool SphereIntersectsBox(std::span<const float> center, double radius,
                         const BoundingBox& box) {
  HDIDX_CHECK(radius >= 0.0) << "query sphere radius must be non-negative";
  return SquaredMinDist(center, box) <= radius * radius;
}

double LogUnitSphereVolume(size_t dim) {
  const double d = static_cast<double>(dim);
  return 0.5 * d * std::log(M_PI) - std::lgamma(0.5 * d + 1.0);
}

}  // namespace hdidx::geometry
