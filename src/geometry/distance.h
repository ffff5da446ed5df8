#ifndef HDIDX_GEOMETRY_DISTANCE_H_
#define HDIDX_GEOMETRY_DISTANCE_H_

#include <span>

#include "geometry/bounding_box.h"

namespace hdidx::geometry {

/// Squared Euclidean (L2) distance between two points of equal size.
double SquaredL2(std::span<const float> a, std::span<const float> b);

/// Euclidean (L2) distance between two points of equal size.
double L2(std::span<const float> a, std::span<const float> b);

/// MINDIST: the smallest Euclidean distance between `point` and any point of
/// `box` (0 if the point is inside). This is the standard R-tree pruning
/// metric; a k-NN sphere of radius r intersects `box` iff
/// MinDist(point, box) <= r.
double MinDist(std::span<const float> point, const BoundingBox& box);

/// Squared MINDIST; cheaper when only comparisons against a squared radius
/// are needed.
double SquaredMinDist(std::span<const float> point, const BoundingBox& box);

/// True iff the sphere (center, radius) intersects `box`, i.e. the query
/// region of an NN query with this radius would access a page with this MBR.
/// Requires radius >= 0 (a NaN radius fails the check too — it used to make
/// every page count as missed, silently).
bool SphereIntersectsBox(std::span<const float> center, double radius,
                         const BoundingBox& box);

/// Natural log of the volume of the d-dimensional unit hypersphere,
/// log(pi^(d/2) / Gamma(d/2 + 1)), via the log-gamma function: the volume
/// itself underflows in hundreds of dimensions.
double LogUnitSphereVolume(size_t dim);

}  // namespace hdidx::geometry

#endif  // HDIDX_GEOMETRY_DISTANCE_H_
