#ifndef HDIDX_CORE_COMPENSATION_H_
#define HDIDX_CORE_COMPENSATION_H_

#include <cstddef>
#include <vector>

#include "geometry/bounding_box.h"
#include "index/rtree.h"

namespace hdidx::core {

/// Theorem 1 (Section 3.2): under within-page uniformity, reducing the
/// number of points in a page from C to C*zeta shrinks the MBR volume by
///
///   delta(C, zeta)^-1 = ( (C*zeta - 1)(C + 1) / ((C*zeta + 1)(C - 1)) )^d.
///
/// The underlying fact is one-dimensional: the MBR of n uniform points in an
/// interval of length L spans an expected L*(n-1)/(n+1), so each side of the
/// box shrinks by the ratio of those expectations.
///
/// These functions return the *growth* quantities used to compensate: the
/// per-dimension factor to inflate a sampled page's sides by, and the
/// volume factor delta itself.

/// Per-dimension growth ratio ((C*zeta + 1)(C - 1)) / ((C*zeta - 1)(C + 1)).
/// Defined for C > 1 and C*zeta > 1; inputs below those bounds are clamped
/// (a page of a single point has no extent to rescale — the paper's
/// observation that the sample rate can never be below 1/C). zeta >= 1
/// returns exactly 1.
double CompensationGrowthPerDim(double capacity, double zeta);

/// The volume growth factor delta(C, zeta) = growth^dim.
double CompensationDelta(double capacity, double zeta, size_t dim);

/// Appends the leaf boxes of `tree`, a build over a zeta-sample, to `boxes`
/// in leaf order. With `compensate` each box is grown about its center by
/// CompensationGrowthPerDim at the leaf's own estimated full occupancy
/// count / zeta (the per-page analogue of C_eff,data); otherwise the raw
/// boxes are appended. `full_points`, when non-null, receives each leaf's
/// count / zeta in the same order.
void AppendGrownLeaves(const index::RTree& tree, double zeta, bool compensate,
                       std::vector<geometry::BoundingBox>* boxes,
                       std::vector<double>* full_points);

}  // namespace hdidx::core

#endif  // HDIDX_CORE_COMPENSATION_H_
