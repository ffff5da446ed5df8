#ifndef HDIDX_CORE_HUPPER_H_
#define HDIDX_CORE_HUPPER_H_

#include <cstddef>

#include "index/topology.h"

namespace hdidx::core {

/// Helpers for choosing the upper-tree height h_upper (Section 4.5).
///
/// The upper tree spans full-tree levels height .. height-h_upper+1; its
/// leaves sit at StopLevel(h_upper) = height - h_upper + 1, and one lower
/// tree hangs below each of them.

/// Full-tree level of the upper tree's leaves.
size_t StopLevel(const index::TreeTopology& topology, size_t h_upper);

/// Sampling ratio of the upper tree: sigma_upper = min(M/N, 1).
double SigmaUpper(const index::TreeTopology& topology, size_t memory_points);

/// Sampling ratio of the lower trees: sigma_lower = min(k*M/N, 1) where k is
/// the number of upper-tree leaf pages.
double SigmaLower(const index::TreeTopology& topology, size_t memory_points,
                  size_t h_upper);

/// The paper's empirically best choice (Section 4.5.2): the h_upper whose
/// lower trees would hold approximately M points before sampling, i.e.
/// pts(StopLevel) closest to M (log-scale distance), over the structural
/// range [2, height-1], cut off at the first height whose upper-tree leaves
/// would average fewer than 1.5 sample points (a loosened Section 4.5.1
/// occupancy bound — the paper itself runs borderline configurations).
size_t ChooseHupper(const index::TreeTopology& topology, size_t memory_points);

}  // namespace hdidx::core

#endif  // HDIDX_CORE_HUPPER_H_
