#include <algorithm>
#include <cstddef>

#include "geometry/isa/block_ops.h"

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;

/// The per-dimension MINDIST term, branchless: max(0, lo - q, q - hi) as
/// doubles. The std::max argument order makes a NaN coordinate yield 0
/// exactly like both scalar branches failing.
inline double MinDistTerm(double q, float lo, float hi) {
  return std::max(std::max(0.0, static_cast<double>(lo) - q),
                  q - static_cast<double>(hi));
}

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  for (size_t l = 0; l < kBlock; ++l) acc[l] = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double q = center[d];
    const float* lo = slab.lo_plane(d) + base;
    const float* hi = slab.hi_plane(d) + base;
    for (size_t l = 0; l < kBlock; ++l) {
      const double diff = MinDistTerm(q, lo[l], hi[l]);
      acc[l] += diff * diff;
    }
    if ((d & 7) == 7 && d + 1 < dim) {
      bool all_over = true;
      for (size_t l = 0; l < kBlock; ++l) all_over &= acc[l] > threshold;
      if (all_over) return false;
    }
  }
  return true;
}

void BoxBlock(const float* query_lo, const float* query_hi,
              const BoxSlab& slab, size_t base, bool* alive) {
  const size_t dim = slab.dim();
  for (size_t l = 0; l < kBlock; ++l) alive[l] = true;
  for (size_t d = 0; d < dim; ++d) {
    const float q_lo = query_lo[d];
    const float q_hi = query_hi[d];
    const float* lo = slab.lo_plane(d) + base;
    const float* hi = slab.hi_plane(d) + base;
    for (size_t l = 0; l < kBlock; ++l) {
      alive[l] = alive[l] && !(lo[l] > q_hi || q_lo > hi[l]);
    }
    if ((d & 7) == 7 && d + 1 < dim) {
      bool any = false;
      for (size_t l = 0; l < kBlock; ++l) any |= alive[l];
      if (!any) return;
    }
  }
}

bool RowBlock(const float* query, const float* lanes, size_t dim,
              double threshold, double* acc) {
  for (size_t l = 0; l < kBlock; ++l) acc[l] = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double q = query[d];
    const float* p = lanes + d * kBlock;
    for (size_t l = 0; l < kBlock; ++l) {
      const double diff = static_cast<double>(p[l]) - q;
      acc[l] += diff * diff;
    }
    if ((d & 7) == 7 && d + 1 < dim) {
      bool all_over = true;
      for (size_t l = 0; l < kBlock; ++l) all_over &= acc[l] > threshold;
      if (all_over) return false;
    }
  }
  return true;
}

void StageRows(const float* rows, size_t dim, size_t blocks, float* lanes) {
  for (size_t b = 0; b < blocks; ++b) {
    const float* block = rows + b * kBlock * dim;
    float* out = lanes + b * kBlock * dim;
    for (size_t d = 0; d < dim; ++d) {
      for (size_t l = 0; l < kBlock; ++l) {
        out[d * kBlock + l] = block[l * dim + d];
      }
    }
  }
}

constexpr BlockOps kGenericOps = {&SphereBlock, &BoxBlock, &RowBlock,
                                  &StageRows, &ScalarRowMoments};

}  // namespace

const BlockOps* GenericOps() { return &kGenericOps; }

}  // namespace hdidx::geometry::kernels::isa
