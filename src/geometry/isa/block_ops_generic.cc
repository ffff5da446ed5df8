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

template <size_t kCount>
uint32_t GroupRowBlockOf(const double* const* queries, const float* lanes,
                         size_t dim, const double* thresholds, double* acc) {
  for (size_t i = 0; i < kCount * kBlock; ++i) acc[i] = 0.0;
  uint32_t alive = (1u << kCount) - 1;
  for (size_t d = 0; d < dim; ++d) {
    const float* p = lanes + d * kBlock;
    for (size_t g = 0; g < kCount; ++g) {
      const double q = queries[g][d];
      for (size_t l = 0; l < kBlock; ++l) {
        const double diff = static_cast<double>(p[l]) - q;
        acc[g * kBlock + l] += diff * diff;
      }
    }
    if (d % kScanCheckDims == kScanCheckDims - 1 && d + 1 < dim) {
      for (size_t g = 0; g < kCount; ++g) {
        bool all_over = true;
        for (size_t l = 0; l < kBlock; ++l) {
          all_over &= acc[g * kBlock + l] > thresholds[g];
        }
        if (all_over) alive &= ~(1u << g);
      }
      if (alive == 0) return 0;
    }
  }
  return alive;
}

uint32_t GroupRowBlock(const double* const* queries, size_t count,
                       const float* lanes, size_t dim,
                       const double* thresholds, double* acc) {
  static_assert(kScanGroup == 2, "one instantiation per group size");
  return count == 2
             ? GroupRowBlockOf<2>(queries, lanes, dim, thresholds, acc)
             : GroupRowBlockOf<1>(queries, lanes, dim, thresholds, acc);
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

size_t FirstContaining(const float* point, const BoxRows& rows) {
  // Sixteen dimensions per step, the AVX-512 width: a fixed-width step with
  // no exit inside compiles to vector compares, the dimensions past the
  // last whole step run one at a time.
  constexpr size_t kStep = 16;
  const size_t dim = rows.dim();
  const size_t full = dim / kStep * kStep;
  for (size_t b = 0; b < rows.size(); ++b) {
    const float* lo = rows.lo_row(b);
    const float* hi = rows.hi_row(b);
    int outside = 0;
    for (size_t d0 = 0; d0 < full && outside == 0; d0 += kStep) {
      for (size_t j = d0; j < d0 + kStep; ++j) {
        outside |= static_cast<int>(lo[j] > point[j]) |
                   static_cast<int>(point[j] > hi[j]);
      }
    }
    for (size_t j = full; j < dim && outside == 0; ++j) {
      outside = static_cast<int>(lo[j] > point[j]) |
                static_cast<int>(point[j] > hi[j]);
    }
    if (outside == 0) return b;
  }
  return rows.size();
}

constexpr BlockOps kGenericOps = {&SphereBlock,      &BoxBlock,
                                  &GroupRowBlock,    &StageRows,
                                  &ScalarRowMoments, &FirstContaining};

}  // namespace

const BlockOps* GenericOps() { return &kGenericOps; }

}  // namespace hdidx::geometry::kernels::isa
