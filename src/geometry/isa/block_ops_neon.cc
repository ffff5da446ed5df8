// NEON (aarch64) lanes for the kernel block primitives, compiled with
// -ffp-contract=off. NEON is mandatory on aarch64, so no -m flag is needed
// and the TU guards on the architecture alone.
//
// NaN caveat vs x86: vmaxq_f64 PROPAGATES NaN, while the contract (see
// block_ops_avx2.cc) needs x86 maxpd semantics — (a > b) ? a : b with NaN
// resolving to b. MaxPd below emulates that with a greater-than compare
// plus select (vcgtq is false on NaN, so the select falls through to b).
#include "geometry/isa/block_ops.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;
static_assert(kBlock == 8, "NEON lanes assume 8-wide blocks");

/// (a > b) ? a : b, NaN -> b: x86 maxpd semantics, i.e. std::max(b, a).
inline float64x2_t MaxPd(float64x2_t a, float64x2_t b) {
  return vbslq_f64(vcgtq_f64(a, b), a, b);
}

/// Widens one float32x4 plane load into two float64x2 halves.
inline void Widen(const float* p, float64x2_t* out) {
  const float32x4_t f = vld1q_f32(p);
  out[0] = vcvt_f64_f32(vget_low_f32(f));
  out[1] = vcvt_high_f64_f32(f);
}

inline bool AllOver(const float64x2_t* acc_v, float64x2_t thresh) {
  uint64x2_t over = vcgtq_f64(acc_v[0], thresh);
  over = vandq_u64(over, vcgtq_f64(acc_v[1], thresh));
  over = vandq_u64(over, vcgtq_f64(acc_v[2], thresh));
  over = vandq_u64(over, vcgtq_f64(acc_v[3], thresh));
  return (vgetq_lane_u64(over, 0) & vgetq_lane_u64(over, 1)) ==
         ~static_cast<uint64_t>(0);
}

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t thresh = vdupq_n_f64(threshold);
  float64x2_t acc_v[4] = {zero, zero, zero, zero};
  for (size_t d = 0; d < dim; ++d) {
    const float64x2_t q = vdupq_n_f64(static_cast<double>(center[d]));
    float64x2_t lo[4];
    float64x2_t hi[4];
    Widen(slab.lo_plane(d) + base, lo);
    Widen(slab.lo_plane(d) + base + 4, lo + 2);
    Widen(slab.hi_plane(d) + base, hi);
    Widen(slab.hi_plane(d) + base + 4, hi + 2);
    for (size_t j = 0; j < 4; ++j) {
      // term = std::max(std::max(0.0, lo - q), q - hi)
      const float64x2_t t =
          MaxPd(vsubq_f64(q, hi[j]), MaxPd(vsubq_f64(lo[j], q), zero));
      acc_v[j] = vaddq_f64(acc_v[j], vmulq_f64(t, t));
    }
    if ((d & 7) == 7 && d + 1 < dim && AllOver(acc_v, thresh)) return false;
  }
  for (size_t j = 0; j < 4; ++j) vst1q_f64(acc + 2 * j, acc_v[j]);
  return true;
}

void BoxBlock(const float* query_lo, const float* query_hi,
              const BoxSlab& slab, size_t base, bool* alive) {
  const size_t dim = slab.dim();
  uint32x4_t alive0 = vdupq_n_u32(~0u);
  uint32x4_t alive1 = vdupq_n_u32(~0u);
  for (size_t d = 0; d < dim; ++d) {
    const float32x4_t q_lo = vdupq_n_f32(query_lo[d]);
    const float32x4_t q_hi = vdupq_n_f32(query_hi[d]);
    const float32x4_t lo0 = vld1q_f32(slab.lo_plane(d) + base);
    const float32x4_t lo1 = vld1q_f32(slab.lo_plane(d) + base + 4);
    const float32x4_t hi0 = vld1q_f32(slab.hi_plane(d) + base);
    const float32x4_t hi1 = vld1q_f32(slab.hi_plane(d) + base + 4);
    const uint32x4_t dead0 =
        vorrq_u32(vcgtq_f32(lo0, q_hi), vcgtq_f32(q_lo, hi0));
    const uint32x4_t dead1 =
        vorrq_u32(vcgtq_f32(lo1, q_hi), vcgtq_f32(q_lo, hi1));
    alive0 = vbicq_u32(alive0, dead0);
    alive1 = vbicq_u32(alive1, dead1);
    if ((d & 7) == 7 && d + 1 < dim) {
      if (vmaxvq_u32(vorrq_u32(alive0, alive1)) == 0) break;
    }
  }
  for (size_t l = 0; l < 4; ++l) {
    alive[l] = vgetq_lane_u32(alive0, 0) != 0;
    alive0 = vextq_u32(alive0, alive0, 1);
    alive[4 + l] = vgetq_lane_u32(alive1, 0) != 0;
    alive1 = vextq_u32(alive1, alive1, 1);
  }
}

template <size_t kCount>
uint32_t GroupRowBlockOf(const double* const* queries, const float* lanes,
                         size_t dim, const double* thresholds, double* acc) {
  float64x2_t acc_v[kCount][4];
#pragma GCC unroll 4
  for (size_t g = 0; g < kCount; ++g) {
    for (size_t j = 0; j < 4; ++j) acc_v[g][j] = vdupq_n_f64(0.0);
  }
  uint32_t alive = (1u << kCount) - 1;
  for (size_t d = 0;;) {
    for (const size_t stop = std::min(dim, d + kScanCheckDims); d < stop;
         ++d) {
      // Staged: dimension d's eight lanes are one contiguous run, loaded
      // once for the whole group.
      float64x2_t r[4];
      Widen(lanes + d * kBlock, r);
      Widen(lanes + d * kBlock + 4, r + 2);
#pragma GCC unroll 4
      for (size_t g = 0; g < kCount; ++g) {
        const float64x2_t q = vdupq_n_f64(queries[g][d]);
        for (size_t j = 0; j < 4; ++j) {
          const float64x2_t diff = vsubq_f64(r[j], q);
          acc_v[g][j] = vaddq_f64(acc_v[g][j], vmulq_f64(diff, diff));
        }
      }
    }
    if (d == dim) break;
#pragma GCC unroll 4
    for (size_t g = 0; g < kCount; ++g) {
      if (AllOver(acc_v[g], vdupq_n_f64(thresholds[g]))) alive &= ~(1u << g);
    }
    if (alive == 0) return 0;
  }
#pragma GCC unroll 4
  for (size_t g = 0; g < kCount; ++g) {
    for (size_t j = 0; j < 4; ++j) {
      vst1q_f64(acc + g * kBlock + 2 * j, acc_v[g][j]);
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

/// Whether any lane of `lo > p or p > hi` holds, under `mask`.
inline bool AnyOutside(float32x4_t lo, float32x4_t p, float32x4_t hi,
                       uint32x4_t mask) {
  const uint32x4_t outside = vorrq_u32(vcgtq_f32(lo, p), vcgtq_f32(p, hi));
  return vmaxvq_u32(vandq_u32(outside, mask)) != 0;
}

size_t FirstContaining(const float* point, const BoxRows& rows) {
  // Four dimensions per compare. Rows are padded to 16 floats, so the
  // tail's lo/hi loads stay inside the row; the point's tail is copied
  // into a zeroed quad (never read past its end), and the mask drops the
  // padding lanes.
  const size_t dim = rows.dim();
  const size_t full = dim / 4 * 4;
  const uint32_t lane_ids[4] = {0, 1, 2, 3};
  const uint32x4_t all = vdupq_n_u32(~0u);
  const uint32x4_t tail_mask = vcltq_u32(
      vld1q_u32(lane_ids), vdupq_n_u32(static_cast<uint32_t>(dim - full)));
  float tail[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (size_t j = full; j < dim; ++j) tail[j - full] = point[j];
  const float32x4_t p_tail = vld1q_f32(tail);
  for (size_t b = 0; b < rows.size(); ++b) {
    const float* lo = rows.lo_row(b);
    const float* hi = rows.hi_row(b);
    bool outside = false;
    for (size_t d = 0; d < full && !outside; d += 4) {
      outside = AnyOutside(vld1q_f32(lo + d), vld1q_f32(point + d),
                           vld1q_f32(hi + d), all);
    }
    if (!outside && full < dim) {
      outside = AnyOutside(vld1q_f32(lo + full), p_tail, vld1q_f32(hi + full),
                           tail_mask);
    }
    if (!outside) return b;
  }
  return rows.size();
}

/// Transposes a 4x4 float tile in place: on entry r[l] holds 4
/// consecutive coordinates of row l, on return r[j] holds coordinate j of
/// the 4 rows.
inline void Transpose4x4(float32x4_t r[4]) {
  const float32x4x2_t t01 = vtrnq_f32(r[0], r[1]);
  const float32x4x2_t t23 = vtrnq_f32(r[2], r[3]);
  r[0] = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
  r[1] = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
  r[2] = vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
  r[3] = vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
}

void StageRows(const float* rows, size_t dim, size_t blocks, float* lanes) {
  for (size_t b = 0; b < blocks; ++b) {
    const float* block = rows + b * kBlock * dim;
    float* out = lanes + b * kBlock * dim;
    size_t d = 0;
    for (; d + 4 <= dim; d += 4) {
      // Two 4x4 tiles: rows 0-3 fill lanes 0-3, rows 4-7 lanes 4-7.
      for (size_t half = 0; half < 2; ++half) {
        float32x4_t r[4];
        for (size_t l = 0; l < 4; ++l) {
          r[l] = vld1q_f32(block + (4 * half + l) * dim + d);
        }
        Transpose4x4(r);
        for (size_t j = 0; j < 4; ++j) {
          vst1q_f32(out + (d + j) * kBlock + 4 * half, r[j]);
        }
      }
    }
    for (; d < dim; ++d) {
      for (size_t l = 0; l < kBlock; ++l) {
        out[d * kBlock + l] = block[l * dim + d];
      }
    }
  }
}

/// Adds the moments of dimensions [d0, d0 + width), 4 * (kGroups - 1) <
/// width <= 4 * kGroups, over `count` rows to sum/sum_sq, with all
/// 4 * kGroups float64x2 accumulators held in registers across the rows.
/// The last group's missing lanes read as 0 and are never stored.
/// The unroll pragmas make GCC unroll the vector loops before it splits
/// the arrays into registers; left rolled, it keeps a stack copy of every
/// accumulator and stores to it on each row.
template <size_t kGroups>
void MomentsChunk(const float* base, size_t dim, const uint32_t* index,
                  size_t count, size_t d0, size_t width, double* sum,
                  double* sum_sq) {
  const size_t last = 4 * (kGroups - 1);
  const size_t tail = width - last;
  double s_io[4 * kGroups] = {};
  double q_io[4 * kGroups] = {};
  for (size_t k = 0; k < width; ++k) {
    s_io[k] = sum[d0 + k];
    q_io[k] = sum_sq[d0 + k];
  }
  float64x2_t s[2 * kGroups];
  float64x2_t q[2 * kGroups];
#pragma GCC unroll 8
  for (size_t v = 0; v < 2 * kGroups; ++v) {
    s[v] = vld1q_f64(s_io + 2 * v);
    q[v] = vld1q_f64(q_io + 2 * v);
  }
  for (size_t i = 0; i < count; ++i) {
    const float* p = base + (index != nullptr ? index[i] : i) * dim + d0;
    float padded[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (size_t k = 0; k < tail; ++k) padded[k] = p[last + k];
#pragma GCC unroll 8
    for (size_t g = 0; g < kGroups; ++g) {
      float64x2_t x[2];
      Widen(g + 1 < kGroups ? p + 4 * g : padded, x);
      for (size_t h = 0; h < 2; ++h) {
        s[2 * g + h] = vaddq_f64(s[2 * g + h], x[h]);
        q[2 * g + h] = vaddq_f64(q[2 * g + h], vmulq_f64(x[h], x[h]));
      }
    }
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < 2 * kGroups; ++v) {
    vst1q_f64(s_io + 2 * v, s[v]);
    vst1q_f64(q_io + 2 * v, q[v]);
  }
  for (size_t k = 0; k < width; ++k) {
    sum[d0 + k] = s_io[k];
    sum_sq[d0 + k] = q_io[k];
  }
}

using MomentsChunkFn = void (*)(const float*, size_t, const uint32_t*, size_t,
                                size_t, size_t, double*, double*);

void RowMoments(const float* base, size_t dim, const uint32_t* index,
                size_t count, double* sum, double* sum_sq) {
  // Up to 16 dimensions per chunk: 16 of the 32 q registers accumulate.
  constexpr size_t kMaxGroups = 4;
  // Entry g - 1 runs chunks of g groups.
  constexpr MomentsChunkFn kChunks[] = {&MomentsChunk<1>, &MomentsChunk<2>,
                                        &MomentsChunk<3>, &MomentsChunk<4>};
  std::fill_n(sum, dim, 0.0);
  std::fill_n(sum_sq, dim, 0.0);
  for (size_t r0 = 0; r0 < count; r0 += kMomentRowBlock) {
    const size_t rows = std::min(kMomentRowBlock, count - r0);
    const uint32_t* block_index = index != nullptr ? index + r0 : nullptr;
    const float* block_base = index != nullptr ? base : base + r0 * dim;
    for (size_t d0 = 0; d0 < dim; d0 += 4 * kMaxGroups) {
      const size_t width = std::min(4 * kMaxGroups, dim - d0);
      kChunks[(width + 3) / 4 - 1](block_base, dim, block_index, rows, d0,
                                   width, sum, sum_sq);
    }
  }
}

constexpr BlockOps kNeonOps = {&SphereBlock, &BoxBlock,   &GroupRowBlock,
                               &StageRows,   &RowMoments, &FirstContaining};

}  // namespace

const BlockOps* NeonOps() { return &kNeonOps; }

}  // namespace hdidx::geometry::kernels::isa

#else  // !__aarch64__

namespace hdidx::geometry::kernels::isa {
const BlockOps* NeonOps() { return nullptr; }
}  // namespace hdidx::geometry::kernels::isa

#endif
