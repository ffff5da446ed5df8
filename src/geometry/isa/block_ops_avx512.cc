// AVX-512 lanes for the kernel block primitives, compiled with -mavx512f
// -ffp-contract=off (fp-contract matters here: AVX-512F brings FMA, and a
// contracted mul+add would change rounding vs the scalar oracle). One
// 512-bit register covers the whole 8-lane block for the double-precision
// reductions; the float32 overlap test across boxes stays 256-bit (8
// floats), reusing the AVX2 shapes, which -mavx512f implies. Containment
// across dimensions compares 16 floats at a time.
//
// maxpd operand-order and NaN notes are in block_ops_avx2.cc; AVX-512
// vmaxpd keeps the same (src1 > src2) ? src1 : src2, NaN -> src2 rule.
// Conversions and maxes use the all-lanes maskz forms: the plain
// intrinsics pass an _mm512_undefined_* source that gcc 12 reports as
// maybe-uninitialized under ASan, and the masked forms compile to the
// same instructions with every lane written.
#include "geometry/isa/block_ops.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;
static_assert(kBlock == 8, "AVX-512 lanes assume 8-wide blocks");

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  const __m512d zero = _mm512_setzero_pd();
  const __m512d thresh = _mm512_set1_pd(threshold);
  __m512d acc_v = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m512d q = _mm512_set1_pd(static_cast<double>(center[d]));
    const __m512d lo = _mm512_maskz_cvtps_pd(
        0xFF, _mm256_load_ps(slab.lo_plane(d) + base));
    const __m512d hi = _mm512_maskz_cvtps_pd(
        0xFF, _mm256_load_ps(slab.hi_plane(d) + base));
    // term = std::max(std::max(0.0, lo - q), q - hi)
    const __m512d t = _mm512_maskz_max_pd(
        0xFF, _mm512_sub_pd(q, hi),
        _mm512_maskz_max_pd(0xFF, _mm512_sub_pd(lo, q), zero));
    acc_v = _mm512_add_pd(acc_v, _mm512_mul_pd(t, t));
    if ((d & 7) == 7 && d + 1 < dim) {
      if (_mm512_cmp_pd_mask(acc_v, thresh, _CMP_GT_OQ) == 0xFF) {
        return false;
      }
    }
  }
  _mm512_storeu_pd(acc, acc_v);
  return true;
}

void BoxBlock(const float* query_lo, const float* query_hi,
              const BoxSlab& slab, size_t base, bool* alive) {
  const size_t dim = slab.dim();
  __m256 alive_m = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  for (size_t d = 0; d < dim; ++d) {
    const __m256 q_lo = _mm256_set1_ps(query_lo[d]);
    const __m256 q_hi = _mm256_set1_ps(query_hi[d]);
    const __m256 lo = _mm256_load_ps(slab.lo_plane(d) + base);
    const __m256 hi = _mm256_load_ps(slab.hi_plane(d) + base);
    const __m256 dead = _mm256_or_ps(_mm256_cmp_ps(lo, q_hi, _CMP_GT_OQ),
                                     _mm256_cmp_ps(q_lo, hi, _CMP_GT_OQ));
    alive_m = _mm256_andnot_ps(dead, alive_m);
    if ((d & 7) == 7 && d + 1 < dim) {
      if (_mm256_movemask_ps(alive_m) == 0) break;
    }
  }
  const int mask = _mm256_movemask_ps(alive_m);
  for (size_t l = 0; l < kBlock; ++l) alive[l] = ((mask >> l) & 1) != 0;
}

template <size_t kCount>
uint32_t GroupRowBlockOf(const double* const* queries, const float* lanes,
                         size_t dim, const double* thresholds, double* acc) {
  __m512d acc_v[kCount];
#pragma GCC unroll 4
  for (size_t g = 0; g < kCount; ++g) acc_v[g] = _mm512_setzero_pd();
  uint32_t alive = (1u << kCount) - 1;
  for (size_t d = 0;;) {
    for (const size_t stop = std::min(dim, d + kScanCheckDims); d < stop;
         ++d) {
      // Staged: dimension d's eight lanes are one aligned 32-byte run,
      // loaded once for the whole group.
      const __m512d r =
          _mm512_maskz_cvtps_pd(0xFF, _mm256_load_ps(lanes + d * kBlock));
#pragma GCC unroll 4
      for (size_t g = 0; g < kCount; ++g) {
        const __m512d diff = _mm512_sub_pd(r, _mm512_set1_pd(queries[g][d]));
        acc_v[g] = _mm512_add_pd(acc_v[g], _mm512_mul_pd(diff, diff));
      }
    }
    if (d == dim) break;
#pragma GCC unroll 4
    for (size_t g = 0; g < kCount; ++g) {
      if (_mm512_cmp_pd_mask(acc_v[g], _mm512_set1_pd(thresholds[g]),
                             _CMP_GT_OQ) == 0xFF) {
        alive &= ~(1u << g);
      }
    }
    if (alive == 0) return 0;
  }
#pragma GCC unroll 4
  for (size_t g = 0; g < kCount; ++g) {
    _mm512_storeu_pd(acc + g * kBlock, acc_v[g]);
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

size_t FirstContaining(const float* point, const BoxRows& rows) {
  // Sixteen dimensions per compare. Rows are padded to 16 floats, so every
  // lo/hi load is one aligned cacheline inside the row; the point's tail is
  // a masked load (never read past its end), and the masked compares drop
  // the padding lanes.
  const size_t dim = rows.dim();
  const size_t full = dim / 16 * 16;
  const __mmask16 tail_mask =
      static_cast<__mmask16>((1u << (dim - full)) - 1);
  for (size_t b = 0; b < rows.size(); ++b) {
    const float* lo = rows.lo_row(b);
    const float* hi = rows.hi_row(b);
    __mmask16 outside = 0;
    for (size_t d = 0; d < full && outside == 0; d += 16) {
      const __m512 p = _mm512_loadu_ps(point + d);
      outside =
          _mm512_cmp_ps_mask(_mm512_load_ps(lo + d), p, _CMP_GT_OQ) |
          _mm512_cmp_ps_mask(p, _mm512_load_ps(hi + d), _CMP_GT_OQ);
    }
    if (outside == 0 && tail_mask != 0) {
      const __m512 p = _mm512_maskz_loadu_ps(tail_mask, point + full);
      outside = _mm512_mask_cmp_ps_mask(tail_mask, _mm512_load_ps(lo + full),
                                        p, _CMP_GT_OQ) |
                _mm512_mask_cmp_ps_mask(tail_mask, p,
                                        _mm512_load_ps(hi + full), _CMP_GT_OQ);
    }
    if (outside == 0) return b;
  }
  return rows.size();
}

/// Adds the moments of dimensions [d0, d0 + width), 8 * (kVecs - 1) <
/// width <= 8 * kVecs, over `count` rows to sum/sum_sq, with all
/// 2 * kVecs accumulators held in zmm registers across the rows. The last
/// vector touches only its tail lanes.
/// The unroll pragmas make GCC unroll the vector loops before it splits
/// the arrays into registers; left rolled, it keeps a stack copy of every
/// accumulator and stores to it on each row.
template <size_t kVecs>
void MomentsChunk(const float* base, size_t dim, const uint32_t* index,
                  size_t count, size_t d0, size_t width, double* sum,
                  double* sum_sq) {
  const size_t last = 8 * (kVecs - 1);
  const __mmask8 tail_mask =
      static_cast<__mmask8>((1u << (width - last)) - 1);
  // The same tail as a vmaskmovps lane mask (sign bit set = load).
  const __m256i tail_lanes =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(width - last)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m512d s[kVecs];
  __m512d q[kVecs];
#pragma GCC unroll 8
  for (size_t v = 0; v + 1 < kVecs; ++v) {
    s[v] = _mm512_loadu_pd(sum + d0 + 8 * v);
    q[v] = _mm512_loadu_pd(sum_sq + d0 + 8 * v);
  }
  s[kVecs - 1] = _mm512_maskz_loadu_pd(tail_mask, sum + d0 + last);
  q[kVecs - 1] = _mm512_maskz_loadu_pd(tail_mask, sum_sq + d0 + last);
  for (size_t i = 0; i < count; ++i) {
    const float* p = base + (index != nullptr ? index[i] : i) * dim + d0;
#pragma GCC unroll 8
    for (size_t v = 0; v + 1 < kVecs; ++v) {
      const __m512d x =
          _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(p + 8 * v));
      s[v] = _mm512_add_pd(s[v], x);
      q[v] = _mm512_add_pd(q[v], _mm512_mul_pd(x, x));
    }
    // Masked-off lanes are not read (no fault past the row) and load 0.
    const __m512d x =
        _mm512_maskz_cvtps_pd(0xFF, _mm256_maskload_ps(p + last, tail_lanes));
    s[kVecs - 1] = _mm512_add_pd(s[kVecs - 1], x);
    q[kVecs - 1] = _mm512_add_pd(q[kVecs - 1], _mm512_mul_pd(x, x));
  }
#pragma GCC unroll 8
  for (size_t v = 0; v + 1 < kVecs; ++v) {
    _mm512_storeu_pd(sum + d0 + 8 * v, s[v]);
    _mm512_storeu_pd(sum_sq + d0 + 8 * v, q[v]);
  }
  _mm512_mask_storeu_pd(sum + d0 + last, tail_mask, s[kVecs - 1]);
  _mm512_mask_storeu_pd(sum_sq + d0 + last, tail_mask, q[kVecs - 1]);
}

using MomentsChunkFn = void (*)(const float*, size_t, const uint32_t*, size_t,
                                size_t, size_t, double*, double*);

void RowMoments(const float* base, size_t dim, const uint32_t* index,
                size_t count, double* sum, double* sum_sq) {
  // Up to 64 dimensions per chunk: 16 of the 32 zmm registers accumulate,
  // the rest hold each row's loads and squares.
  constexpr size_t kMaxVecs = 8;
  // Entry v - 1 runs chunks of v vectors.
  constexpr MomentsChunkFn kChunks[] = {
      &MomentsChunk<1>, &MomentsChunk<2>, &MomentsChunk<3>, &MomentsChunk<4>,
      &MomentsChunk<5>, &MomentsChunk<6>, &MomentsChunk<7>, &MomentsChunk<8>};
  std::fill_n(sum, dim, 0.0);
  std::fill_n(sum_sq, dim, 0.0);
  for (size_t r0 = 0; r0 < count; r0 += kMomentRowBlock) {
    const size_t rows = std::min(kMomentRowBlock, count - r0);
    const uint32_t* block_index = index != nullptr ? index + r0 : nullptr;
    const float* block_base = index != nullptr ? base : base + r0 * dim;
    for (size_t d0 = 0; d0 < dim; d0 += 8 * kMaxVecs) {
      const size_t width = std::min(8 * kMaxVecs, dim - d0);
      kChunks[(width + 7) / 8 - 1](block_base, dim, block_index, rows, d0,
                                   width, sum, sum_sq);
    }
  }
}

// Staging is a pure copy whose 128-bit row-pair shape gains nothing from
// 512-bit registers, so the lane shares the AVX2 one (-mavx512f implies
// AVX2).
constexpr BlockOps kAvx512Ops = {&SphereBlock,   &BoxBlock,
                                 &GroupRowBlock, &Avx2StageRows,
                                 &RowMoments,    &FirstContaining};

}  // namespace

const BlockOps* Avx512Ops() { return &kAvx512Ops; }

}  // namespace hdidx::geometry::kernels::isa

#else  // !(__x86_64__ && __AVX512F__)

namespace hdidx::geometry::kernels::isa {
const BlockOps* Avx512Ops() { return nullptr; }
}  // namespace hdidx::geometry::kernels::isa

#endif
