// AVX2 lanes for the kernel block primitives. This TU is compiled with
// -mavx2 -ffp-contract=off (see src/CMakeLists.txt) and self-guards: on any
// other target it compiles to just the null accessor, so the build never
// needs per-arch source lists.
//
// Bit-identity notes (shared with the scalar oracle in kernels.cc):
//  - std::max(a, b) returns a on NaN and on ties; x86 maxpd(src1, src2)
//    returns src2 on NaN and on ties. Hence std::max(a, b) == maxpd(b, a),
//    which fixes the operand order of every _mm256_max_pd below.
//  - mul then add, never FMA: contraction would change rounding.
//  - _CMP_GT_OQ matches scalar `>` on NaN (false), and early-exit votes may
//    include the two padding-sentinel lanes (always +inf, see block_ops.h).
#include "geometry/isa/block_ops.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace hdidx::geometry::kernels::isa {

namespace {

constexpr size_t kBlock = BoxSlab::kBlock;
static_assert(kBlock == 8, "AVX2 lanes assume 8-wide blocks");

bool SphereBlock(const float* center, const BoxSlab& slab, size_t base,
                 double threshold, double* acc) {
  const size_t dim = slab.dim();
  const __m256d zero = _mm256_setzero_pd();
  const __m256d thresh = _mm256_set1_pd(threshold);
  __m256d acc0 = zero;
  __m256d acc1 = zero;
  for (size_t d = 0; d < dim; ++d) {
    const __m256d q = _mm256_set1_pd(static_cast<double>(center[d]));
    const float* lo = slab.lo_plane(d) + base;
    const float* hi = slab.hi_plane(d) + base;
    // Planes are 64B-aligned and base is a multiple of kBlock, so aligned
    // loads are safe (and assert the arena layout contract).
    const __m256d lo0 = _mm256_cvtps_pd(_mm_load_ps(lo));
    const __m256d lo1 = _mm256_cvtps_pd(_mm_load_ps(lo + 4));
    const __m256d hi0 = _mm256_cvtps_pd(_mm_load_ps(hi));
    const __m256d hi1 = _mm256_cvtps_pd(_mm_load_ps(hi + 4));
    // term = std::max(std::max(0.0, lo - q), q - hi)
    const __m256d t0 = _mm256_max_pd(
        _mm256_sub_pd(q, hi0),
        _mm256_max_pd(_mm256_sub_pd(lo0, q), zero));
    const __m256d t1 = _mm256_max_pd(
        _mm256_sub_pd(q, hi1),
        _mm256_max_pd(_mm256_sub_pd(lo1, q), zero));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(t0, t0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(t1, t1));
    if ((d & 7) == 7 && d + 1 < dim) {
      const __m256d over0 = _mm256_cmp_pd(acc0, thresh, _CMP_GT_OQ);
      const __m256d over1 = _mm256_cmp_pd(acc1, thresh, _CMP_GT_OQ);
      if (_mm256_movemask_pd(_mm256_and_pd(over0, over1)) == 0xF) {
        return false;
      }
    }
  }
  _mm256_storeu_pd(acc, acc0);
  _mm256_storeu_pd(acc + 4, acc1);
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
  __m256d acc0[kCount];
  __m256d acc1[kCount];
#pragma GCC unroll 4
  for (size_t g = 0; g < kCount; ++g) {
    acc0[g] = _mm256_setzero_pd();
    acc1[g] = _mm256_setzero_pd();
  }
  uint32_t alive = (1u << kCount) - 1;
  for (size_t d = 0;;) {
    for (const size_t stop = std::min(dim, d + kScanCheckDims); d < stop;
         ++d) {
      // Staged: dimension d's eight lanes are one aligned 32-byte run,
      // loaded once for the whole group.
      const float* p = lanes + d * kBlock;
      const __m256d r0 = _mm256_cvtps_pd(_mm_load_ps(p));
      const __m256d r1 = _mm256_cvtps_pd(_mm_load_ps(p + 4));
#pragma GCC unroll 4
      for (size_t g = 0; g < kCount; ++g) {
        const __m256d q = _mm256_set1_pd(queries[g][d]);
        const __m256d d0 = _mm256_sub_pd(r0, q);
        const __m256d d1 = _mm256_sub_pd(r1, q);
        acc0[g] = _mm256_add_pd(acc0[g], _mm256_mul_pd(d0, d0));
        acc1[g] = _mm256_add_pd(acc1[g], _mm256_mul_pd(d1, d1));
      }
    }
    if (d == dim) break;
#pragma GCC unroll 4
    for (size_t g = 0; g < kCount; ++g) {
      const __m256d thresh = _mm256_set1_pd(thresholds[g]);
      const __m256d over0 = _mm256_cmp_pd(acc0[g], thresh, _CMP_GT_OQ);
      const __m256d over1 = _mm256_cmp_pd(acc1[g], thresh, _CMP_GT_OQ);
      if (_mm256_movemask_pd(_mm256_and_pd(over0, over1)) == 0xF) {
        alive &= ~(1u << g);
      }
    }
    if (alive == 0) return 0;
  }
#pragma GCC unroll 4
  for (size_t g = 0; g < kCount; ++g) {
    _mm256_storeu_pd(acc + g * kBlock, acc0[g]);
    _mm256_storeu_pd(acc + g * kBlock + 4, acc1[g]);
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
  // Eight dimensions per compare. Rows are padded to 16 floats, so the
  // tail's lo/hi loads stay inside the row; the point's tail is a masked
  // load (never read past its end), and the mask drops the padding lanes.
  const size_t dim = rows.dim();
  const size_t full = dim / 8 * 8;
  const __m256i tail_mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(dim - full)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (size_t b = 0; b < rows.size(); ++b) {
    const float* lo = rows.lo_row(b);
    const float* hi = rows.hi_row(b);
    int outside = 0;
    for (size_t d = 0; d < full && outside == 0; d += 8) {
      const __m256 p = _mm256_loadu_ps(point + d);
      outside = _mm256_movemask_ps(
          _mm256_or_ps(_mm256_cmp_ps(_mm256_load_ps(lo + d), p, _CMP_GT_OQ),
                       _mm256_cmp_ps(p, _mm256_load_ps(hi + d), _CMP_GT_OQ)));
    }
    if (outside == 0 && full < dim) {
      const __m256 p = _mm256_maskload_ps(point + full, tail_mask);
      outside = _mm256_movemask_ps(_mm256_and_ps(
          _mm256_castsi256_ps(tail_mask),
          _mm256_or_ps(
              _mm256_cmp_ps(_mm256_load_ps(lo + full), p, _CMP_GT_OQ),
              _mm256_cmp_ps(p, _mm256_load_ps(hi + full), _CMP_GT_OQ))));
    }
    if (outside == 0) return b;
  }
  return rows.size();
}

/// Transposes the two 4x4 float tiles of r in place, one per 128-bit half:
/// on entry the low (high) half of r[l] holds 4 consecutive coordinates of
/// row l (row l + 4), on return r[j] holds coordinate j of rows 0-7.
inline void TransposeQuads(__m256 r[4]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  r[0] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  r[1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  r[2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  r[3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
}

/// Loads coordinates [d, d + 4) of rows l and l + 4 into the low and high
/// halves of one register.
inline __m256 LoadRowPair(const float* block, size_t dim, size_t l,
                          size_t d) {
  return _mm256_insertf128_ps(
      _mm256_castps128_ps256(_mm_loadu_ps(block + l * dim + d)),
      _mm_loadu_ps(block + (l + 4) * dim + d), 1);
}

/// Adds the moments of dimensions [d0, d0 + width), 4 * (kVecs - 1) <
/// width <= 4 * kVecs, over `count` rows to sum/sum_sq, with all
/// 2 * kVecs accumulators held in ymm registers across the rows. The last
/// vector touches only its tail lanes.
/// The unroll pragmas make GCC unroll the vector loops before it splits
/// the arrays into registers; left rolled, it keeps a stack copy of every
/// accumulator and stores to it on each row.
template <size_t kVecs>
void MomentsChunk(const float* base, size_t dim, const uint32_t* index,
                  size_t count, size_t d0, size_t width, double* sum,
                  double* sum_sq) {
  const size_t last = 4 * (kVecs - 1);
  const __m128i tail_mask = _mm_cmpgt_epi32(
      _mm_set1_epi32(static_cast<int>(width - last)),
      _mm_setr_epi32(0, 1, 2, 3));
  // Aligned, zero-padded staging of the running sums: whole-vector loads
  // and stores, never past `width`.
  alignas(32) double s_io[4 * kVecs] = {};
  alignas(32) double q_io[4 * kVecs] = {};
  std::copy_n(sum + d0, width, s_io);
  std::copy_n(sum_sq + d0, width, q_io);
  __m256d s[kVecs];
  __m256d q[kVecs];
#pragma GCC unroll 8
  for (size_t v = 0; v < kVecs; ++v) {
    s[v] = _mm256_load_pd(s_io + 4 * v);
    q[v] = _mm256_load_pd(q_io + 4 * v);
  }
  for (size_t i = 0; i < count; ++i) {
    const float* p = base + (index != nullptr ? index[i] : i) * dim + d0;
#pragma GCC unroll 8
    for (size_t v = 0; v + 1 < kVecs; ++v) {
      const __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(p + 4 * v));
      s[v] = _mm256_add_pd(s[v], x);
      q[v] = _mm256_add_pd(q[v], _mm256_mul_pd(x, x));
    }
    // Masked-off lanes are not read (no fault past the row) and load 0.
    const __m256d x = _mm256_cvtps_pd(_mm_maskload_ps(p + last, tail_mask));
    s[kVecs - 1] = _mm256_add_pd(s[kVecs - 1], x);
    q[kVecs - 1] = _mm256_add_pd(q[kVecs - 1], _mm256_mul_pd(x, x));
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < kVecs; ++v) {
    _mm256_store_pd(s_io + 4 * v, s[v]);
    _mm256_store_pd(q_io + 4 * v, q[v]);
  }
  std::copy_n(s_io, width, sum + d0);
  std::copy_n(q_io, width, sum_sq + d0);
}

using MomentsChunkFn = void (*)(const float*, size_t, const uint32_t*, size_t,
                                size_t, size_t, double*, double*);

void RowMoments(const float* base, size_t dim, const uint32_t* index,
                size_t count, double* sum, double* sum_sq) {
  // Up to 16 dimensions per chunk: 8 of the 16 ymm registers accumulate,
  // the rest hold each row's loads and squares.
  constexpr size_t kMaxVecs = 4;
  // Entry v - 1 runs chunks of v vectors.
  constexpr MomentsChunkFn kChunks[] = {&MomentsChunk<1>, &MomentsChunk<2>,
                                        &MomentsChunk<3>, &MomentsChunk<4>};
  std::fill_n(sum, dim, 0.0);
  std::fill_n(sum_sq, dim, 0.0);
  for (size_t r0 = 0; r0 < count; r0 += kMomentRowBlock) {
    const size_t rows = std::min(kMomentRowBlock, count - r0);
    const uint32_t* block_index = index != nullptr ? index + r0 : nullptr;
    const float* block_base = index != nullptr ? base : base + r0 * dim;
    for (size_t d0 = 0; d0 < dim; d0 += 4 * kMaxVecs) {
      const size_t width = std::min(4 * kMaxVecs, dim - d0);
      kChunks[(width + 3) / 4 - 1](block_base, dim, block_index, rows, d0,
                                   width, sum, sum_sq);
    }
  }
}

constexpr BlockOps kAvx2Ops = {&SphereBlock,   &BoxBlock,   &GroupRowBlock,
                               &Avx2StageRows, &RowMoments, &FirstContaining};

}  // namespace

void Avx2StageRows(const float* rows, size_t dim, size_t blocks,
                   float* lanes) {
  // Coordinates past the last whole quad: masked loads never read (or
  // fault on) the lanes past the row's end.
  const size_t rest = dim % 4;
  const __m128i rest_mask = _mm_cmpgt_epi32(
      _mm_set1_epi32(static_cast<int>(rest)), _mm_setr_epi32(0, 1, 2, 3));
  for (size_t b = 0; b < blocks; ++b) {
    const float* block = rows + b * kBlock * dim;
    float* out = lanes + b * kBlock * dim;
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      __m256 lo[4];
      __m256 hi[4];
      for (size_t l = 0; l < 4; ++l) {
        lo[l] = LoadRowPair(block, dim, l, d);
        hi[l] = LoadRowPair(block, dim, l, d + 4);
      }
      TransposeQuads(lo);
      TransposeQuads(hi);
      for (size_t j = 0; j < 4; ++j) {
        _mm256_store_ps(out + (d + j) * kBlock, lo[j]);
        _mm256_store_ps(out + (d + 4 + j) * kBlock, hi[j]);
      }
    }
    if (d + 4 <= dim) {
      __m256 r[4];
      for (size_t l = 0; l < 4; ++l) r[l] = LoadRowPair(block, dim, l, d);
      TransposeQuads(r);
      for (size_t j = 0; j < 4; ++j) {
        _mm256_store_ps(out + (d + j) * kBlock, r[j]);
      }
      d += 4;
    }
    if (rest > 0) {
      __m256 r[4];
      for (size_t l = 0; l < 4; ++l) {
        r[l] = _mm256_insertf128_ps(
            _mm256_castps128_ps256(
                _mm_maskload_ps(block + l * dim + d, rest_mask)),
            _mm_maskload_ps(block + (l + 4) * dim + d, rest_mask), 1);
      }
      TransposeQuads(r);
      for (size_t j = 0; j < rest; ++j) {
        _mm256_store_ps(out + (d + j) * kBlock, r[j]);
      }
    }
  }
}

const BlockOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace hdidx::geometry::kernels::isa

#else  // !(__x86_64__ && __AVX2__)

namespace hdidx::geometry::kernels::isa {
const BlockOps* Avx2Ops() { return nullptr; }
}  // namespace hdidx::geometry::kernels::isa

#endif
