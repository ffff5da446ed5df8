#ifndef HDIDX_GEOMETRY_ISA_BLOCK_OPS_H_
#define HDIDX_GEOMETRY_ISA_BLOCK_OPS_H_

#include <cstddef>
#include <cstdint>

#include "geometry/kernels.h"

namespace hdidx::geometry::kernels::isa {

/// Rows per pass of row_moments. A lane that covers the dimensions in
/// several register-sized chunks runs every chunk over one block of rows
/// before moving to the next block, so the rows are fetched from memory
/// once (64 rows are 15 KB at d=60, L1-resident) and each dimension still
/// adds its rows in order.
inline constexpr size_t kMomentRowBlock = 64;

/// Most queries group_row_block runs over one staged block. Two queries
/// share each lane load and run two independent accumulator chains, where
/// one query's chain waits on every add.
inline constexpr size_t kScanGroup = 2;

/// Dimensions between two early-exit checkpoints of group_row_block.
inline constexpr size_t kScanCheckDims = 8;

/// Per-ISA implementations of the block primitives every dispatching kernel
/// entry point is built from. Each distance op processes exactly
/// BoxSlab::kBlock lanes and must be bit-identical to the scalar oracle:
/// lanes are whole candidates, SIMD runs *across* candidates, and every
/// per-candidate reduction accumulates in scalar dimension order in double
/// with no FMA contraction. Early exits may fire at different block/lane
/// granularity per ISA — they only ever skip work that is provably a no-op
/// (sums of squares are monotone), so results never depend on the cadence.
/// A grouped op (group_row_block) applies this per query: the group shares
/// the lane loads, never an accumulator or a threshold.
///
/// A boolean op with no reduction order, such as containment, may instead
/// vectorize across dimensions (first_containing): an AND of per-dimension
/// tests has the same value in any order and grouping, so no lane width
/// can change a result.
///
/// Padding lanes carry the BoxSlab sentinel (lo=+inf, hi=-inf): their
/// accumulated distance is +inf and their overlap test fails, so an op may
/// include them in all-lanes early-exit votes without changing any result.
struct BlockOps {
  /// Accumulates SquaredMinDist(center, lane) for the kBlock lanes at
  /// `base` into acc[0..kBlock), early-exiting once every lane's partial
  /// sum exceeds `threshold` at the shared (d & 7) == 7 cadence. Returns
  /// false on abandonment (acc contents unspecified), true with every
  /// lane's full sum otherwise.
  bool (*sphere_block)(const float* center, const BoxSlab& slab, size_t base,
                       double threshold, double* acc);

  /// alive[l] = whether slab lane base+l intersects the query box
  /// [query_lo, query_hi] (BoundingBox::Intersects semantics), for kBlock
  /// lanes. May stop refining once every lane is dead.
  void (*box_block)(const float* query_lo, const float* query_hi,
                    const BoxSlab& slab, size_t base, bool* alive);

  /// Runs a group of `count` queries (1 <= count <= kScanGroup) over one
  /// staged kBlock-row block (the stage_rows layout: lane l's coordinate d
  /// at lanes[d * kBlock + l], 32-byte aligned): acc[g * kBlock + l] =
  /// SquaredL2(queries[g], lane l). queries[g] holds the query's `dim`
  /// float coordinates widened to double, which is exact, so the caller
  /// converts them once per group rather than at every block. Each
  /// dimension's lanes are loaded once for the whole group, and each query
  /// keeps its own accumulators and its own thresholds[g], with sphere_block's early-exit contract applied per
  /// query: once every lane of query g exceeds thresholds[g] at a
  /// checkpoint, g is abandoned (its acc row unspecified). Returns the
  /// alive mask, bit g set iff query g was not abandoned; its acc row then
  /// holds every lane's full sum. A +inf threshold never abandons. The op
  /// returns 0 as soon as the whole group is abandoned.
  uint32_t (*group_row_block)(const double* const* queries, size_t count,
                              const float* lanes, size_t dim,
                              const double* thresholds, double* acc);

  /// Stages `blocks` whole kBlock-row blocks of row-major rows (width
  /// `dim`) for group_row_block: row b * kBlock + l, coordinate d lands at
  /// lanes[(b * dim + d) * kBlock + l]. A pure copy, so every ISA writes
  /// the same bytes. `lanes` is 32-byte aligned.
  void (*stage_rows)(const float* rows, size_t dim, size_t blocks,
                     float* lanes);

  /// Sets sum[k] and sum_sq[k], for k < dim, to the sums from 0.0 of v and
  /// v * v (v = the row's coordinate k as a double) over `count` rows of
  /// width `dim`: row base + index[i] * dim for each i, or base + i * dim
  /// when `index` is null. Each dimension is summed in row order, as the
  /// scalar oracle does, so the sums are bit-identical; the ISA lanes only
  /// keep a chunk of dimensions' accumulators in registers across rows.
  void (*row_moments)(const float* base, size_t dim, const uint32_t* index,
                      size_t count, double* sum, double* sum_sq);

  /// Index of the first box of `rows`, in index order, that contains
  /// `point` (rows.dim() floats): no dimension d with lo > p or p > hi, the
  /// box_block test on the degenerate box [point, point]. rows.size() when
  /// none does. Containment is a boolean AND with no reduction order, so
  /// unlike the distance ops this one vectorizes *across dimensions*: one
  /// box per step, as many dimensions per compare as the lane's widest
  /// float vector holds, the last vector masked to the dimensions left.
  /// Sentinel (empty) boxes contain nothing.
  size_t (*first_containing)(const float* point, const BoxRows& rows);
};

/// Portable batched implementation (plain C++, compiler-autovectorized).
/// Always available; never returns null.
const BlockOps* GenericOps();

/// Explicit-ISA tables. Each returns null when its translation unit was not
/// compiled for the target architecture (the TU self-guards on the arch +
/// feature macros its per-file -m flags define); runtime CPU capability is
/// checked separately by KernelModeSupported().
const BlockOps* Avx2Ops();
const BlockOps* Avx512Ops();

/// The scalar moments oracle (defined in kernels.cc), which is also the
/// generic lane's row_moments: the compiler vectorizes its loop across
/// dimensions, and register-resident chunks in plain C++ did not beat it.
void ScalarRowMoments(const float* base, size_t dim, const uint32_t* index,
                      size_t count, double* sum, double* sum_sq);

/// The AVX2 lane's stage_rows, which the AVX-512 lane shares. Defined only
/// when block_ops_avx2.cc is compiled for x86-64 with AVX2, as it always is
/// wherever the AVX-512 lane is.
void Avx2StageRows(const float* rows, size_t dim, size_t blocks,
                   float* lanes);

}  // namespace hdidx::geometry::kernels::isa

#endif  // HDIDX_GEOMETRY_ISA_BLOCK_OPS_H_
