#ifndef HDIDX_GEOMETRY_KERNELS_H_
#define HDIDX_GEOMETRY_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/thread_annotations.h"
#include "geometry/bounding_box.h"

namespace hdidx::geometry::kernels {

/// Which implementation the dispatching kernel entry points run.
///
/// kScalar is the retained reference oracle: one candidate at a time,
/// exactly the loops the library shipped with. Every other mode evaluates
/// one query against many candidates at once, vectorizing *across*
/// candidates — never within a single distance reduction — so every
/// individual distance keeps the scalar accumulation order and every
/// count, radius, and assignment is bit-identical to the scalar mode.
/// Early exits only ever use the fact that adding a non-negative term to a
/// non-negative IEEE double is monotone, so abandoning a candidate whose
/// partial sum already exceeds the decision threshold cannot change any
/// decision.
///
/// kGeneric is the portable batched implementation (plain C++, compiler
/// autovectorized), and the only batched mode on non-x86 hosts.
/// kAvx2/kAvx512 are explicit-intrinsic x86 lanes in src/geometry/isa/,
/// available only when both the build targets x86-64 and the running CPU
/// reports the feature; requesting an unavailable one downgrades (never
/// UB), see ResolveKernelMode().
enum class KernelMode {
  kScalar = 0,
  kGeneric = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Number of enumerators in KernelMode (for sweeps).
inline constexpr size_t kNumKernelModes = 4;

/// Whether `mode` can run on this build + CPU (compile-target support and
/// runtime feature detection). kScalar and kGeneric are always supported.
bool KernelModeSupported(KernelMode mode);

/// `mode` if supported, else its deterministic downgrade: kAvx512 falls to
/// kAvx2 then kGeneric; kAvx2 falls to kGeneric. The result is always
/// supported.
KernelMode ResolveKernelMode(KernelMode mode);

/// The widest supported mode on this host (never kScalar: kGeneric when no
/// explicit ISA is available).
KernelMode BestKernelMode();

/// All supported modes, deterministic order: kScalar, kGeneric, then any
/// explicit ISAs. The sweep set for equivalence tests and benches.
std::vector<KernelMode> SupportedKernelModes();

/// Stable lowercase name ("scalar", "generic", "avx2", "avx512") —
/// the accepted HDIDX_KERNEL values.
std::string_view KernelModeName(KernelMode mode);

/// Parses a mode name. Recognized names return true and store the named mode,
/// unresolved — the caller decides whether to downgrade. Unknown names return
/// false and store BestKernelMode(), the deterministic fallback
/// ActiveKernelMode() warns about.
bool ParseKernelMode(std::string_view name, KernelMode* mode);

/// The mode the dispatching kernels run in: the process-wide override if one
/// is set (tests/benches), else the HDIDX_KERNEL environment variable (read
/// once; unknown values warn on stderr once and fall back), else
/// BestKernelMode(). Always returns a supported mode — requests for
/// unavailable ISAs resolve through ResolveKernelMode().
KernelMode ActiveKernelMode();

/// Process-wide mode override (A/B tests compare modes in one process).
/// Thread-safe; flip only between queries, not during one.
void SetKernelMode(KernelMode mode);

/// Removes the override, falling back to HDIDX_KERNEL / the default.
void ClearKernelModeOverride();

/// Sentinel for a k-NN scan's excluded row: exclude nothing.
inline constexpr size_t kNoRow = static_cast<size_t>(-1);

/// Structure-of-arrays layout over a set of MBRs: for every dimension d a
/// contiguous plane of lo values and a plane of hi values across all boxes,
/// padded to a multiple of kPlaneStride lanes so kernels process fixed-width
/// blocks without tail branches and every plane starts on a cacheline
/// boundary.
///
/// Storage lives in a common::Arena — either one passed in (a tree placing
/// its directory slabs next to its nodes) or an internally owned one — so
/// planes are 64-byte-aligned and contiguous rather than scattered
/// per-vector heap blocks. The slab writes its planes at build time on the
/// calling thread (first touch), and is immutable afterwards; it is movable
/// but not copyable, like the arena backing it.
///
/// Padding lanes and empty boxes store the sentinel (lo=+inf, hi=-inf):
/// any query coordinate is "outside" by an infinite margin, so their
/// accumulated distance is +inf — exactly SquaredMinDist's value for an
/// empty box — and a box-overlap test fails in every dimension. Padding
/// lanes are additionally excluded from all results by index bound.
class BoxSlab {
 public:
  /// Lanes per kernel block; the padded size is a multiple of this.
  static constexpr size_t kBlock = 8;
  /// Plane padding granularity: 16 floats = one 64-byte cacheline, so
  /// every lo/hi plane is cacheline-aligned inside the arena block.
  static constexpr size_t kPlaneStride = 16;

  /// An empty slab (size() == 0), e.g. a leaf node's in RTree.
  BoxSlab() = default;

  BoxSlab(const BoxSlab&) = delete;
  BoxSlab& operator=(const BoxSlab&) = delete;
  BoxSlab(BoxSlab&&) = default;
  BoxSlab& operator=(BoxSlab&&) = default;

  /// Builds the slab over `boxes` (all of equal dimensionality) into
  /// `arena`, or into an internally owned arena when null.
  HDIDX_BUILD_ONLY explicit BoxSlab(std::span<const BoundingBox> boxes,
                                    common::Arena* arena = nullptr);

  /// Builds the slab over boxes reached through pointers (used by tree
  /// nodes, whose child boxes are not contiguous in memory).
  HDIDX_BUILD_ONLY explicit BoxSlab(std::span<const BoundingBox* const> boxes,
                                    common::Arena* arena = nullptr);

  /// Number of real boxes.
  size_t size() const { return size_; }
  /// Dimensionality (0 for an empty slab).
  size_t dim() const { return dim_; }
  /// size() rounded up to a multiple of kPlaneStride.
  size_t padded_size() const { return padded_; }

  /// Plane of lo (resp. hi) coordinates of dimension `d` across all
  /// padded_size() lanes. 64-byte-aligned.
  const float* lo_plane(size_t d) const { return lo_ + d * padded_; }
  const float* hi_plane(size_t d) const { return hi_ + d * padded_; }

 private:
  HDIDX_BUILD_ONLY void Fill(size_t count, size_t dim,
                             const BoundingBox& (*get)(const void*, size_t),
                             const void* ctx, common::Arena* arena);

  size_t size_ = 0;
  size_t dim_ = 0;
  size_t padded_ = 0;
  float* lo_ = nullptr;  // dim_ planes of padded_ floats each, arena-owned
  float* hi_ = nullptr;
  common::Arena owned_;  // backs lo_/hi_ when no external arena was given
};

/// Number of slab boxes whose SquaredMinDist to `center` is <= r2 — i.e.
/// how many page MBRs a query sphere with squared radius r2 intersects.
/// Decision-identical to testing SquaredMinDist(center, box) <= r2 per box
/// (empty boxes count only when r2 is +inf, matching their infinite
/// SquaredMinDist). The batched paths abandon a block once every lane's
/// partial sum exceeds r2.
HDIDX_CONCURRENT_READ size_t CountSphereHits(std::span<const float> center,
                                             double r2, const BoxSlab& slab);
HDIDX_CONCURRENT_READ size_t CountSphereHits(std::span<const float> center,
                                             double r2, const BoxSlab& slab,
                                             KernelMode mode);

/// Appends (in ascending order) the indices of slab boxes whose
/// SquaredMinDist to `center` is <= r2. The mask variant of CountSphereHits,
/// used by tree traversals that must recurse into the hit children.
HDIDX_CONCURRENT_READ void AppendSphereHits(std::span<const float> center,
                                            double r2, const BoxSlab& slab,
                                            std::vector<uint32_t>* hits);
HDIDX_CONCURRENT_READ void AppendSphereHits(std::span<const float> center,
                                            double r2, const BoxSlab& slab,
                                            std::vector<uint32_t>* hits,
                                            KernelMode mode);

/// Appends (in ascending order) the indices of slab boxes intersecting
/// `query` (BoundingBox::Intersects semantics: empty boxes intersect
/// nothing) — the range-query counterpart of AppendSphereHits.
HDIDX_CONCURRENT_READ void AppendBoxHits(const BoundingBox& query,
                                         const BoxSlab& slab,
                                         std::vector<uint32_t>* hits);
HDIDX_CONCURRENT_READ void AppendBoxHits(const BoundingBox& query,
                                         const BoxSlab& slab,
                                         std::vector<uint32_t>* hits,
                                         KernelMode mode);

/// The boxes of a BoxSlab again, box-major: box b's lo (hi) coordinates are
/// the dim() contiguous floats at lo_row(b) (hi_row(b)), each row padded to
/// a multiple of BoxSlab::kPlaneStride floats so it starts on a cacheline.
/// NearestBox's containment step reads a box's whole extent with
/// dimension-wide vector loads, one box per step; the slab's planes serve
/// its MINDIST fallback. Copied from a slab, so empty boxes keep the
/// sentinel (lo=+inf, hi=-inf) and contain nothing. O(size · dim) floats,
/// built once per box set and immutable afterwards.
class BoxRows {
 public:
  HDIDX_BUILD_ONLY explicit BoxRows(const BoxSlab& slab);

  /// Number of boxes (the slab's size()).
  size_t size() const { return size_; }
  /// Dimensionality (the slab's dim()).
  size_t dim() const { return dim_; }

  /// Box b's lo (resp. hi) row: dim() floats, 64-byte-aligned.
  const float* lo_row(size_t b) const {
    return rows_.data() + 2 * b * stride_;
  }
  const float* hi_row(size_t b) const { return lo_row(b) + stride_; }

 private:
  size_t size_;
  size_t dim_;
  size_t stride_;                      // dim_ rounded up to kPlaneStride
  common::AlignedVector<float> rows_;  // per box: lo row, then hi row
};

/// Index of the first slab box attaining the minimal SquaredMinDist to
/// `point` (ties broken towards the lowest index). Containment — distance
/// exactly 0 — short-circuits: the batched modes first look for the
/// lowest-index box containing the point, testing one box of `rows` (the
/// same boxes, box-major) per step with dimension-wide compares, and scan
/// the slab's MINDISTs only when none does. Empty boxes are infinitely far
/// and are never chosen unless every box is empty (then index 0). Requires
/// slab.size() > 0, and `rows` built from `slab`'s boxes.
HDIDX_CONCURRENT_READ size_t NearestBox(std::span<const float> point,
                                        const BoxSlab& slab,
                                        const BoxRows& rows);
HDIDX_CONCURRENT_READ size_t NearestBox(std::span<const float> point,
                                        const BoxSlab& slab,
                                        const BoxRows& rows, KernelMode mode);

/// Rows per chunk of the query-tiled k-NN scan: a whole number of kernel
/// blocks (BoxSlab::kBlock), so chunk boundaries fall on block boundaries
/// and every query walks the same block partition as an untiled scan. The
/// batched modes stage a chunk's whole blocks once, each 8-row block
/// dimension-major, and 512 staged rows stay L2-resident while a tile's
/// queries reuse them (120 KB at d=60).
inline constexpr size_t kScanChunkRows = 512;

/// Heap storage one query tile of the k-NN scan may hold. A tile wider than
/// kScanTileHeapBytes / (8 · min(k, n)) queries runs as several sub-tiles,
/// each streaming the rows once, so no q · k product sizes an allocation. A
/// q=100, k=21 tile needs 17 KB and runs whole.
inline constexpr size_t kScanTileHeapBytes = size_t{1} << 20;

/// Bounded max-heap of the k smallest (squared distance, row) pairs under
/// pair ordering: rows are unique, so it retains exactly the first k
/// elements a partial_sort of all pairs would produce, in the same order.
/// The heap behind index::TreeKnnSearch.
class BoundedPairHeap {
 public:
  /// Requires k > 0.
  explicit BoundedPairHeap(size_t k);

  /// Offers one candidate.
  void Push(double d2, size_t row);

  /// Current k-th smallest squared distance; +inf until k were collected.
  double Threshold() const;

  /// The retained pairs in ascending (distance, row) order; consumes the
  /// heap.
  std::vector<std::pair<double, size_t>> TakeSortedAscending();

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

/// k-th smallest squared L2 distance from each query of a tile to the
/// n = rows.size() / dim row-major rows, in one pass: `queries` holds
/// q = exclude_rows.size() row-major query points, and out[i] is query i's
/// k-th smallest squared distance over every row except exclude_rows[i]
/// (kNoRow: none; duplicates of the query point still count), +inf when
/// fewer than k rows qualify. Each query keeps a bounded max-heap of its k
/// smallest distances, fed in ascending row order with every distance
/// accumulated in the scalar dimension order; the batched paths abandon a
/// row once its partial sum exceeds the query's current k-th threshold (a
/// no-op push either way), so every mode is bit-identical to the scalar
/// oracle. The scan walks `rows` in L2-sized chunks and runs every query of
/// the tile over a chunk before the next, so the rows are streamed once per
/// tile rather than once per query. Each query captures its abandonment
/// threshold at each block start exactly as a one-query tile does, so its
/// result does not depend on the tile it rides in. Tiles whose heaps would
/// outgrow kScanTileHeapBytes are split into sub-tiles.
HDIDX_CONCURRENT_READ void KthDistanceScans(std::span<const float> queries,
                                            std::span<const size_t> exclude_rows,
                                            std::span<const float> rows,
                                            size_t dim, size_t k,
                                            std::span<double> out);
HDIDX_CONCURRENT_READ void KthDistanceScans(std::span<const float> queries,
                                            std::span<const size_t> exclude_rows,
                                            std::span<const float> rows,
                                            size_t dim, size_t k,
                                            std::span<double> out,
                                            KernelMode mode);

/// Per-dimension raw moments of a set of row-major rows: sum[k] and
/// sum_sq[k] are the sums from 0.0 of v and v * v, v being coordinate k of
/// each row as a double, added in row order. That is the scalar loop
/// `sum[k] += v; sum_sq[k] += v * v`, so every mode is bit-identical to it;
/// the batched modes keep a chunk of dimensions' accumulators in registers
/// across the rows instead of loading and storing them per element.
struct RowMoments {
  std::vector<double> sum;
  std::vector<double> sum_sq;
};

/// Moments of the rows base + index[i] * dim, in index order (repeats
/// count repeatedly).
HDIDX_CONCURRENT_READ RowMoments ComputeRowMoments(
    const float* base, size_t dim, std::span<const uint32_t> index,
    KernelMode mode);
/// Moments of `count` contiguous row-major rows starting at `rows`.
HDIDX_CONCURRENT_READ RowMoments ComputeRowMoments(const float* rows,
                                                   size_t count, size_t dim,
                                                   KernelMode mode);

/// The split dimension of a VAMSplit bulk load: the first k maximizing
/// sum_sq[k] / n - (sum[k] / n)^2 over the rows' moments (n rows; a strict
/// `>` scan, so the lowest index wins a tie). One implementation for every
/// bulk loader, in-memory or out-of-core, over an index list or a
/// contiguous range.
HDIDX_CONCURRENT_READ size_t MaxVarianceDim(const float* base, size_t dim,
                                            std::span<const uint32_t> index);
HDIDX_CONCURRENT_READ size_t MaxVarianceDim(const float* base, size_t dim,
                                            std::span<const uint32_t> index,
                                            KernelMode mode);
HDIDX_CONCURRENT_READ size_t MaxVarianceDim(const float* rows, size_t count,
                                            size_t dim);
HDIDX_CONCURRENT_READ size_t MaxVarianceDim(const float* rows, size_t count,
                                            size_t dim, KernelMode mode);

}  // namespace hdidx::geometry::kernels

#endif  // HDIDX_GEOMETRY_KERNELS_H_
