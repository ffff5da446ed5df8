#include "geometry/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/check.h"
#include "geometry/isa/block_ops.h"

namespace hdidx::geometry::kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kBlock = BoxSlab::kBlock;

static_assert(BoxSlab::kPlaneStride % kBlock == 0,
              "plane padding must cover whole kernel blocks");

// Test/bench override for the kernel mode; -1 = no override, the
// HDIDX_KERNEL environment default applies.
//
// Happens-before: SetKernelMode / ClearKernelModeOverride store with
// release semantics and ActiveKernelMode loads with acquire, so a thread
// that observes an override also observes everything the overriding
// thread did first (e.g. a test arranging slab state before forcing a
// mode). The once-only stderr warning for garbage HDIDX_KERNEL values
// lives in a function-local static below, whose initialization the
// language runs exactly once under its own guard — both pieces of mutable
// kernel-mode state are race-free by construction, not merely unobserved
// by TSan.
std::atomic<int> g_mode_override{-1};  // (hdidx-lint: allow-global)

/// Whether the running CPU has the ISA `mode` needs. Compile-target
/// availability (was the isa/ TU built for this arch?) is a separate check;
/// both must hold for KernelModeSupported.
bool CpuSupportsIsa(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
    case KernelMode::kGeneric:
      return true;
    case KernelMode::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelMode::kAvx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

/// The block-op table for `mode` (null for kScalar, which runs the inline
/// oracle loops below). Callers must pass a supported mode.
const isa::BlockOps* OpsFor(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return nullptr;
    case KernelMode::kGeneric:
      return isa::GenericOps();
    case KernelMode::kAvx2:
      return isa::Avx2Ops();
    case KernelMode::kAvx512:
      return isa::Avx512Ops();
  }
  return nullptr;
}

/// The per-dimension MINDIST term, branchless: max(0, lo - q, q - hi) as
/// doubles. Bit-identical to the branches in geometry::SquaredMinDist
/// (whichever side is positive is the same subtraction), and the std::max
/// argument order makes a NaN coordinate yield 0 exactly like both scalar
/// branches failing.
inline double MinDistTerm(double q, float lo, float hi) {
  return std::max(std::max(0.0, static_cast<double>(lo) - q),
                  q - static_cast<double>(hi));
}

/// SquaredMinDist of `center` to slab lane `b`, full accumulation in
/// dimension order. Sentinel lanes (empty boxes, padding) accumulate +inf —
/// the value geometry::SquaredMinDist returns for an empty box.
double LaneSquaredMinDist(std::span<const float> center, const BoxSlab& slab,
                          size_t b) {
  double s = 0.0;
  for (size_t d = 0; d < slab.dim(); ++d) {
    const double diff = MinDistTerm(center[d], slab.lo_plane(d)[b],
                                    slab.hi_plane(d)[b]);
    s += diff * diff;
  }
  return s;
}

/// Bounded max-heap of the k smallest squared distances: the k-th-distance
/// scan's heap. It runs std::priority_queue's push_heap/pop_heap steps over
/// borrowed storage of HeapSlots() doubles, so a tile's heaps share one
/// allocation.
class BoundedDistanceHeap {
 public:
  BoundedDistanceHeap(double* storage, size_t k) : heap_(storage), k_(k) {}

  void Push(double d2) {
    if (size_ < k_) {
      heap_[size_++] = d2;
      std::push_heap(heap_, heap_ + size_);
    } else if (d2 < heap_[0]) {
      std::pop_heap(heap_, heap_ + size_);
      heap_[size_ - 1] = d2;
      std::push_heap(heap_, heap_ + size_);
    }
  }

  /// Current k-th smallest squared distance; +inf until k were collected.
  double Threshold() const { return size_ == k_ ? heap_[0] : kInf; }

 private:
  double* heap_;
  size_t k_;
  size_t size_ = 0;
};

/// Storage slots a k-NN heap needs over `rows`: a heap never holds more
/// entries than the rows it saw.
size_t HeapSlots(size_t k, std::span<const float> rows, size_t dim) {
  HDIDX_CHECK(dim > 0);
  return std::min(k, rows.size() / dim);
}

static_assert(kScanChunkRows % kBlock == 0,
              "scan chunks must hold whole kernel blocks");

/// One query of a scan tile: its point, its excluded row and its heap.
struct ScanEntry {
  const float* query;
  size_t exclude_row;
  BoundedDistanceHeap heap;
};

/// Feeds one computed row to a query's heap unless it is the excluded row
/// (the query's own); duplicates of the query point still count as
/// neighbors.
void Consider(ScanEntry& entry, size_t row, double d2) {
  if (row == entry.exclude_row) return;
  entry.heap.Push(d2);
}

/// The k-th-distance scan behind KthDistanceScans, tiled over queries: walks
/// the rows in chunks of kScanChunkRows and runs every query of `tile` over
/// each chunk before moving on, so the rows are streamed from memory once per
/// tile instead of once per query. Within a chunk the batched modes walk the
/// tile in groups of isa::kScanGroup queries, each group running the grouped op
/// over one staged block at a time, so a block's lanes are loaded once per
/// group. Per query it skips the excluded row and feeds `heap.Push(d2)` in
/// ascending row order — exactly the pushes of a one-query scan, since no heap,
/// accumulator or threshold is shared between queries. `heap.Threshold()` is
/// the current no-op-push bound (k-th distance once k rows were collected); a
/// query abandons a block once every lane's partial sum exceeds its own bound
/// captured at block start — the bound only shrinks, so an abandoned row's push
/// would have been a no-op. The result of every query is therefore independent
/// of the tile and the group it rides in.
void ScanRows(std::span<ScanEntry> tile, std::span<const float> rows,
              size_t dim, KernelMode mode) {
  HDIDX_CHECK(dim > 0);
  HDIDX_CHECK(rows.size() % dim == 0);
  const size_t n = rows.size() / dim;
  const float* base_ptr = rows.data();
  const isa::BlockOps* ops = OpsFor(mode);  // null: the scalar oracle
  // The whole blocks of one chunk, staged for group_row_block: one
  // allocation per call, at most kScanChunkRows * dim floats.
  common::AlignedVector<float> staged(
      ops != nullptr ? std::min(n, kScanChunkRows) / kBlock * kBlock * dim
                     : 0);
  // The current group's queries as doubles, converted (exactly) once per
  // group and chunk instead of at every block. Sized by the group, not the
  // tile, so the scan's only sizeable transient stays `staged`.
  std::vector<double> wide(ops != nullptr ? isa::kScanGroup * dim : 0);
  std::array<const double*, isa::kScanGroup> group_queries;
  std::array<double, isa::kScanGroup> thresholds;
  std::array<double, isa::kScanGroup * kBlock> acc;

  for (size_t chunk = 0; chunk < n; chunk += kScanChunkRows) {
    const size_t chunk_end = std::min(n, chunk + kScanChunkRows);
    const size_t blocks = ops != nullptr ? (chunk_end - chunk) / kBlock : 0;
    if (blocks > 0) {
      ops->stage_rows(base_ptr + chunk * dim, dim, blocks, staged.data());
    }
    for (size_t g0 = 0; blocks > 0 && g0 < tile.size();
         g0 += isa::kScanGroup) {
      const auto group =
          tile.subspan(g0, std::min(isa::kScanGroup, tile.size() - g0));
      for (size_t g = 0; g < group.size(); ++g) {
        std::copy_n(group[g].query, dim, wide.data() + g * dim);
        group_queries[g] = wide.data() + g * dim;
      }
      for (size_t b = 0; b < blocks; ++b) {
        // Abandonment needs a full heap (threshold < +inf), so the skipped
        // pushes were no-ops and the row exclusion is moot for them too:
        // every abandoned lane has d2 > threshold >= 0.
        for (size_t g = 0; g < group.size(); ++g) {
          thresholds[g] = group[g].heap.Threshold();
        }
        const uint32_t alive = ops->group_row_block(
            group_queries.data(), group.size(),
            staged.data() + b * kBlock * dim, dim, thresholds.data(),
            acc.data());
        const size_t first = chunk + b * kBlock;
        for (size_t g = 0; g < group.size(); ++g) {
          if (((alive >> g) & 1) == 0) continue;
          for (size_t l = 0; l < kBlock; ++l) {
            Consider(group[g], first + l, acc[g * kBlock + l]);
          }
        }
      }
    }
    for (ScanEntry& entry : tile) {
      for (size_t next = chunk + blocks * kBlock; next < chunk_end; ++next) {
        if (next == entry.exclude_row) continue;
        const float* p = base_ptr + next * dim;
        double d2 = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = static_cast<double>(p[d]) - entry.query[d];
          d2 += diff * diff;
        }
        Consider(entry, next, d2);
      }
    }
  }
}

RowMoments ComputeMoments(const float* base, size_t dim,
                          const uint32_t* index, size_t count,
                          KernelMode mode) {
  HDIDX_CHECK(dim > 0);
  RowMoments moments{std::vector<double>(dim), std::vector<double>(dim)};
  const isa::BlockOps* ops = OpsFor(ResolveKernelMode(mode));
  (ops != nullptr ? ops->row_moments : isa::ScalarRowMoments)(
      base, dim, index, count, moments.sum.data(), moments.sum_sq.data());
  return moments;
}

/// The first dimension of maximal variance sum_sq / n - (sum / n)^2.
size_t MaxVarianceOf(const RowMoments& moments, size_t count) {
  const double n = static_cast<double>(count);
  size_t best = 0;
  double best_var = -1.0;
  for (size_t k = 0; k < moments.sum.size(); ++k) {
    const double mean = moments.sum[k] / n;
    const double var = moments.sum_sq[k] / n - mean * mean;
    if (var > best_var) {
      best_var = var;
      best = k;
    }
  }
  return best;
}

}  // namespace

/// The scalar moments oracle: the loop the bulk loaders shipped with, one
/// row at a time, every dimension's sums in row order.
void isa::ScalarRowMoments(const float* base, size_t dim,
                           const uint32_t* index, size_t count, double* sum,
                           double* sum_sq) {
  std::fill_n(sum, dim, 0.0);
  std::fill_n(sum_sq, dim, 0.0);
  for (size_t i = 0; i < count; ++i) {
    const float* row = base + (index != nullptr ? index[i] : i) * dim;
    for (size_t k = 0; k < dim; ++k) {
      const double v = row[k];
      sum[k] += v;
      sum_sq[k] += v * v;
    }
  }
}

bool KernelModeSupported(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
    case KernelMode::kGeneric:
      return true;
    case KernelMode::kAvx2:
    case KernelMode::kAvx512:
      return OpsFor(mode) != nullptr && CpuSupportsIsa(mode);
  }
  return false;
}

KernelMode ResolveKernelMode(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
    case KernelMode::kGeneric:
      return mode;
    case KernelMode::kAvx512:
      if (KernelModeSupported(KernelMode::kAvx512)) {
        return KernelMode::kAvx512;
      }
      [[fallthrough]];
    case KernelMode::kAvx2:
      if (KernelModeSupported(KernelMode::kAvx2)) return KernelMode::kAvx2;
      return KernelMode::kGeneric;
  }
  return KernelMode::kGeneric;
}

KernelMode BestKernelMode() {
  if (KernelModeSupported(KernelMode::kAvx512)) return KernelMode::kAvx512;
  if (KernelModeSupported(KernelMode::kAvx2)) return KernelMode::kAvx2;
  return KernelMode::kGeneric;
}

std::vector<KernelMode> SupportedKernelModes() {
  std::vector<KernelMode> modes;
  for (const KernelMode mode :
       {KernelMode::kScalar, KernelMode::kGeneric, KernelMode::kAvx2,
        KernelMode::kAvx512}) {
    if (KernelModeSupported(mode)) modes.push_back(mode);
  }
  return modes;
}

std::string_view KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kGeneric:
      return "generic";
    case KernelMode::kAvx2:
      return "avx2";
    case KernelMode::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseKernelMode(std::string_view name, KernelMode* mode) {
  if (name == "scalar") {
    *mode = KernelMode::kScalar;
    return true;
  }
  if (name == "generic") {
    *mode = KernelMode::kGeneric;
    return true;
  }
  if (name == "avx2") {
    *mode = KernelMode::kAvx2;
    return true;
  }
  if (name == "avx512") {
    *mode = KernelMode::kAvx512;
    return true;
  }
  *mode = BestKernelMode();
  return false;
}

KernelMode ActiveKernelMode() {
  const int forced = g_mode_override.load(std::memory_order_acquire);
  if (forced >= 0) return ResolveKernelMode(static_cast<KernelMode>(forced));
  static const KernelMode from_env = [] {
    const char* env = std::getenv("HDIDX_KERNEL");
    // An empty value (e.g. `HDIDX_KERNEL= prog`) means unset, not garbage.
    if (env == nullptr || *env == '\0') return BestKernelMode();
    KernelMode parsed = KernelMode::kGeneric;
    if (!ParseKernelMode(env, &parsed)) {
      // Deterministic fallback, never UB: warn once (stderr — stdout is the
      // serving protocol) and run the host's best mode.
      std::cerr << "hdidx: unknown HDIDX_KERNEL value \"" << env
                << "\"; falling back to " << KernelModeName(parsed) << "\n";
    }
    return ResolveKernelMode(parsed);
  }();
  return from_env;
}

void SetKernelMode(KernelMode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_release);
}

void ClearKernelModeOverride() {
  g_mode_override.store(-1, std::memory_order_release);
}

void BoxSlab::Fill(size_t count, size_t dim,
                   const BoundingBox& (*get)(const void*, size_t),
                   const void* ctx, common::Arena* arena) {
  size_ = count;
  dim_ = dim;
  padded_ = (count + kPlaneStride - 1) / kPlaneStride * kPlaneStride;
  common::Arena* backing = arena != nullptr ? arena : &owned_;
  // Two 64B-aligned arena arrays; padded_ is a multiple of 16 floats, so
  // every per-dimension plane inside them starts on a cacheline boundary.
  // Writing the planes here is the first touch, on the building thread.
  lo_ = backing->AllocateArray<float>(dim_ * padded_);
  hi_ = backing->AllocateArray<float>(dim_ * padded_);
  std::fill_n(lo_, dim_ * padded_, std::numeric_limits<float>::infinity());
  std::fill_n(hi_, dim_ * padded_, -std::numeric_limits<float>::infinity());
  for (size_t b = 0; b < count; ++b) {
    const BoundingBox& box = get(ctx, b);
    HDIDX_CHECK(box.dim() == dim_);
    if (box.empty()) continue;  // keep the sentinel: infinitely far
    for (size_t d = 0; d < dim_; ++d) {
      lo_[d * padded_ + b] = box.lo()[d];
      hi_[d * padded_ + b] = box.hi()[d];
    }
  }
}

BoxSlab::BoxSlab(std::span<const BoundingBox> boxes, common::Arena* arena) {
  if (boxes.empty()) return;
  Fill(
      boxes.size(), boxes[0].dim(),
      [](const void* ctx, size_t i) -> const BoundingBox& {
        return static_cast<const BoundingBox*>(ctx)[i];
      },
      boxes.data(), arena);
}

BoxSlab::BoxSlab(std::span<const BoundingBox* const> boxes,
                 common::Arena* arena) {
  if (boxes.empty()) return;
  Fill(
      boxes.size(), boxes[0]->dim(),
      [](const void* ctx, size_t i) -> const BoundingBox& {
        return *static_cast<const BoundingBox* const*>(ctx)[i];
      },
      boxes.data(), arena);
}

BoxRows::BoxRows(const BoxSlab& slab)
    : size_(slab.size()),
      dim_(slab.dim()),
      stride_((slab.dim() + BoxSlab::kPlaneStride - 1) /
              BoxSlab::kPlaneStride * BoxSlab::kPlaneStride),
      rows_(2 * size_ * stride_, 0.0f) {
  for (size_t d = 0; d < dim_; ++d) {
    const float* lo = slab.lo_plane(d);
    const float* hi = slab.hi_plane(d);
    for (size_t b = 0; b < size_; ++b) {
      rows_[2 * b * stride_ + d] = lo[b];
      rows_[(2 * b + 1) * stride_ + d] = hi[b];
    }
  }
}

size_t CountSphereHits(std::span<const float> center, double r2,
                       const BoxSlab& slab) {
  return CountSphereHits(center, r2, slab, ActiveKernelMode());
}

size_t CountSphereHits(std::span<const float> center, double r2,
                       const BoxSlab& slab, KernelMode mode) {
  if (slab.size() == 0) return 0;
  HDIDX_CHECK(center.size() == slab.dim());
  mode = ResolveKernelMode(mode);
  size_t count = 0;
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      if (LaneSquaredMinDist(center, slab, b) <= r2) ++count;
    }
    return count;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<double, kBlock> acc;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    if (!ops->sphere_block(center.data(), slab, base, r2, acc.data())) {
      continue;
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (acc[l] <= r2) ++count;
    }
  }
  return count;
}

void AppendSphereHits(std::span<const float> center, double r2,
                      const BoxSlab& slab, std::vector<uint32_t>* hits) {
  AppendSphereHits(center, r2, slab, hits, ActiveKernelMode());
}

void AppendSphereHits(std::span<const float> center, double r2,
                      const BoxSlab& slab, std::vector<uint32_t>* hits,
                      KernelMode mode) {
  if (slab.size() == 0) return;
  HDIDX_CHECK(center.size() == slab.dim());
  mode = ResolveKernelMode(mode);
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      if (LaneSquaredMinDist(center, slab, b) <= r2) {
        hits->push_back(static_cast<uint32_t>(b));
      }
    }
    return;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<double, kBlock> acc;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    if (!ops->sphere_block(center.data(), slab, base, r2, acc.data())) {
      continue;
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (acc[l] <= r2) hits->push_back(static_cast<uint32_t>(base + l));
    }
  }
}

void AppendBoxHits(const BoundingBox& query, const BoxSlab& slab,
                   std::vector<uint32_t>* hits) {
  AppendBoxHits(query, slab, hits, ActiveKernelMode());
}

void AppendBoxHits(const BoundingBox& query, const BoxSlab& slab,
                   std::vector<uint32_t>* hits, KernelMode mode) {
  if (slab.size() == 0 || query.empty()) return;
  HDIDX_CHECK(query.dim() == slab.dim());
  mode = ResolveKernelMode(mode);
  const size_t dim = slab.dim();
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      bool alive = true;
      for (size_t d = 0; d < dim; ++d) {
        if (slab.lo_plane(d)[b] > query.hi()[d] ||
            query.lo()[d] > slab.hi_plane(d)[b]) {
          alive = false;
          break;
        }
      }
      if (alive) hits->push_back(static_cast<uint32_t>(b));
    }
    return;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  std::array<bool, kBlock> alive;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    ops->box_block(query.lo().data(), query.hi().data(), slab, base,
                   alive.data());
    for (size_t l = 0; l < lanes; ++l) {
      if (alive[l]) hits->push_back(static_cast<uint32_t>(base + l));
    }
  }
}

size_t NearestBox(std::span<const float> point, const BoxSlab& slab,
                  const BoxRows& rows) {
  return NearestBox(point, slab, rows, ActiveKernelMode());
}

size_t NearestBox(std::span<const float> point, const BoxSlab& slab,
                  const BoxRows& rows, KernelMode mode) {
  HDIDX_CHECK(slab.size() > 0);
  HDIDX_CHECK(point.size() == slab.dim());
  HDIDX_CHECK(rows.size() == slab.size() && rows.dim() == slab.dim());
  mode = ResolveKernelMode(mode);
  size_t best = 0;
  double best_d2 = kInf;
  if (mode == KernelMode::kScalar) {
    for (size_t b = 0; b < slab.size(); ++b) {
      double d2 = 0.0;
      for (size_t d = 0; d < slab.dim(); ++d) {
        const double diff = MinDistTerm(point[d], slab.lo_plane(d)[b],
                                        slab.hi_plane(d)[b]);
        d2 += diff * diff;
        if (d2 >= best_d2) break;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best = b;
        if (d2 == 0.0) break;  // containment: no closer box exists
      }
    }
    return best;
  }
  const isa::BlockOps* ops = OpsFor(mode);
  // Containment first: a box is at MINDIST exactly 0 iff no coordinate of
  // the point lies outside it (lo > p or p > hi; a float difference never
  // squares to 0 unless it is 0), and the oracle stops at the first such
  // box, which first_containing returns.
  const size_t inside = ops->first_containing(point.data(), rows);
  if (inside < rows.size()) return inside;
  // Outside every box: every MINDIST is positive.
  std::array<double, kBlock> acc;
  for (size_t base = 0; base < slab.size(); base += kBlock) {
    const size_t lanes = std::min(kBlock, slab.size() - base);
    // A lane whose partial sum already reaches best_d2 cannot win (the
    // update is strict <). sphere_block abandons on partial > threshold,
    // so pass the largest double still allowed to win: nextafter(best_d2,
    // 0) — for positive finite best_d2, acc > nextafter(best_d2, 0) iff
    // acc >= best_d2.
    const double threshold =
        best_d2 == kInf ? kInf : std::nextafter(best_d2, 0.0);
    if (!ops->sphere_block(point.data(), slab, base, threshold, acc.data())) {
      continue;
    }
    for (size_t l = 0; l < lanes; ++l) {
      if (acc[l] < best_d2) {
        best_d2 = acc[l];
        best = base + l;
      }
    }
  }
  return best;
}

BoundedPairHeap::BoundedPairHeap(size_t k) : k_(k) { HDIDX_CHECK(k > 0); }

void BoundedPairHeap::Push(double d2, size_t row) {
  const std::pair<double, size_t> p(d2, row);
  if (heap_.size() < k_) {
    heap_.push(p);
  } else if (p < heap_.top()) {
    heap_.pop();
    heap_.push(p);
  }
}

double BoundedPairHeap::Threshold() const {
  return heap_.size() == k_ ? heap_.top().first : kInf;
}

std::vector<std::pair<double, size_t>> BoundedPairHeap::TakeSortedAscending() {
  std::vector<std::pair<double, size_t>> result(heap_.size());
  for (size_t i = heap_.size(); i > 0; --i) {
    result[i - 1] = heap_.top();
    heap_.pop();
  }
  return result;
}

void KthDistanceScans(std::span<const float> queries,
                      std::span<const size_t> exclude_rows,
                      std::span<const float> rows, size_t dim, size_t k,
                      std::span<double> out) {
  KthDistanceScans(queries, exclude_rows, rows, dim, k, out,
                   ActiveKernelMode());
}

void KthDistanceScans(std::span<const float> queries,
                      std::span<const size_t> exclude_rows,
                      std::span<const float> rows, size_t dim, size_t k,
                      std::span<double> out, KernelMode mode) {
  HDIDX_CHECK(k > 0);
  const size_t q = exclude_rows.size();
  HDIDX_CHECK(queries.size() == q * dim);
  HDIDX_CHECK(out.size() == q);
  const KernelMode resolved = ResolveKernelMode(mode);
  // One allocation holds every heap of a sub-tile, capped at
  // kScanTileHeapBytes; each sub-tile streams the rows once.
  const size_t slots = HeapSlots(k, rows, dim);
  const size_t width = std::max<size_t>(
      1, kScanTileHeapBytes / (sizeof(double) * std::max<size_t>(slots, 1)));
  std::vector<double> storage(std::min(q, width) * slots);
  std::vector<ScanEntry> tile;
  tile.reserve(std::min(q, width));
  for (size_t begin = 0; begin < q; begin += width) {
    const size_t end = std::min(q, begin + width);
    tile.clear();
    for (size_t i = begin; i < end; ++i) {
      tile.push_back({queries.data() + i * dim, exclude_rows[i],
                      {storage.data() + (i - begin) * slots, k}});
    }
    ScanRows(std::span(tile), rows, dim, resolved);
    for (size_t i = begin; i < end; ++i) {
      out[i] = tile[i - begin].heap.Threshold();
    }
  }
}

RowMoments ComputeRowMoments(const float* base, size_t dim,
                             std::span<const uint32_t> index,
                             KernelMode mode) {
  return ComputeMoments(base, dim, index.data(), index.size(), mode);
}

RowMoments ComputeRowMoments(const float* rows, size_t count, size_t dim,
                             KernelMode mode) {
  return ComputeMoments(rows, dim, nullptr, count, mode);
}

size_t MaxVarianceDim(const float* base, size_t dim,
                      std::span<const uint32_t> index) {
  return MaxVarianceDim(base, dim, index, ActiveKernelMode());
}

size_t MaxVarianceDim(const float* base, size_t dim,
                      std::span<const uint32_t> index, KernelMode mode) {
  return MaxVarianceOf(ComputeRowMoments(base, dim, index, mode),
                       index.size());
}

size_t MaxVarianceDim(const float* rows, size_t count, size_t dim) {
  return MaxVarianceDim(rows, count, dim, ActiveKernelMode());
}

size_t MaxVarianceDim(const float* rows, size_t count, size_t dim,
                      KernelMode mode) {
  return MaxVarianceOf(ComputeRowMoments(rows, count, dim, mode), count);
}

}  // namespace hdidx::geometry::kernels
