#ifndef HDIDX_COMMON_ARENA_H_
#define HDIDX_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace hdidx::common {

/// A 64-byte-aligned bump-pointer allocator for the hot data structures the
/// kernel layer scans: BoxSlab lo/hi planes, tree-node child id arrays, and
/// per-tree directory slabs. One arena backs one owning structure, so
/// everything a scan streams through sits in a handful of large
/// cacheline-aligned blocks instead of per-node heap allocations scattered
/// across the address space.
///
/// Ownership contract (the `kSingleOwner` rule the ExecutionContext layer
/// already uses): an Arena is owned by exactly one structure and is mutated
/// only while that structure is being built, on the thread doing the
/// building. Allocation is NOT thread-safe. After construction finishes the
/// arena is read-only and may be shared by any number of concurrent readers.
///
/// First-touch placement: Allocate returns uninitialized memory and the
/// builder writes it immediately on its own (pool-worker) thread, so on
/// multi-socket machines pages land on the NUMA node of the thread that
/// builds — and later scans — the structure.
///
/// Blocks are stable: growing the arena never moves previously returned
/// pointers, so spans handed out stay valid for the arena's lifetime
/// (including across moves of the Arena itself).
class Arena {
 public:
  /// Every allocation is aligned to this many bytes (one x86 cacheline,
  /// enough for any current SIMD lane width).
  static constexpr size_t kAlignment = 64;

  /// Default block size for the first block when the first allocation is
  /// smaller; later blocks double until kMaxBlockBytes.
  static constexpr size_t kMinBlockBytes = 4096;
  static constexpr size_t kMaxBlockBytes = size_t{1} << 22;  // 4 MiB

  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `bytes` of uninitialized, kAlignment-aligned memory (a valid
  /// unique pointer even for bytes == 0). Never returns null.
  HDIDX_BUILD_ONLY void* Allocate(size_t bytes);

  /// Typed array allocation (uninitialized; T must be trivial so the arena
  /// never has to run constructors or destructors).
  template <typename T>
  HDIDX_BUILD_ONLY T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena stores raw trivial data only");
    return static_cast<T*>(Allocate(count * sizeof(T)));
  }

  /// Total bytes handed out (after per-allocation alignment rounding).
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total bytes reserved from the system across all blocks.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Number of system allocations backing the arena.
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct BlockDeleter {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{kAlignment});
    }
  };
  using Block = std::unique_ptr<std::byte[], BlockDeleter>;

  std::vector<Block> blocks_;
  std::byte* next_ = nullptr;  // bump pointer into the last block
  size_t remaining_ = 0;       // bytes left in the last block
  size_t next_block_bytes_ = kMinBlockBytes;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

/// Minimal allocator giving std::vector kAlignment-aligned storage — used
/// where a structure needs aligned, growable storage (dataset rows) rather
/// than the arena's fixed single-owner blocks.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{Arena::kAlignment}));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Arena::kAlignment});
  }

  /// resize() default-initializes, so growing a float buffer that is about
  /// to be overwritten (a row gather) costs no zero-filling pass; an
  /// explicit value, as in `AlignedVector<float>(n, 0.0f)`, still fills.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// A std::vector whose buffer starts on a cacheline boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace hdidx::common

#endif  // HDIDX_COMMON_ARENA_H_
