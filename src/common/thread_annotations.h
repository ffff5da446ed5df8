#ifndef HDIDX_COMMON_THREAD_ANNOTATIONS_H_
#define HDIDX_COMMON_THREAD_ANNOTATIONS_H_

/// Thread-safety annotation macros — the compile-time half of the repo's
/// concurrency contracts (DESIGN.md §5).
///
/// Two independent annotation families live here:
///
/// 1. Clang Thread Safety Analysis wrappers (HDIDX_CAPABILITY,
///    HDIDX_GUARDED_BY, HDIDX_REQUIRES, HDIDX_ACQUIRE/RELEASE, ...).
///    Under clang with -Wthread-safety (the `thread-safety` CI leg, which
///    builds with -Werror) these make lock discipline a compile error:
///    touching a HDIDX_GUARDED_BY(mu_) field without holding mu_ fails the
///    build. Under GCC they expand to nothing — zero cost, zero semantics.
///    They only attach to types that declare HDIDX_CAPABILITY (the
///    common::Mutex wrapper in common/mutex.h); a raw std::mutex is
///    invisible to the analysis, which is why the lock-owning classes in
///    this repo use the wrapper.
///
/// 2. Ownership-phase tags (HDIDX_BUILD_ONLY, HDIDX_CONCURRENT_READ,
///    HDIDX_UNGUARDED). These carry the single-owner-build /
///    concurrent-read phase model that common::Arena, BoxSlab, and RTree
///    construction rely on. They expand to [[clang::annotate]] attributes
///    under clang (visible to AST tooling) and to nothing under GCC, and
///    are enforced — on every compiler — by tools/hdidx_analyze.py, whose
///    `phase` rule walks the call graph and rejects any path from a
///    HDIDX_CONCURRENT_READ function into a HDIDX_BUILD_ONLY one, and
///    whose `guarded-by` rule requires every mutable field of a
///    mutex-owning class to be HDIDX_GUARDED_BY, HDIDX_UNGUARDED (with a
///    written reason), or allowlisted.

#if defined(__clang__) && defined(__has_attribute)
#define HDIDX_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define HDIDX_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op on GCC/MSVC
#endif

/// Declares a type to be a synchronization capability ("mutex"); unlocks
/// the rest of the analysis for members guarded by instances of it.
#define HDIDX_CAPABILITY(x) HDIDX_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor (lock_guard-style).
#define HDIDX_SCOPED_CAPABILITY HDIDX_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define HDIDX_GUARDED_BY(x) HDIDX_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointee may only be accessed while holding `x` (the pointer itself is
/// unguarded).
#define HDIDX_PT_GUARDED_BY(x) HDIDX_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and does not
/// release it).
#define HDIDX_REQUIRES(...) \
  HDIDX_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define HDIDX_ACQUIRE(...) \
  HDIDX_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define HDIDX_RELEASE(...) \
  HDIDX_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability (deadlock
/// prevention for non-reentrant locks).
#define HDIDX_EXCLUDES(...) \
  HDIDX_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Returns a reference to the named capability (for wrapper accessors).
#define HDIDX_RETURN_CAPABILITY(x) \
  HDIDX_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function's synchronization is correct for reasons the
/// analysis cannot express (epoch publication, atomics). Every use must
/// carry a comment stating the happens-before argument.
#define HDIDX_NO_THREAD_SAFETY_ANALYSIS \
  HDIDX_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Ownership-phase tags (enforced by tools/hdidx_analyze.py on any compiler).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define HDIDX_PHASE_ANNOTATE(tag) [[clang::annotate(tag)]]
#else
#define HDIDX_PHASE_ANNOTATE(tag)  // GCC: analyzer reads the macro token
#endif

/// The function mutates single-owner build state (arena allocation, tree
/// construction, slab filling). It may only run during the build phase, on
/// the one thread that owns the structure being built — never from a
/// concurrent read path. hdidx_analyze's `phase` rule rejects any call
/// chain from a HDIDX_CONCURRENT_READ function into one of these.
#define HDIDX_BUILD_ONLY HDIDX_PHASE_ANNOTATE("hdidx::build_only")

/// The function is a read-phase entry point that concurrent threads call
/// against an already-built structure (registry lookups, slab scans, tree
/// traversals). It must be reachable-free of HDIDX_BUILD_ONLY calls.
#define HDIDX_CONCURRENT_READ HDIDX_PHASE_ANNOTATE("hdidx::concurrent_read")

/// Field-level declaration that a mutable member of a mutex-owning class
/// is deliberately NOT guarded by the mutex — because it is synchronized by
/// construction/join order or by its own atomicity. Each use must carry a
/// comment saying which. Satisfies hdidx_analyze's `guarded-by` rule.
#define HDIDX_UNGUARDED HDIDX_PHASE_ANNOTATE("hdidx::unguarded")

#endif  // HDIDX_COMMON_THREAD_ANNOTATIONS_H_
