#ifndef HDIDX_COMMON_PARALLEL_H_
#define HDIDX_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"

namespace hdidx::common {

/// Number of worker threads the library's parallel sections use, resolved in
/// precedence order:
///   1. the last value passed to SetThreadCount() (if any, and nonzero);
///   2. the HDIDX_THREADS environment variable (if set to a positive int);
///   3. std::thread::hardware_concurrency() (at least 1).
size_t ThreadCount();

/// Overrides the thread-count policy for this process (the --threads flag of
/// the command-line tools). Pass 0 to fall back to HDIDX_THREADS / hardware
/// concurrency. Must be called before the first use of
/// DefaultExecutionContext() to affect the shared pool — later calls only
/// influence pools constructed afterwards.
void SetThreadCount(size_t n);

/// A fixed-size pool of worker threads executing chunked parallel-for loops.
///
/// Determinism contract: ParallelFor splits [begin, end) into chunks of
/// exactly `grain` elements (last chunk possibly shorter). The chunk layout
/// depends only on (begin, end, grain) — never on the thread count or on
/// scheduling — so callers that write per-element outputs, or combine
/// per-chunk partial results in chunk order, produce bit-identical results
/// for every thread count, including 1.
///
/// A pool of 1 thread spawns no workers at all: ParallelFor then runs every
/// chunk inline on the calling thread, making the serial path literally the
/// same code as the parallel one.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (clamped to >= 1; 1 means inline
  /// execution with no spawned threads).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(chunk_begin, chunk_end) for every chunk of [begin, end) and
  /// blocks until all chunks completed. The calling thread participates in
  /// the work. If any invocation of `fn` throws, the first exception (in
  /// completion order) is rethrown here after the loop drains; remaining
  /// chunks still run.
  ///
  /// Reentrancy: a ParallelFor issued from inside a worker (a nested
  /// parallel section) executes serially inline — nesting is safe and
  /// deadlock-free, the inner loop simply doesn't fan out again.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Enqueues a fire-and-forget task. Tasks interleave with ParallelFor
  /// jobs: an idle worker prefers a queued task, a busy pool runs it when a
  /// worker frees up. On a 1-thread pool the task runs inline here — same
  /// code path, no threads — so anything built on Submit is trivially
  /// deterministic at 1 thread.
  ///
  /// Tasks must not throw and must synchronize their own completion (the
  /// pool offers no join handle). Tasks still queued when the pool is
  /// destroyed are run — never dropped — on the destroying thread, so a
  /// completion a consumer waits on is always eventually signaled. A nested
  /// ParallelFor inside a task runs inline, like any worker-context call.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();
  /// Runs one submitted task with the in-parallel-section TLS flag set (so
  /// nested ParallelFor degrades to inline execution).
  static void RunTask(const std::function<void()>& task);
  /// Claims and runs chunks of the job published as `epoch` (which has
  /// `num_chunks` chunks) until the claim counter moves past the job — or to
  /// a newer epoch, whose chunks it then validly serves, having synchronized
  /// with the newer publication through the acquiring claim.
  ///
  /// Reads the mu_-guarded job fields without holding mu_: the releasing
  /// store of claim_ in ParallelFor publishes them, the acquiring fetch_add
  /// here synchronizes with that publication, and the held chunk keeps the
  /// job from draining and being rewritten — a happens-before edge the
  /// lock-based analysis cannot express, hence the opt-out. A newly seen
  /// epoch's chunk count is read under mu_ (it holds no chunk yet).
  void RunChunks(uint32_t epoch, size_t num_chunks)
      HDIDX_NO_THREAD_SAFETY_ANALYSIS;

  const size_t num_threads_;
  /// Spawned in the constructor, joined in the destructor; never touched
  /// in between — synchronized by construction/join order, not by mu_.
  HDIDX_UNGUARDED std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // workers wait here for a new job
  CondVar done_cv_;  // ParallelFor waits here for completion
  bool shutdown_ HDIDX_GUARDED_BY(mu_) = false;
  Mutex submit_mu_;  // serializes concurrent ParallelFor publishers
  /// Fire-and-forget tasks (Submit); drained by idle workers ahead of job
  /// chunks, and by the destructor after the workers joined.
  std::deque<std::function<void()>> tasks_ HDIDX_GUARDED_BY(mu_);

  // State of the single in-flight job (ParallelFor blocks, and publishers
  // are serialized, so there is at most one), written under mu_. A chunk is
  // claimed by a fetch_add on `claim_`, whose high 32 bits carry the job
  // epoch: a straggler from the previous job either sees its own epoch with
  // an exhausted chunk index (and stops), or the new epoch (and, having
  // synchronized with the publication through the acquire claim, validly
  // executes the chunk it just claimed, or stops if that index is past
  // the new job's end — see RunChunks). No claim is ever lost or run with
  // stale job state.
  uint32_t job_epoch_ HDIDX_GUARDED_BY(mu_) = 0;
  const std::function<void(size_t, size_t)>* job_fn_ HDIDX_GUARDED_BY(mu_) =
      nullptr;
  size_t job_begin_ HDIDX_GUARDED_BY(mu_) = 0;
  size_t job_end_ HDIDX_GUARDED_BY(mu_) = 0;
  size_t job_grain_ HDIDX_GUARDED_BY(mu_) = 1;
  size_t num_chunks_ HDIDX_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> claim_{0};  // (epoch << 32) | next chunk index
  std::atomic<size_t> chunks_done_{0};
  std::exception_ptr first_error_ HDIDX_GUARDED_BY(mu_);
};

/// Suggested grain so a balanced loop yields a few chunks per thread (enough
/// for load balancing, few enough that chunk-claiming overhead is noise).
size_t DefaultGrain(size_t n, size_t threads);

/// Bundles the execution resources a parallel section needs: the pool to
/// fan out on, and a base seed for deterministic per-chunk RNG substreams.
///
/// A null pool means serial execution — ParallelFor then runs the whole
/// range as one chunk on the calling thread. ExecutionContext is cheap to
/// copy and does not own the pool.
struct ExecutionContext {
  /// Serial context (no pool).
  ExecutionContext() = default;

  explicit ExecutionContext(ThreadPool* p, uint64_t seed = 0)
      : pool(p), rng_seed(seed) {}

  ThreadPool* pool = nullptr;
  uint64_t rng_seed = 0;

  size_t threads() const { return pool != nullptr ? pool->num_threads() : 1; }

  /// ParallelFor with the pool's determinism contract; serial when pool is
  /// null. `grain` of 0 picks DefaultGrain(end - begin, threads()).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn) const;

  /// Deterministic RNG substream for a logical chunk or stream id: depends
  /// only on (rng_seed, stream_id), never on the thread executing it.
  Rng StreamRng(uint64_t stream_id) const {
    return Rng(rng_seed).Fork(stream_id);
  }
};

/// The process-wide context: a shared pool of ThreadCount() threads, created
/// lazily on first use. Every library entry point that takes an
/// ExecutionContext defaults to this one.
const ExecutionContext& DefaultExecutionContext();

/// Structured fork-join executed as breadth-first waves on an
/// ExecutionContext — the shape recursive divide-and-conquer work (like the
/// bulk loader's VAMSplit recursion) needs on top of ParallelFor.
///
/// Starting from `frontier`, every wave runs `run(task, &spawned)` for each
/// frontier task (grain 1, so the pool load-balances uneven tasks); the
/// tasks a call appends to its private `spawned` vector become part of the
/// next wave. The loop ends when a wave spawns nothing.
///
/// Determinism contract: each task writes only its own `spawned` slot, and
/// the next frontier is the concatenation of those slots in task order, so
/// the set *and order* of tasks executed is identical for every thread
/// count, including serial contexts. Tasks within a wave may run
/// concurrently and in any order — they must only touch disjoint state, per
/// the pool's contract. A parent task always runs in an earlier wave than
/// anything it spawned, and the ParallelFor barrier between waves sequences
/// (and publishes, in the memory-model sense) the parent's writes before
/// its children run. Tasks needing randomness must derive it from a
/// deterministic id they carry (ctx.StreamRng(id)), never from wave or
/// thread identity.
template <typename Task, typename RunFn>
void ForkJoinWaves(const ExecutionContext& ctx, std::vector<Task> frontier,
                   const RunFn& run) {
  while (!frontier.empty()) {
    std::vector<std::vector<Task>> spawned(frontier.size());
    ctx.ParallelFor(0, frontier.size(), /*grain=*/1,
                    [&](size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        run(frontier[i], &spawned[i]);
                      }
                    });
    size_t total = 0;
    for (const auto& s : spawned) total += s.size();
    std::vector<Task> next;
    next.reserve(total);
    for (auto& s : spawned) {
      next.insert(next.end(), std::make_move_iterator(s.begin()),
                  std::make_move_iterator(s.end()));
    }
    frontier = std::move(next);
  }
}

}  // namespace hdidx::common

#endif  // HDIDX_COMMON_PARALLEL_H_
