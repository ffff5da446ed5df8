#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"

namespace hdidx::common {
namespace {

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, RangeSmallerThanGrainIsOneInlineChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> chunks;
  // end - begin <= grain runs serially on the caller, as a single chunk, so
  // an unsynchronized vector is safe here.
  pool.ParallelFor(10, 13, 100, [&](size_t begin, size_t end) {
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 10u);
  EXPECT_EQ(chunks[0].second, 13u);
}

TEST(ThreadPoolTest, EveryElementVisitedExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  pool.ParallelFor(0, n, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "element " << i;
  }
}

TEST(ThreadPoolTest, ChunkLayoutIndependentOfThreadCount) {
  // The determinism contract: identical (begin, end, grain) yields identical
  // chunk boundaries no matter how many threads serve them.
  auto layout = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks;
    pool.ParallelFor(3, 103, 9, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = layout(1);
  EXPECT_EQ(layout(2), serial);
  EXPECT_EQ(layout(8), serial);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndLoopDrains) {
  ThreadPool pool(4);
  const size_t n = 200;
  std::vector<std::atomic<int>> visits(n);
  EXPECT_THROW(
      pool.ParallelFor(0, n, 1,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                           if (i == 57) throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The loop drains before rethrowing: every chunk still ran exactly once.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "element " << i;
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 20; ++job) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 100, 4, [&](size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u) << "job " << job;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<size_t> inner_total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t, size_t) {
    // Issued from inside a worker, this must degrade to inline serial
    // execution rather than re-entering the pool.
    pool.ParallelFor(0, 10, 2, [&](size_t begin, size_t end) {
      inner_total.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(inner_total.load(), 80u);
}

TEST(ExecutionContextTest, NullPoolRunsSerially) {
  const ExecutionContext ctx;  // no pool
  std::vector<size_t> order;
  ctx.ParallelFor(0, 6, 2, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<size_t> expected(6);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ExecutionContextTest, ZeroGrainPicksDefaultAndCoversRange) {
  ThreadPool pool(4);
  const ExecutionContext ctx(&pool);
  const size_t n = 333;
  std::vector<std::atomic<int>> visits(n);
  ctx.ParallelFor(0, n, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(RngForkTest, SameStreamIdSameSequence) {
  const Rng parent(42);
  Rng a = parent.Fork(7);
  Rng b = parent.Fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngForkTest, DifferentStreamIdsDiverge) {
  const Rng parent(42);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) differs = a.NextU64() != b.NextU64();
  EXPECT_TRUE(differs);
}

TEST(RngForkTest, ForkDoesNotAdvanceParent) {
  Rng with_fork(42);
  (void)with_fork.Fork(3);
  Rng without_fork(42);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(with_fork.NextU64(), without_fork.NextU64());
}

TEST(ExecutionContextTest, StreamRngDependsOnlyOnSeedAndStream) {
  ThreadPool pool(2);
  const ExecutionContext ctx_a(&pool, /*seed=*/11);
  const ExecutionContext ctx_b(nullptr, /*seed=*/11);
  Rng a = ctx_a.StreamRng(5);
  Rng b = ctx_b.StreamRng(5);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(DefaultGrainTest, SerialGetsWholeRangeParallelGetsChunks) {
  EXPECT_EQ(DefaultGrain(100, 1), 100u);
  EXPECT_GE(DefaultGrain(0, 1), 1u);
  EXPECT_GE(DefaultGrain(100, 4), 1u);
  EXPECT_LE(DefaultGrain(100, 4), 100u);
}

TEST(ThreadCountDeathTest, MalformedOrOversizedEnvValueWarnsAndIsIgnored) {
  // ThreadCount() only reads the policy, so no pool or thread is started
  // here. The warning is issued once per process, so the check runs in a
  // fresh one: threadsafe death tests re-exec the binary and run only this
  // body in the child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const size_t fallback =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EXIT(
      {
        SetThreadCount(0);
        for (const char* bad : {"4x", "abc", "1025", "-4", " 4", "+4",
                                "18446744073709551620"}) {
          setenv("HDIDX_THREADS", bad, 1);
          if (ThreadCount() != fallback) _Exit(2);
        }
        _Exit(0);
      },
      ::testing::ExitedWithCode(0),
      "ignoring HDIDX_THREADS=\"4x\" \\(expected an integer in \\[1, "
      "1024\\]\\)");
}

}  // namespace
}  // namespace hdidx::common
