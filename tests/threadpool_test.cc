#include "common/threadpool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace fedrec {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(counter.load(), (cycle + 1) * 20);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroCountIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleIterationRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(&pool, 1, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  const std::size_t n = 100000;
  std::vector<long long> values(n);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<long long> parallel_sum{0};
  ParallelFor(&pool, n, [&](std::size_t i) {
    parallel_sum.fetch_add(values[i], std::memory_order_relaxed);
  });
  const long long serial =
      std::accumulate(values.begin(), values.end(), 0LL);
  EXPECT_EQ(parallel_sum.load(), serial);
}

TEST(DefaultThreadCountTest, AtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

// --- ThreadPool::ParallelFor (member, static chunking) ---------------------

TEST(MemberParallelForTest, CoversRangeExactlyOnceWithExplicitGrain) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(10, 90, /*grain=*/7,
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0) << "index " << i;
  }
}

TEST(MemberParallelForTest, GrainLargerThanRangeStillCoversAll) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 10, /*grain=*/1000,
                   [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(MemberParallelForTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&called](std::size_t) { called = true; });
  pool.ParallelFor(7, 3, 1, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(MemberParallelForTest, AutoGrainMatchesSerialSum) {
  ThreadPool pool(8);
  const std::size_t n = 50000;
  std::atomic<long long> sum{0};
  pool.ParallelFor(0, n, /*grain=*/0, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(),
            static_cast<long long>(n) * static_cast<long long>(n - 1) / 2);
}

TEST(MemberParallelForTest, SingleWorkerPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<int> order;  // safe unsynchronized: inline on this thread
  pool.ParallelFor(2, 7, 2,
                   [&order](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5, 6}));
}

TEST(ThreadPoolDeathTest, ParallelForFromAWorkerAbortsInsteadOfDeadlocking) {
  // A worker's own task counts as in flight, so a nested ParallelFor (or
  // Wait) on the same pool would wait for itself forever. It must abort.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&pool] {
          pool.ParallelFor(0, 8, 1, [](std::size_t) {});
        });
        pool.Wait();
      },
      "own workers");
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([&pool] { ParallelFor(&pool, 1, [](std::size_t) {}); });
        pool.Wait();
      },
      "own workers");
}

TEST(ThreadPoolTest, WorkersMayDriveAnotherPool) {
  // The rule is per pool: a worker of one pool fanning out on another is
  // fine (the outer task waits on workers it does not occupy).
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> calls{0};
  outer.Submit([&] {
    inner.ParallelFor(0, 6, 1, [&](std::size_t) { calls.fetch_add(1); });
  });
  outer.Wait();
  EXPECT_EQ(calls.load(), 6);
}

}  // namespace
}  // namespace fedrec
