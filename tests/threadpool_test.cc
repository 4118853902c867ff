#include "common/threadpool.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

/// Every operator new call in this binary, on any thread.
std::atomic<std::uint64_t> g_operator_new_calls{0};

// The replacements stay out of line, so the compiler does not pair the
// malloc and free inside them with the new and delete expressions it
// inlines into.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fedrec {
namespace {

TEST(ThreadPoolTest, ExecutesEveryChunk) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 100, /*grain=*/1,
                   [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 3, 1, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, MultipleJobs) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int cycle = 0; cycle < 5; ++cycle) {
    pool.ParallelFor(0, 20, 1, [&counter](std::size_t) { counter.fetch_add(1); });
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
  // A worker's own chunk counts toward the job, so a nested ParallelFor on
  // the same pool would wait for itself forever. It must abort.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<bool> worker_ran{false};
        pool.ParallelFor(0, 64, 1, [&](std::size_t) {
          if (std::this_thread::get_id() != caller) {
            worker_ran = true;
            pool.ParallelFor(0, 8, 1, [](std::size_t) {});
          }
          // Hold the calling thread in its chunk so the workers claim the
          // others.
          while (!worker_ran) std::this_thread::yield();
        });
      },
      "own workers");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<bool> worker_ran{false};
        pool.ParallelFor(0, 64, 1, [&](std::size_t) {
          if (std::this_thread::get_id() != caller) {
            worker_ran = true;
            ParallelFor(&pool, 1, [](std::size_t) {});
          }
          while (!worker_ran) std::this_thread::yield();
        });
      },
      "own workers");
}

TEST(ThreadPoolDeathTest, ParallelForFromTheCallingThreadsChunkAborts) {
  // The calling thread runs chunks too; a nested call from one of them must
  // abort just like one from a worker.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        const std::thread::id caller = std::this_thread::get_id();
        pool.ParallelFor(0, 64, 1, [&](std::size_t) {
          if (std::this_thread::get_id() == caller) {
            pool.ParallelFor(0, 8, 1, [](std::size_t) {});
          }
          // Hold each worker in its first chunk so the calling thread
          // claims one of the others.
          for (;;) std::this_thread::yield();
        });
      },
      "own workers");
  // One worker: the loop runs inline on the calling thread.
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.ParallelFor(0, 2, 1, [&pool](std::size_t) {
          ParallelFor(&pool, 1, [](std::size_t) {});
        });
      },
      "own workers");
}

TEST(ThreadPoolTest, WorkersMayDriveAnotherPool) {
  // The rule is per pool: a body of one pool fanning out on another is fine
  // (it waits on workers it does not occupy). Bodies on the outer pool's
  // workers and on its calling thread all call into the inner pool, so the
  // inner pool also serializes concurrent callers.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> calls{0};
  outer.ParallelFor(0, 4, 1, [&](std::size_t) {
    inner.ParallelFor(0, 6, 1, [&](std::size_t) { calls.fetch_add(1); });
  });
  EXPECT_EQ(calls.load(), 24);
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirOwnRange) {
  // Two outside threads share one pool; their calls run one after the
  // other, and each covers exactly its own range every time.
  ThreadPool pool(3);
  constexpr int kCalls = 1000;
  constexpr std::size_t kRange[] = {37, 64};
  std::vector<std::atomic<int>> hits0(kRange[0]);
  std::vector<std::atomic<int>> hits1(kRange[1]);
  std::vector<std::atomic<int>>* hits[] = {&hits0, &hits1};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      std::vector<std::atomic<int>>& mine = *hits[c];
      for (int call = 0; call < kCalls; ++call) {
        pool.ParallelFor(0, kRange[c], /*grain=*/1 + c,
                         [&mine](std::size_t i) { mine[i].fetch_add(1); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < kRange[c]; ++i) {
      EXPECT_EQ((*hits[c])[i].load(), kCalls) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, WarmDispatchAllocatesNothing) {
  ThreadPool pool(3);
  std::vector<int> data(64);
  const auto body = [&data](std::size_t i) { data[i] += 1; };
  pool.ParallelFor(0, data.size(), 1, body);  // warm: threads and waiters
  const std::uint64_t before = g_operator_new_calls.load();
  ::operator delete(::operator new(8));  // the counter sees allocations
  ASSERT_EQ(g_operator_new_calls.load() - before, 1u);
  for (int call = 0; call < 100; ++call) {
    pool.ParallelFor(0, data.size(), /*grain=*/call % 3, body);
    ParallelFor(&pool, data.size(), body);
  }
  EXPECT_EQ(g_operator_new_calls.load() - before, 1u);
  EXPECT_EQ(data[0], 201);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(ThreadPoolTest, IdlePoolSleeps) {
  // After a dispatch the workers spin for a bounded time, then sleep: over
  // a 200 ms idle window the process burns well under a tenth of a core.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 32, 1, [&counter](std::size_t) { counter.fetch_add(1); });
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double cpu = ProcessCpuSeconds() - cpu0;
  EXPECT_LT(cpu, 0.1 * 0.2) << "idle pool burned " << cpu << " s of CPU";
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
}  // namespace fedrec
