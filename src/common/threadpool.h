#ifndef FEDREC_COMMON_THREADPOOL_H_
#define FEDREC_COMMON_THREADPOOL_H_

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

/// \file
/// Fork-join thread pool with one entry point, ParallelFor. Each call is one
/// job: the range is cut into static chunks up front, and the workers and
/// the calling thread claim chunks with one atomic fetch-add each until none
/// is left; the caller then waits on an atomic count of finished chunks.
/// Between jobs the workers spin for a bounded time, then sleep in
/// std::atomic::wait, so back-to-back stages of a round skip the futex
/// wake-up and an idle pool costs no CPU. A dispatch allocates nothing.

namespace fedrec {

/// Non-owning reference to a callable invoked as fn(i). Two words, built
/// without allocating; the callable must outlive the call it is passed to.
class IndexFn {
 public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, IndexFn> &&
             std::invocable<F&, std::size_t>)
  IndexFn(F&& fn)  // implicit: call sites pass lambdas
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, std::size_t i) {
          (*static_cast<std::remove_reference_t<F>*>(object))(i);
        }) {}

  void operator()(std::size_t i) const { call_(object_, i); }

 private:
  void* object_;
  void (*call_)(void*, std::size_t);
};

/// Fixed pool of worker threads running one ParallelFor job at a time.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1; values are clamped up to 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins the workers. No ParallelFor may be running.
  ~ThreadPool();

  /// The number of workers. The calling thread of a ParallelFor works too,
  /// but every partition in the tree is derived from this count.
  std::size_t thread_count() const { return workers_.size(); }

  /// Executes fn(i) for i in [begin, end) with *static* chunking: the range
  /// is split up front into contiguous chunks of `grain` iterations (grain =
  /// 0 derives a chunk size from the thread count), chunks are claimed in
  /// index order by the workers and the calling thread, and the call blocks
  /// until all chunks finished. The index->chunk mapping is deterministic;
  /// callers must still not depend on which thread runs a chunk or on
  /// execution order. With <= 1 worker, or a single iteration, the loop runs
  /// inline on the calling thread. Calls from different outside threads run
  /// one after the other. A call from inside a body of this pool, on a
  /// worker or on the calling thread, aborts (FEDREC_CHECK) instead of
  /// deadlocking, even when the loop would have run inline.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   IndexFn fn);

 private:
  /// The current job's range and body. Written by the caller before it
  /// publishes the job; read only by a thread holding a valid claim on it.
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk = 1;
    const IndexFn* fn = nullptr;
  };

  void WorkerLoop();
  /// Claims and runs chunks of the current job until none is left.
  void RunChunks();

  std::vector<std::thread> workers_;
  /// Serializes outside callers: the pool has one job slot.
  std::mutex caller_mutex_;
  Job job_;
  /// Generation of the latest job; caller_mutex_ guards it.
  std::uint32_t generation_ = 0;
  /// (generation << 32) | chunk count of the latest job.
  alignas(64) std::atomic<std::uint64_t> limit_{0};
  /// (generation << 32) | next chunk index. A claim whose generation is not
  /// limit_'s, or whose index is past the count, belongs to a finished job
  /// and is dropped without touching job_.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  /// Chunks of the latest job that finished running.
  alignas(64) std::atomic<std::uint32_t> done_{0};
  /// Bumped to wake the workers: for each job and once on shutdown.
  alignas(64) std::atomic<std::uint32_t> wake_{0};
  std::atomic<bool> stopping_{false};
};

/// Executes fn(i) for i in [0, count) across the pool, blocking until done.
/// Thin wrapper over ThreadPool::ParallelFor (auto grain); when `pool` is
/// null the loop runs inline on the calling thread.
void ParallelFor(ThreadPool* pool, std::size_t count, IndexFn fn);

/// Number of hardware threads, at least 1.
std::size_t DefaultThreadCount();

}  // namespace fedrec

#endif  // FEDREC_COMMON_THREADPOOL_H_
