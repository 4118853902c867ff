#ifndef FEDREC_COMMON_THREADPOOL_H_
#define FEDREC_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file
/// Fixed-size thread pool plus a blocking ParallelFor. Used to fan the
/// per-client local training of a federated round and the full-ranking metric
/// evaluation (n_users x n_items score matrix) across cores.

namespace fedrec {

/// Fixed pool of worker threads executing submitted closures FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1; values are clamped up to 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueues a batch of tasks with a single lock acquisition and a single
  /// wake-up, instead of one lock + notify per task. Tasks must not throw.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished executing. Aborts when
  /// called from one of this pool's workers, which would wait for its own
  /// task forever.
  void Wait();

  /// Executes fn(i) for i in [begin, end) across the pool with *static*
  /// chunking: the range is split up front into contiguous chunks of `grain`
  /// iterations (grain = 0 derives a chunk size from the thread count), one
  /// task per chunk, and the call blocks until all chunks finished. Static
  /// assignment keeps the index->task mapping deterministic; callers must
  /// still not depend on execution order. With <= 1 worker the loop runs
  /// inline on the calling thread. Must be called from outside the pool: a
  /// call from one of its workers aborts (FEDREC_CHECK) instead of
  /// deadlocking, even when the loop would have run inline.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Executes fn(i) for i in [0, count) across the pool, blocking until done.
/// Thin wrapper over ThreadPool::ParallelFor (auto grain); when `pool` is
/// null the loop runs inline on the calling thread.
void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn);

/// Number of hardware threads, at least 1.
std::size_t DefaultThreadCount();

}  // namespace fedrec

#endif  // FEDREC_COMMON_THREADPOOL_H_
