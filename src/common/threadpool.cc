#include "common/threadpool.h"

#include <algorithm>

#include "common/check.h"

namespace fedrec {

namespace {
/// The pool whose WorkerLoop runs on this thread (null off-pool). A worker
/// that waits on its own pool counts its own task as in flight and never
/// returns, so Wait() and ParallelFor() check this instead of deadlocking.
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  const std::size_t count = tasks.size();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::function<void()>& task : tasks) {
      queue_.push(std::move(task));
    }
    in_flight_ += count;
  }
  if (count == 1) {
    work_available_.notify_one();
  } else {
    work_available_.notify_all();
  }
}

void ThreadPool::Wait() {
  FEDREC_CHECK(t_worker_of != this)
      << "ThreadPool::Wait called from one of the pool's own workers "
         "(it would wait for its own task forever)";
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             std::size_t grain,
                             const std::function<void(std::size_t)>& fn) {
  FEDREC_CHECK(t_worker_of != this)
      << "ThreadPool::ParallelFor called from one of the pool's own workers "
         "(it would wait for its own task forever)";
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (thread_count() <= 1 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunk =
      grain > 0 ? grain
                : std::max<std::size_t>(1, count / (thread_count() * 4));
  const std::size_t num_tasks = (count + chunk - 1) / chunk;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    const std::size_t chunk_begin = begin + t * chunk;
    const std::size_t chunk_end = std::min(chunk_begin + chunk, end);
    tasks.emplace_back([&fn, chunk_begin, chunk_end] {
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
    });
  }
  SubmitBatch(std::move(tasks));
  Wait();
}

void ParallelFor(ThreadPool* pool, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->ParallelFor(0, count, 0, fn);
}

std::size_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace fedrec
