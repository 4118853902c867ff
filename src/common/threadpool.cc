#include "common/threadpool.h"

#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fedrec {

namespace {

/// How long an idle worker, or a caller waiting for the last chunks, polls
/// before it sleeps. Long enough to bridge the serial gaps between the
/// parallel stages of a round; short enough that an idle pool's spinning
/// workers cost well under a core.
constexpr std::uint64_t kSpinMicros = 500;
/// Polls between two clock reads (and yields) while spinning.
constexpr int kPollsPerYield = 64;

/// A ParallelFor frame open on this thread: the pools whose bodies (or, for
/// a worker, whose WorkerLoop) this thread is inside, innermost first. A
/// ParallelFor on one of them would wait for itself, so it aborts instead.
struct ActiveFrame {
  const ThreadPool* pool;
  const ActiveFrame* outer;
};
thread_local const ActiveFrame* t_active = nullptr;

bool InsideBodyOf(const ThreadPool* pool) {
  for (const ActiveFrame* f = t_active; f != nullptr; f = f->outer) {
    if (f->pool == pool) return true;
  }
  return false;
}

/// Pushes a frame for the scope of one ParallelFor, or of a worker.
class FrameScope {
 public:
  explicit FrameScope(const ThreadPool* pool) : frame_{pool, t_active} {
    t_active = &frame_;
  }
  ~FrameScope() { t_active = frame_.outer; }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

 private:
  ActiveFrame frame_;
};

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Polls `ready` for up to kSpinMicros, yielding the core between bursts so
/// an oversubscribed host still runs its other threads. False on timeout.
template <typename Ready>
bool SpinUntil(const Ready& ready) {
  const std::uint64_t deadline = MonotonicMicros() + kSpinMicros;
  for (;;) {
    for (int i = 0; i < kPollsPerYield; ++i) {
      if (ready()) return true;
      CpuRelax();
    }
    if (MonotonicMicros() >= deadline) return false;
    std::this_thread::yield();
  }
}

constexpr std::uint64_t Pack(std::uint32_t generation, std::uint32_t low) {
  return (std::uint64_t{generation} << 32) | low;
}
constexpr std::uint32_t GenerationOf(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}
constexpr std::uint32_t LowOf(std::uint64_t word) {
  return static_cast<std::uint32_t>(word);
}

/// Chunk counts stay below this so the claims that overshoot a job's last
/// chunk (at most one per thread) never carry into the generation.
constexpr std::size_t kMaxChunks = std::size_t{1} << 31;

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
    std::lock_guard<std::mutex> lock(caller_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
    wake_.store(++generation_, std::memory_order_release);
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  const FrameScope scope(this);
  std::uint32_t seen = 0;
  for (;;) {
    const auto woken = [&] {
      return wake_.load(std::memory_order_acquire) != seen;
    };
    if (!SpinUntil(woken)) wake_.wait(seen, std::memory_order_acquire);
    seen = wake_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_relaxed)) return;
    RunChunks();
  }
}

void ThreadPool::RunChunks() {
  for (;;) {
    // The claim's generation says which job its index belongs to. A thread
    // that woke late may claim against a newer job than the one that woke
    // it; the claim is then a real chunk of that job (which cannot finish
    // without it) or past its end, never a chunk counted twice.
    const std::uint64_t claim = claim_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t limit = limit_.load(std::memory_order_acquire);
    if (GenerationOf(claim) != GenerationOf(limit) ||
        LowOf(claim) >= LowOf(limit)) {
      return;
    }
    const std::size_t lo = job_.begin + LowOf(claim) * job_.chunk;
    const std::size_t hi = std::min(lo + job_.chunk, job_.end);
    const IndexFn& fn = *job_.fn;
    for (std::size_t i = lo; i < hi; ++i) fn(i);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == LowOf(limit)) {
      done_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             std::size_t grain, IndexFn fn) {
  FEDREC_CHECK(!InsideBodyOf(this))
      << "ThreadPool::ParallelFor called from inside a body of the same pool, "
         "on one of its own workers or its calling thread (it would wait for "
         "itself forever)";
  if (begin >= end) return;
  const FrameScope scope(this);
  const std::size_t count = end - begin;
  const std::size_t chunk =
      grain > 0 ? grain
                : std::max<std::size_t>(1, count / (thread_count() * 4));
  const std::size_t num_chunks = (count - 1) / chunk + 1;
  if (thread_count() <= 1 || num_chunks == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  FEDREC_CHECK_LT(num_chunks, kMaxChunks);
  const auto chunks = static_cast<std::uint32_t>(num_chunks);

  std::lock_guard<std::mutex> lock(caller_mutex_);
  job_ = Job{begin, end, chunk, &fn};
  const std::uint32_t generation = ++generation_;
  // Every chunk of the previous job finished, so no thread touches done_
  // until a claim below succeeds.
  done_.store(0, std::memory_order_relaxed);
  limit_.store(Pack(generation, chunks), std::memory_order_release);
  claim_.store(Pack(generation, 0), std::memory_order_release);
  wake_.store(generation, std::memory_order_release);
  wake_.notify_all();
  RunChunks();
  const auto finished = [&] {
    return done_.load(std::memory_order_acquire) == chunks;
  };
  if (SpinUntil(finished)) return;
  for (std::uint32_t d; (d = done_.load(std::memory_order_acquire)) != chunks;) {
    done_.wait(d, std::memory_order_acquire);
  }
}

void ParallelFor(ThreadPool* pool, std::size_t count, IndexFn fn) {
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
