#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>

namespace kvec {
namespace {

// True while the current thread is executing chunks of some region; nested
// ParallelFor calls then run inline instead of deadlocking on the pool.
thread_local bool t_inside_parallel_region = false;

}  // namespace

// Shared completion state of one ParallelFor invocation. Every queued chunk
// holds a shared_ptr to it, so a worker finishing the last chunk can still
// safely signal `done` after the caller's stack frame became invalid.
struct ThreadPool::Region {
  const std::function<void(int, int)>* fn = nullptr;  // outlives the region
  std::atomic<int> remaining{0};
  Mutex mutex;   // pairs `done` with the remaining==0 transition
  CondVar done;  // signalled by the worker that finishes the last chunk
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunChunk(const Chunk& chunk) {
  t_inside_parallel_region = true;
  (*chunk.region->fn)(chunk.begin, chunk.end);
  t_inside_parallel_region = false;
  if (chunk.region->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Region& region = *chunk.region;
    MutexLock lock(region.mutex);
    region.done.NotifyAll();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Chunk chunk;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && queue_.empty()) wake_.Wait(mutex_);
      if (shutdown_ && queue_.empty()) return;
      chunk = std::move(queue_.front());
      queue_.pop_front();
    }
    RunChunk(chunk);
  }
}

void ThreadPool::ParallelFor(int begin, int end, int grain,
                             const std::function<void(int, int)>& fn) {
  if (end <= begin) return;
  grain = std::max(1, grain);
  const int n = end - begin;
  const int num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1 || num_threads_ == 1 || t_inside_parallel_region) {
    const bool was_inside = t_inside_parallel_region;
    t_inside_parallel_region = true;
    fn(begin, end);
    t_inside_parallel_region = was_inside;
    return;
  }

  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->remaining.store(num_chunks, std::memory_order_relaxed);

  {
    MutexLock lock(mutex_);
    for (int c = 0; c < num_chunks; ++c) {
      const int chunk_begin = begin + c * grain;
      queue_.push_back({region, chunk_begin, std::min(chunk_begin + grain, end)});
    }
  }
  wake_.NotifyAll();

  // The caller works too — but only on its own region's chunks, so a small
  // latency-critical ParallelFor never inherits the tail of a large
  // concurrent one queued ahead of it (workers still drain FIFO).
  for (;;) {
    Chunk chunk;
    {
      MutexLock lock(mutex_);
      auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&region](const Chunk& c) { return c.region == region; });
      if (it == queue_.end()) break;
      chunk = std::move(*it);
      queue_.erase(it);
    }
    RunChunk(chunk);
  }
  {
    Region& r = *region;
    MutexLock lock(r.mutex);
    while (r.remaining.load(std::memory_order_acquire) != 0) {
      r.done.Wait(r.mutex);
    }
  }
}

int ThreadPool::DefaultThreadCount() {
  // An environment variable, not a flag: the first tensor kernel creates
  // the pool, which can be before any flag parser runs.
  // kvec-lint: allow-next(env-knob) read before any flag parser runs
  if (const char* env = std::getenv("KVEC_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: tensor kernels may run during static teardown, so
  // the pool must outlive every user.
  // kvec-lint: allow-next(naked-new) leaked teardown-safe singleton
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

}  // namespace kvec
