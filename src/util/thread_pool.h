// A small persistent thread pool with a blocking ParallelFor primitive.
//
// The tensor kernels parallelise over independent row blocks (matmul C-row
// panels, softmax/layernorm rows, large elementwise spans). All of those
// shapes reduce to "run fn(begin, end) over disjoint chunks of [0, n)", so
// that is the whole API:
//
//   ParallelFor(0, rows, /*grain=*/8, [&](int r0, int r1) {
//     for (int r = r0; r < r1; ++r) ...;
//   });
//
// Semantics:
//  * Blocking: ParallelFor returns only after every chunk ran. The calling
//    thread participates, so a 1-thread pool degenerates to an inline loop
//    with no synchronisation cost.
//  * Nested calls run inline (no re-entrant scheduling); kernels can call
//    ParallelFor without worrying about being inside another region.
//  * The global pool is created on first use with
//    ThreadPool::DefaultThreadCount() threads: $KVEC_NUM_THREADS if set,
//    else std::thread::hardware_concurrency(). Its size is fixed for the
//    life of the process.
//
// The chunk queue and shutdown flag are KVEC_GUARDED_BY the pool mutex
// (util/mutex.h), so the scheduler's lock discipline is enforced by clang
// -Wthread-safety, not just by review.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kvec {

class ThreadPool {
 public:
  // `num_threads` counts the caller too: a pool of n spawns n-1 workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(chunk_begin, chunk_end) over disjoint chunks of [begin, end),
  // each at least `grain` long (except possibly the last). Blocks until all
  // chunks completed. Runs inline when the range is a single chunk, the
  // pool has one thread, or the caller is already inside a ParallelFor.
  void ParallelFor(int begin, int end, int grain,
                   const std::function<void(int, int)>& fn);

  // The process-wide pool used by the tensor kernels, created on first
  // use and never destroyed (kernels may run during static teardown).
  static ThreadPool& Global();
  // $KVEC_NUM_THREADS if set and valid, else hardware_concurrency().
  static int DefaultThreadCount();

 private:
  struct Region;
  struct Chunk {
    std::shared_ptr<Region> region;
    int begin = 0;
    int end = 0;
  };

  void WorkerLoop();
  static void RunChunk(const Chunk& chunk);

  int num_threads_;
  std::vector<std::thread> workers_;

  mutable Mutex mutex_;
  CondVar wake_;  // signalled when chunks arrive or shutdown begins
  std::deque<Chunk> queue_ KVEC_GUARDED_BY(mutex_);
  bool shutdown_ KVEC_GUARDED_BY(mutex_) = false;
};

// Convenience wrapper over the global pool.
inline void ParallelFor(int begin, int end, int grain,
                        const std::function<void(int, int)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

// The dispatch pattern every parallel kernel shares: run fn(0, n) inline
// when the job is below `work_threshold` units of work (or the pool is
// single-threaded), otherwise split [0, n) with the given grain. Templated
// so the inline fast path — tiny serving-path tensors — never constructs a
// std::function or touches the pool.
template <typename Fn>
void ParallelForThreshold(long long work, long long work_threshold, int n,
                          int grain, Fn&& fn) {
  if (work < work_threshold || n <= grain) {
    fn(0, n);
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() == 1) {
    fn(0, n);
    return;
  }
  pool.ParallelFor(0, n, grain, fn);
}

}  // namespace kvec
