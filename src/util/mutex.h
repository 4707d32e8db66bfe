// Annotated mutex / condition-variable wrappers for Thread Safety Analysis.
//
// libstdc++ ships std::mutex without capability attributes, so Clang's
// -Wthread-safety cannot see through it. These wrappers are the thinnest
// possible annotated shims over the standard primitives — zero added
// state, every method a direct forward — so the lock discipline of the
// serving stack (util/bounded_queue.h, util/thread_pool.h,
// core/sharded_stream_server.h) is machine-checked
// while the generated code stays exactly what std::mutex produces.
//
//   Mutex mu;
//   int value KVEC_GUARDED_BY(mu);
//   {
//     MutexLock lock(mu);        // scoped acquire, analysis-visible
//     value = 7;                 // OK
//     while (value == 7) cv.Wait(mu);   // releases+reacquires mu
//   }
//   value = 8;                   // clang error: mu not held
//
// CondVar::Wait keeps std::condition_variable underneath (not the slower
// condition_variable_any) by adopting the wrapped std::mutex for the wait
// and releasing it back unlocked-tracking-free afterwards: the caller
// holds the capability before and after, which is exactly what the
// KVEC_REQUIRES contract states.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace kvec {

class CondVar;

// A std::mutex the analysis can see. Prefer MutexLock for scoped holds;
// Lock/Unlock exist for the rare hand-over-hand or conditional patterns.
class KVEC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KVEC_ACQUIRE() { mu_.lock(); }
  void Unlock() KVEC_RELEASE() { mu_.unlock(); }
  bool TryLock() KVEC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scoped hold of a Mutex.
class KVEC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KVEC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() KVEC_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to Mutex. Wait requires the capability: the
// caller holds `mu` on entry and on return (the wait releases it only
// while blocked, which the analysis need not model — no guarded state is
// touched in between). Use the bare Wait in a caller-side predicate loop:
//
//   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` and blocks; `mu` is reacquired before
  // returning. Spurious wakeups happen: always wait in a predicate loop.
  void Wait(Mutex& mu) KVEC_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait,
    // then release the unique_lock's ownership claim without unlocking —
    // the caller still holds the capability, as annotated.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace kvec
