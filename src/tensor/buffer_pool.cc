#include "tensor/buffer_pool.h"

#include <cstdlib>
#include <limits>
#include <utility>

namespace kvec {

BufferPool::BufferPool() {
  // An environment variable, not a flag: sanitizer runs must bypass
  // recycling from the first tensor, before any flag parser runs.
  // kvec-lint: allow-next(env-knob) read before any flag parser runs
  if (const char* env = std::getenv("KVEC_NO_BUFFER_POOL")) {
    if (env[0] != '\0' && env[0] != '0') enabled_ = false;
  }
}

BufferPool& BufferPool::Global() {
  static auto* pool = new BufferPool();  // leaked: see header
  return *pool;
}

std::vector<float> BufferPool::Take(size_t n) {
  std::vector<float> buffer;
  MutexLock lock(mutex_);
  if (enabled_ && n > 0) {
    // Smallest cached buffer whose capacity fits; an exact-size match is
    // the common case because op shapes repeat every step. Everything at
    // and beyond lower_bound only grows, so if the smallest sufficient
    // buffer exceeds the slack cap, all candidates do.
    auto it = free_lists_.lower_bound(n);
    if (it != free_lists_.end() &&
        it->first <= n * kMaxCapacitySlackFactor) {
      buffer = std::move(it->second.back());
      it->second.pop_back();
      cached_floats_ -= it->first;
      if (it->second.empty()) free_lists_.erase(it);
      ++stats_.hits;
    } else {
      if (it != free_lists_.end()) ++stats_.oversized_rejects;
      ++stats_.misses;
    }
  } else if (n > 0) {
    ++stats_.misses;
  }
  return buffer;
}

std::vector<float> BufferPool::Acquire(size_t n, float fill) {
  std::vector<float> buffer = Take(n);
  buffer.assign(n, fill);
  return buffer;
}

std::vector<float> BufferPool::AcquireUninitialized(size_t n) {
  std::vector<float> buffer = Take(n);
  if (buffer.size() >= n) {
    buffer.resize(n);  // shrink: no element writes, contents stay stale
  } else {
#ifdef NDEBUG
    buffer.assign(n, 0.0f);  // fresh or undersized storage: pay the fill
#else
    // Debug builds poison fresh "uninitialized" buffers so an op that fails
    // to overwrite its whole output surfaces as NaNs instead of silently
    // reading zeros (pool hits already hand back stale contents).
    buffer.assign(n, std::numeric_limits<float>::quiet_NaN());
#endif
  }
  return buffer;
}

void BufferPool::Release(std::vector<float>&& buffer) {
  const size_t capacity = buffer.capacity();
  if (capacity == 0) return;
  MutexLock lock(mutex_);
  if (!enabled_ || capacity > max_cached_floats_) {
    ++stats_.dropped;
    return;  // `buffer` frees on scope exit
  }
  // When the budget is full, prefer the incoming buffer over strictly
  // larger cached ones. Without this, oversized blocks that the slack cap
  // keeps rejecting at Take() would occupy the budget forever, wedging the
  // pool into an all-miss/all-drop state once the workload's shapes shrink.
  while (!free_lists_.empty() &&
         cached_floats_ + capacity > max_cached_floats_) {
    auto largest = std::prev(free_lists_.end());
    if (largest->first <= capacity) break;
    largest->second.pop_back();  // frees one largest cached buffer
    cached_floats_ -= largest->first;
    if (largest->second.empty()) free_lists_.erase(largest);
    ++stats_.evicted;
  }
  if (cached_floats_ + capacity > max_cached_floats_) {
    ++stats_.dropped;
    return;
  }
  free_lists_[capacity].push_back(std::move(buffer));
  cached_floats_ += capacity;
  ++stats_.returned;
}

void BufferPool::SetEnabled(bool enabled) {
  MutexLock lock(mutex_);
  enabled_ = enabled;
}

void BufferPool::SetMaxCachedFloats(size_t max_cached_floats) {
  MutexLock lock(mutex_);
  max_cached_floats_ = max_cached_floats;
}

bool BufferPool::enabled() const {
  MutexLock lock(mutex_);
  return enabled_;
}

void BufferPool::Clear() {
  MutexLock lock(mutex_);
  free_lists_.clear();
  cached_floats_ = 0;
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mutex_);
  Stats out = stats_;
  out.cached_floats = cached_floats_;
  out.cached_buffers = 0;
  for (const auto& [capacity, buffers] : free_lists_) {
    out.cached_buffers += buffers.size();
  }
  return out;
}

}  // namespace kvec
