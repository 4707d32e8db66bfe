// Per-shard memory ownership for the serving stack (ROADMAP: bounded
// memory at millions of open keys).
//
// Three pieces, layered:
//
//  * CountingResource  — a pass-through std::pmr::memory_resource that
//    counts live bytes/blocks and high-water marks. One of them sits
//    under the pool below, so a shard can see what the pool holds from
//    the OS (resident).
//  * ShardPool         — a std::pmr::unsynchronized_pool_resource over a
//    CountingResource. All long-lived per-key state of one StreamServer
//    shard allocates from here: the CorrelationTracker's key table,
//    record chunks, session vectors and inverted index, and the arrays
//    indexed by the tracker's key ids (OnlineClassifier's key states and
//    fusion-state slab, StreamServer's serving-index slots). Session
//    churn recycles same-sized blocks inside the pool instead of
//    hammering malloc, and a window rotation can drop the whole pool in
//    O(chunks).
//  * ScratchArena      — a monotonic bump allocator for batch-path
//    scratch (the encoder's per-microbatch panels). Reset() after every
//    drained microbatch returns the cursor to zero without freeing; the
//    arena plateaus at the largest batch ever encoded.
//
// Threading: none of these are thread-safe, deliberately. Each instance
// is owned by exactly one StreamServer shard, and all access runs on the
// shard's owner (the worker thread in worker mode, the caller under the
// shard mutex otherwise) — the same single-writer discipline that
// protects the shard itself (docs/SERVING.md "Memory management"). The
// lock-annotation story is therefore inherited from the owning seam:
// ShardedStreamServer's `server GUARDED_BY(mutex)` covers everything the
// server owns, including its pool. std::pmr::unsynchronized_pool_resource
// is the point: no internal locks to pay for on the hot path.
//
// kvec_lint.py's `pool-discipline` rule keeps raw std::pmr resource
// primitives (and malloc/free) out of the rest of the tree: per-key state
// goes through ShardPool/ScratchArena or it does not allocate.
#pragma once

#include <cstddef>
#include <memory_resource>  // kvec-lint: allow(pool-discipline) this IS the pool wrapper layer
#include <vector>

namespace kvec {

// Pass-through resource that meters its upstream. Single-owner; see the
// threading note above.
class CountingResource : public std::pmr::memory_resource {
 public:
  explicit CountingResource(std::pmr::memory_resource* upstream)
      : upstream_(upstream) {}

  size_t bytes_live() const { return bytes_live_; }
  size_t blocks_live() const { return blocks_live_; }
  size_t bytes_high_water() const { return bytes_high_water_; }
  size_t allocation_count() const { return allocation_count_; }

 protected:
  void* do_allocate(size_t bytes, size_t alignment) override {
    void* p = upstream_->allocate(bytes, alignment);
    bytes_live_ += bytes;
    ++blocks_live_;
    ++allocation_count_;
    if (bytes_live_ > bytes_high_water_) bytes_high_water_ = bytes_live_;
    return p;
  }

  void do_deallocate(void* p, size_t bytes, size_t alignment) override {
    bytes_live_ -= bytes;
    --blocks_live_;
    upstream_->deallocate(p, bytes, alignment);
  }

  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

 private:
  std::pmr::memory_resource* upstream_;
  size_t bytes_live_ = 0;
  size_t blocks_live_ = 0;
  size_t bytes_high_water_ = 0;
  size_t allocation_count_ = 0;
};

// One shard's pool for long-lived per-key state. Containers allocate via
// resource(); the pool batches their requests into large upstream chunks
// and never returns a chunk until the ShardPool is destroyed — which is
// exactly what a window rotation exploits: once every key is closed, it
// starts the next window on a fresh ShardPool and drops the old one, so
// the chunks go back to the OS in one sweep.
class ShardPool {
 public:
  ShardPool();
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  // The resource pmr containers should be constructed with.
  std::pmr::memory_resource* resource() { return &pool_; }

  // Bytes/chunks the pool holds from the global allocator. Monotone
  // within one pool's lifetime (the pool caches freed blocks).
  size_t bytes_resident() const { return upstream_counter_.bytes_live(); }
  size_t blocks_resident() const { return upstream_counter_.blocks_live(); }

 private:
  // Order matters: the upstream counter outlives the pool that drains
  // into it.
  CountingResource upstream_counter_;
  // kvec-lint: allow-next(pool-discipline) the one sanctioned pool primitive
  std::pmr::unsynchronized_pool_resource pool_;
};

// Monotonic bump allocator for microbatch scratch. Alloc() never frees;
// Reset() rewinds the cursor and (if the last cycle overflowed the main
// block) regrows the main block to the high-water mark so steady state is
// one block, zero allocations per batch.
class ScratchArena {
 public:
  ScratchArena() = default;

  // Aligned raw allocation, valid until the next Reset().
  void* Alloc(size_t bytes, size_t alignment = kAlignment);

  template <typename T>
  T* AllocArray(size_t count) {
    return static_cast<T*>(Alloc(count * sizeof(T), alignof(T)));
  }

  // Invalidates every pointer handed out since the last Reset().
  void Reset();

  // Largest total live at any point since construction (drives the
  // scratch_high_water stat).
  size_t high_water() const { return high_water_; }
  // Bytes currently reserved (main block + overflow blocks).
  size_t reserved_bytes() const;
  // Bytes handed out since the last Reset().
  size_t used_bytes() const { return used_; }

 private:
  static constexpr size_t kAlignment = 64;  // cache line; SIMD-friendly

  std::vector<char> main_;
  std::vector<std::vector<char>> overflow_;
  size_t cursor_ = 0;      // bump offset into main_
  size_t used_ = 0;        // total bytes (incl. overflow) since Reset()
  size_t high_water_ = 0;
};

}  // namespace kvec
