#include "util/arena.h"

#include <cstdint>

namespace kvec {

ShardPool::ShardPool()
    // kvec-lint: allow-next(pool-discipline) wiring the sanctioned primitives
    : upstream_counter_(std::pmr::new_delete_resource()),
      pool_(&upstream_counter_) {}

ShardPool::~ShardPool() = default;

void* ScratchArena::Alloc(size_t bytes, size_t alignment) {
  if (alignment < 1) alignment = 1;
  size_t aligned = (cursor_ + alignment - 1) & ~(alignment - 1);
  if (aligned + bytes <= main_.size()) {
    cursor_ = aligned + bytes;
    used_ = cursor_;
    if (used_ > high_water_) high_water_ = used_;
    return main_.data() + aligned;
  }
  // Overflow: serve from a dedicated block; Reset() folds the demand back
  // into the main block so this path only runs while the arena warms up
  // (or when a batch outgrows every previous one).
  overflow_.emplace_back(bytes + alignment);
  used_ += bytes + alignment;
  if (used_ > high_water_) high_water_ = used_;
  char* base = overflow_.back().data();
  auto addr = reinterpret_cast<uintptr_t>(base);
  uintptr_t shift = (alignment - addr % alignment) % alignment;
  return base + shift;
}

void ScratchArena::Reset() {
  if (!overflow_.empty() || high_water_ > main_.size()) {
    overflow_.clear();
    // Round up so repeated slightly-growing batches don't re-grow every
    // cycle; the arena plateaus at the largest microbatch seen.
    size_t want = high_water_ + high_water_ / 4 + kAlignment;
    if (want > main_.size()) main_.resize(want);
  }
  cursor_ = 0;
  used_ = 0;
}

size_t ScratchArena::reserved_bytes() const {
  size_t total = main_.size();
  for (const std::vector<char>& block : overflow_) total += block.size();
  return total;
}

}  // namespace kvec
