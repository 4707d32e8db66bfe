// An open-addressing hash table keyed by int, for hot per-key state that is
// looked up once or twice per stream item.
//
// Layout: one array of {key, value} slots with a power-of-two capacity, a
// multiplicative (Fibonacci) hash and linear probing, so a lookup usually
// reads one cache line where a node-based std::unordered_map reads a bucket
// and then a node. The table grows by doubling once it is more than 7/8
// full. Every int is a valid key: the slot array marks free slots with
// INT_MIN, and the entry whose key really is INT_MIN lives in one extra slot
// past the probed range, so no key value is reserved.
//
// Values must be trivially copyable (per-key counters and small records):
// growth and copies move slots bytewise, and no destructor ever runs.
// There is no single-key erase; a caller that drops keys builds a new table
// with the survivors (see StreamServer::CommitDeltaBaseline). Pointers to
// values stay valid until the next insertion that grows the table.
//
// Memory: the slot array comes from the memory_resource passed at
// construction and is released back to it. Move assignment adopts the
// source's resource along with its slots.
//
// Threading: NOT thread-safe; it belongs to one owner like the containers it
// replaces.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <type_traits>
#include <utility>

namespace kvec {

template <typename V>
class FlatIntMap {
 public:
  struct Slot {
    int key;
    V value;
  };

  explicit FlatIntMap(
      std::pmr::memory_resource* memory = std::pmr::get_default_resource())
      : memory_(memory) {}
  FlatIntMap(const FlatIntMap&) = delete;
  FlatIntMap& operator=(const FlatIntMap&) = delete;
  FlatIntMap(FlatIntMap&& other) noexcept { Steal(&other); }
  FlatIntMap& operator=(FlatIntMap&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(&other);
    }
    return *this;
  }
  ~FlatIntMap() { Release(); }

  size_t size() const { return size_; }
  // Probed slots (a power of two, or 0 before the first insertion).
  size_t capacity() const { return capacity_; }

  // The value of `key`, or null when the table does not hold it.
  V* Find(int key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }
  const V* Find(int key) const {
    if (key == kFree) return has_min_key_ ? &slots_[capacity_].value : nullptr;
    if (capacity_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kFree) return nullptr;
    }
  }

  // Inserts a value-initialised entry for `key` unless one exists. Returns
  // the entry's value and whether it was inserted.
  std::pair<V*, bool> TryEmplace(int key) {
    if (key == kFree) {
      if (capacity_ == 0) Rehash(kMinCapacity);
      Slot& slot = slots_[capacity_];
      if (has_min_key_) return {&slot.value, false};
      has_min_key_ = true;
      ++size_;
      slot.value = V{};
      return {&slot.value, true};
    }
    if (capacity_ != 0) {
      size_t i = Home(key);
      for (; slots_[i].key != kFree; i = (i + 1) & mask_) {
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
      if (!OverLoad(size_ + 1, capacity_)) return {Place(i, key), true};
    }
    Rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    size_t i = Home(key);
    while (slots_[i].key != kFree) i = (i + 1) & mask_;
    return {Place(i, key), true};
  }
  V& operator[](int key) { return *TryEmplace(key).first; }

  // Grows the table so that `count` entries fit without a rehash.
  void Reserve(size_t count) {
    size_t capacity = capacity_ == 0 ? kMinCapacity : capacity_;
    while (OverLoad(count, capacity)) capacity *= 2;
    if (count > 0 && capacity != capacity_) Rehash(capacity);
  }

  // Read-only iteration visits every entry once, in no particular order.
  class Iterator {
   public:
    Iterator(const FlatIntMap* table, size_t index)
        : table_(table), index_(index) {}
    const Slot& operator*() const { return table_->slots_[index_]; }
    Iterator& operator++() {
      index_ = table_->Occupied(index_ + 1);
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return index_ != other.index_;
    }

   private:
    const FlatIntMap* table_;
    size_t index_;
  };
  Iterator begin() const { return {this, Occupied(0)}; }
  Iterator end() const { return {this, capacity_ + 1}; }

 private:
  static constexpr int kFree = INT_MIN;
  // 257 slots of at least 16 bytes are above 4 KB, the largest block a
  // ShardPool pools with its default options: the first array is already
  // one upstream block, so growing does not leave a cached chunk in each
  // small size class (OnlineClassifier::AddSlot starts its slab the same
  // way).
  static constexpr size_t kMinCapacity = 256;

  // More than 7/8 full. Linear probing's expected probe length for a hit
  // is still 4.5 slots there (2 to 3 cache lines of 28-byte slots), and
  // the high limit keeps the table near a node map's bytes per key right
  // after it doubles.
  static bool OverLoad(size_t count, size_t capacity) {
    return count * 8 > capacity * 7;
  }
  size_t Home(int key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(key)) *
         UINT64_C(0x9E3779B97F4A7C15)) >>
        shift_);
  }
  V* Place(size_t i, int key) {
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return &slots_[i].value;
  }
  // The first entry at or after `index`, or capacity_ + 1 (the end).
  size_t Occupied(size_t index) const {
    while (index < capacity_ && slots_[index].key == kFree) ++index;
    if (index == capacity_ && !has_min_key_) ++index;
    return index;
  }

  // Moves every entry into a fresh array of `capacity` probed slots (plus
  // the INT_MIN slot).
  void Rehash(size_t capacity) {
    // Checked here, not at class scope, so V may be a nested type with
    // default member initialisers.
    static_assert(std::is_trivially_copyable_v<V> &&
                      std::is_default_constructible_v<V>,
                  "FlatIntMap copies slots bytewise and never destroys them");
    Slot* old = slots_;
    const size_t old_capacity = capacity_;
    slots_ = static_cast<Slot*>(
        memory_->allocate((capacity + 1) * sizeof(Slot), alignof(Slot)));
    std::uninitialized_fill_n(slots_, capacity + 1, Slot{kFree, V{}});
    capacity_ = capacity;
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    if (old == nullptr) return;
    for (size_t j = 0; j < old_capacity; ++j) {
      if (old[j].key == kFree) continue;
      size_t i = Home(old[j].key);
      while (slots_[i].key != kFree) i = (i + 1) & mask_;
      slots_[i] = old[j];
    }
    slots_[capacity_] = old[old_capacity];
    memory_->deallocate(old, (old_capacity + 1) * sizeof(Slot), alignof(Slot));
  }

  void Release() {
    if (slots_ != nullptr) {
      memory_->deallocate(slots_, (capacity_ + 1) * sizeof(Slot),
                          alignof(Slot));
    }
    slots_ = nullptr;
    capacity_ = size_ = 0;
    has_min_key_ = false;
  }
  void Steal(FlatIntMap* other) {
    memory_ = other->memory_;
    slots_ = std::exchange(other->slots_, nullptr);
    capacity_ = std::exchange(other->capacity_, 0);
    size_ = std::exchange(other->size_, 0);
    mask_ = other->mask_;
    shift_ = other->shift_;
    has_min_key_ = std::exchange(other->has_min_key_, false);
  }

  std::pmr::memory_resource* memory_;
  Slot* slots_ = nullptr;  // capacity_ probed slots, then the INT_MIN slot
  size_t capacity_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;  // Home() keeps the top log2(capacity_) bits
  bool has_min_key_ = false;
};

}  // namespace kvec
