// Key order for the serving state's canonical walks: checkpoint snapshots
// write their per-key records in ascending key order, and window rotations
// and flushes close the open keys in that order.
//
// SortByIntKey is an LSD radix sort on an int key. The key's sign bit is
// flipped, so negative keys come first and, for unique keys, the order is
// the one std::sort gives. One pass counts all four key bytes; each byte
// that not every key shares then costs one scatter pass into a scratch
// array of the same size, freed on return. Below kRadixSortMinEntries the
// sort is std::sort, whose cost follows the input size rather than the 256
// buckets of each pass: on random keys std::sort is faster up to a few
// hundred entries, and window rotations on a trained model close 0-13
// keys (docs/PERFORMANCE.md, "Checkpoint snapshot").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kvec {

// Inputs smaller than this take std::sort.
inline constexpr size_t kRadixSortMinEntries = 256;

// Sorts `entries` ascending by `key_of(entry)`, an int. The keys are
// meant to be unique, as every caller's are; the order of entries with
// equal keys is unspecified. T must be default-constructible and
// copy-assignable.
template <typename T, typename KeyOf>
void SortByIntKey(std::vector<T>* entries, KeyOf key_of) {
  const size_t size = entries->size();
  if (size < kRadixSortMinEntries) {
    std::sort(entries->begin(), entries->end(),
              [&key_of](const T& a, const T& b) {
                return key_of(a) < key_of(b);
              });
    return;
  }
  // The unsigned image of the key whose order is the signed key's.
  const auto radix = [&key_of](const T& entry) {
    return static_cast<uint32_t>(key_of(entry)) ^ 0x80000000u;
  };
  constexpr int kBytes = 4;
  constexpr size_t kBuckets = 256;
  size_t counts[kBytes][kBuckets] = {};
  for (const T& entry : *entries) {
    const uint32_t value = radix(entry);
    for (int byte = 0; byte < kBytes; ++byte) {
      ++counts[byte][(value >> (8 * byte)) & 0xff];
    }
  }
  std::vector<T> scratch(size);
  T* from = entries->data();
  T* to = scratch.data();
  for (int byte = 0; byte < kBytes; ++byte) {
    const int shift = 8 * byte;
    size_t* offsets = counts[byte];
    // A byte every key shares leaves the order as it is.
    if (offsets[(radix(from[0]) >> shift) & 0xff] == size) continue;
    size_t offset = 0;
    for (size_t bucket = 0; bucket < kBuckets; ++bucket) {
      const size_t count = offsets[bucket];
      offsets[bucket] = offset;
      offset += count;
    }
    for (size_t i = 0; i < size; ++i) {
      to[offsets[(radix(from[i]) >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != entries->data()) entries->swap(scratch);
}

// Sorts int keys ascending.
inline void SortIntKeys(std::vector<int>* keys) {
  SortByIntKey(keys, [](int key) { return key; });
}

}  // namespace kvec
