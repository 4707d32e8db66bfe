// The key-order helpers behind every checkpoint snapshot and every rotation
// (src/util/key_order.h): SortByIntKey must order exactly as std::sort does
// for unique keys, on both sides of the radix cut-over, over the whole int
// range.
#include "util/key_order.h"

#include <algorithm>
#include <climits>
#include <random>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace kvec {
namespace {

// Sizes on both sides of kRadixSortMinEntries, and well past it.
std::vector<size_t> Sizes() {
  return {0,
          1,
          2,
          17,
          kRadixSortMinEntries - 1,
          kRadixSortMinEntries,
          kRadixSortMinEntries + 1,
          1000,
          20000};
}

// `size` keys drawn from the whole int range, INT_MIN, INT_MAX, -1 and 0
// among them once there is room.
std::vector<int> RandomKeys(size_t size, std::mt19937* rng) {
  std::uniform_int_distribution<int> any(INT_MIN, INT_MAX);
  std::vector<int> keys(size);
  for (int& key : keys) key = any(*rng);
  const int fixed[] = {INT_MIN, INT_MAX, -1, 0};
  for (size_t i = 0; i < size && i < 4; ++i) keys[i * size / 4] = fixed[i];
  return keys;
}

TEST(KeyOrderTest, SortIntKeysMatchesStdSort) {
  std::mt19937 rng(1);
  for (size_t size : Sizes()) {
    SCOPED_TRACE(size);
    std::vector<int> keys = RandomKeys(size, &rng);
    std::vector<int> expected = keys;
    std::sort(expected.begin(), expected.end());
    SortIntKeys(&keys);
    EXPECT_EQ(keys, expected);
  }
}

TEST(KeyOrderTest, UniqueKeyedRecordsMatchStdSort) {
  // The snapshot writers' shape: (key, record address) pairs with unique
  // keys, where std::sort's pair order is the key order.
  std::mt19937 rng(2);
  for (size_t size : Sizes()) {
    SCOPED_TRACE(size);
    std::vector<int> keys = RandomKeys(size, &rng);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::shuffle(keys.begin(), keys.end(), rng);
    std::vector<std::pair<int, const int*>> entries;
    for (const int& key : keys) entries.emplace_back(key, &key);
    std::vector<std::pair<int, const int*>> expected = entries;
    std::sort(expected.begin(), expected.end());
    SortByIntKey(&entries, [](const std::pair<int, const int*>& entry) {
      return entry.first;
    });
    EXPECT_EQ(entries, expected);
  }
}

TEST(KeyOrderTest, KeysSharingBytesSortLikeStdSort) {
  // Keys that differ in one byte only (the other passes are skipped), in
  // the sign bit only, or not at all.
  for (int shift : {0, 8, 16, 24}) {
    SCOPED_TRACE(shift);
    std::vector<int> keys;
    for (int i = 0; i < 600; ++i) {
      keys.push_back(static_cast<int>(static_cast<uint32_t>(i % 256)
                                      << shift));
    }
    std::vector<int> expected = keys;
    std::sort(expected.begin(), expected.end());
    SortIntKeys(&keys);
    EXPECT_EQ(keys, expected);
  }
  std::vector<int> signs;
  for (int i = 0; i < 600; ++i) signs.push_back(i % 2 == 0 ? INT_MIN : 0);
  std::vector<int> expected = signs;
  std::sort(expected.begin(), expected.end());
  SortIntKeys(&signs);
  EXPECT_EQ(signs, expected);
  std::vector<int> same(600, -5);
  SortIntKeys(&same);
  EXPECT_EQ(same, std::vector<int>(600, -5));
}

}  // namespace
}  // namespace kvec
