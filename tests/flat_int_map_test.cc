// Tests for FlatIntMap (src/util/flat_int_map.h), the open-addressing
// per-key table of the serving engine: every int is a valid key, lookups
// agree with std::unordered_map through many rehashes, iteration visits
// each entry once, and the slot array lives in the table's resource.
#include "util/flat_int_map.h"

#include <climits>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "util/arena.h"
#include "util/rng.h"

namespace kvec {
namespace {

struct Record {
  int a = -1;
  int64_t b = 7;
};

TEST(FlatIntMapTest, EveryIntIsAKey) {
  FlatIntMap<int64_t> table;
  const std::vector<int> keys = {INT_MIN, INT_MAX, -1, 0, INT_MIN + 1};
  for (int key : keys) EXPECT_EQ(table.Find(key), nullptr) << key;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto [value, inserted] = table.TryEmplace(keys[i]);
    EXPECT_TRUE(inserted) << keys[i];
    EXPECT_EQ(*value, 0) << keys[i];  // value-initialised
    *value = static_cast<int64_t>(i) + 100;
  }
  EXPECT_EQ(table.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t* value = table.Find(keys[i]);
    ASSERT_NE(value, nullptr) << keys[i];
    EXPECT_EQ(*value, static_cast<int64_t>(i) + 100) << keys[i];
    const auto [again, inserted] = table.TryEmplace(keys[i]);
    EXPECT_FALSE(inserted) << keys[i];
    EXPECT_EQ(again, value) << keys[i];
  }
  EXPECT_EQ(table.size(), keys.size());
  for (int absent : {2, INT_MAX - 1}) EXPECT_EQ(table.Find(absent), nullptr);
}

TEST(FlatIntMapTest, ValuesStartValueInitialised) {
  FlatIntMap<Record> table;
  for (int key : {INT_MIN, 0, 5}) {
    const Record& record = table[key];
    EXPECT_EQ(record.a, -1) << key;
    EXPECT_EQ(record.b, 7) << key;
  }
}

TEST(FlatIntMapTest, MatchesUnorderedMapThroughRehashes) {
  FlatIntMap<int64_t> table;
  std::unordered_map<int, int64_t> reference;
  Rng rng(11);
  size_t rehashes = 0;
  size_t capacity = table.capacity();
  for (int step = 0; step < 40000; ++step) {
    // Half the keys from a small range (repeats, probe collisions), half
    // from the whole int range, the two extremes included.
    int key = 0;
    switch (rng.NextInt(4)) {
      case 0:
        key = rng.NextInt(4000) - 2000;
        break;
      case 1:
        key = rng.NextBernoulli(0.5) ? INT_MIN : INT_MAX;
        break;
      default:
        key = static_cast<int>(static_cast<uint32_t>(rng.NextUint64()));
        break;
    }
    if (rng.NextInt(3) == 0) {
      const int64_t* found = table.Find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end()) << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << key;
      }
    } else {
      table[key] += step;
      reference[key] += step;
    }
    if (table.capacity() != capacity) {
      capacity = table.capacity();
      ++rehashes;
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  EXPECT_GE(rehashes, 6u);
  for (const auto& [key, value] : reference) {
    const int64_t* found = table.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value) << key;
  }
}

TEST(FlatIntMapTest, IterationVisitsEachKeyOnce) {
  for (bool with_min_key : {false, true}) {
    FlatIntMap<int64_t> table;
    std::map<int, int64_t> expected;
    for (int i = 0; i < 1000; ++i) {
      const int key = i * 7919 - 500000;
      table[key] = i;
      expected[key] = i;
    }
    if (with_min_key) {
      table[INT_MIN] = -5;
      expected[INT_MIN] = -5;
    }
    std::map<int, int64_t> seen;
    for (const auto& [key, value] : table) {
      EXPECT_TRUE(seen.emplace(key, value).second) << "visited twice: " << key;
    }
    EXPECT_EQ(seen, expected) << "with_min_key " << with_min_key;
  }
  const FlatIntMap<int64_t> empty;
  EXPECT_FALSE(empty.begin() != empty.end());
}

TEST(FlatIntMapTest, ReserveAvoidsRehash) {
  FlatIntMap<int64_t> table;
  table.Reserve(10000);
  const size_t capacity = table.capacity();
  EXPECT_GE(capacity * 7, 10000u * 8);
  for (int key = 0; key < 10000; ++key) table[key] = key;
  EXPECT_EQ(table.capacity(), capacity);
}

// The slot array comes from the table's resource, and every block goes
// back to it: when the table grows, and when it dies.
TEST(FlatIntMapTest, SlotsComeFromAndReturnToItsResource) {
  CountingResource counter(std::pmr::get_default_resource());
  {
    FlatIntMap<Record> table(&counter);
    for (int key = -3000; key < 3000; ++key) table[key] = {key, key * 3};
    table[INT_MIN] = {1, 2};
    EXPECT_GT(counter.allocation_count(), 1u);  // grew through rehashes
    EXPECT_EQ(counter.blocks_live(), 1u);
    EXPECT_GE(counter.bytes_live(),
              table.capacity() * sizeof(FlatIntMap<Record>::Slot));
  }
  EXPECT_EQ(counter.bytes_live(), 0u);
}

}  // namespace
}  // namespace kvec
