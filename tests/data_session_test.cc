#include "data/session.h"

#include "gtest/gtest.h"

namespace kvec {
namespace {

Item MakeItem(int key, std::vector<int> value, double time) {
  Item item;
  item.key = key;
  item.value = std::move(value);
  item.time = time;
  return item;
}

TEST(SessionTest, SingleKeyRuns) {
  TangledSequence episode;
  episode.labels[0] = 0;
  // Session field 0 values: 1,1,2,2,2,1 -> sessions 0,0,1,1,1,2.
  for (int v : {1, 1, 2, 2, 2, 1}) {
    episode.items.push_back(
        MakeItem(0, {v}, static_cast<double>(episode.items.size())));
  }
  std::vector<int> ids = ComputeSessionIds(episode, 0);
  EXPECT_EQ(ids, (std::vector<int>{0, 0, 1, 1, 1, 2}));
}

TEST(SessionTest, SessionsArePerKey) {
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.labels[1] = 0;
  // Interleaved keys; each key's runs are independent of the other's.
  episode.items = {
      MakeItem(0, {5}, 0.0), MakeItem(1, {5}, 1.0), MakeItem(0, {5}, 2.0),
      MakeItem(1, {6}, 3.0), MakeItem(0, {6}, 4.0), MakeItem(1, {6}, 5.0),
  };
  std::vector<int> ids = ComputeSessionIds(episode, 0);
  // key0: 5,5,6 -> 0,0,1 ; key1: 5,6,6 -> 0,1,1
  EXPECT_EQ(ids, (std::vector<int>{0, 0, 0, 1, 1, 1}));
}

TEST(SessionTest, InterleavingDoesNotBreakARun) {
  // A key's session continues across other keys' items (runs are defined
  // within the key sequence, not the tangled stream).
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.labels[1] = 0;
  episode.items = {
      MakeItem(0, {7}, 0.0), MakeItem(1, {9}, 1.0), MakeItem(0, {7}, 2.0),
  };
  std::vector<int> ids = ComputeSessionIds(episode, 0);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[2], 0);  // same session as item 0
}

TEST(SessionTest, AverageSessionLengthAllDistinct) {
  TangledSequence episode;
  episode.labels[0] = 0;
  for (int v : {1, 2, 3, 4}) {
    episode.items.push_back(
        MakeItem(0, {v}, static_cast<double>(episode.items.size())));
  }
  EXPECT_DOUBLE_EQ(AverageSessionLength(episode, 0), 1.0);
}

TEST(SessionTest, AverageSessionLengthSingleRun) {
  TangledSequence episode;
  episode.labels[0] = 0;
  for (int i = 0; i < 6; ++i) {
    episode.items.push_back(MakeItem(0, {3}, static_cast<double>(i)));
  }
  EXPECT_DOUBLE_EQ(AverageSessionLength(episode, 0), 6.0);
}

TEST(SessionTest, AverageSessionLengthEmpty) {
  TangledSequence episode;
  EXPECT_DOUBLE_EQ(AverageSessionLength(episode, 0), 0.0);
}

TEST(TangledSequenceTest, KeyHelpers) {
  TangledSequence episode;
  episode.labels[3] = 1;
  episode.labels[5] = 0;
  episode.items = {
      MakeItem(3, {0}, 0.0), MakeItem(5, {0}, 1.0), MakeItem(3, {0}, 2.0),
  };
  EXPECT_EQ(episode.KeyLength(3), 2);
  EXPECT_EQ(episode.KeyLength(5), 1);
  EXPECT_EQ(episode.num_keys(), 2);
}

TEST(TangledSequenceDeathTest, ValidateCatchesDisorder) {
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.items = {MakeItem(0, {1}, 5.0), MakeItem(0, {1}, 1.0)};
  EXPECT_DEATH(episode.Validate(1), "out of order");
}

TEST(TangledSequenceDeathTest, ValidateCatchesMissingLabel) {
  TangledSequence episode;
  episode.items = {MakeItem(0, {1}, 0.0)};
  EXPECT_DEATH(episode.Validate(1), "unlabeled key");
}

TEST(TangledSequenceDeathTest, ValidateCatchesArityMismatch) {
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.items = {MakeItem(0, {1}, 0.0)};
  EXPECT_DEATH(episode.Validate(2), "arity");
}

}  // namespace
}  // namespace kvec
