#include "core/correlation.h"

#include <algorithm>
#include <climits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace kvec {
namespace {

Item MakeItem(int key, int session_value, int other = 0) {
  Item item;
  item.key = key;
  item.value = {other, session_value};
  return item;
}

CorrelationOptions Options(bool key_corr = true, bool value_corr = true,
                           int window = 64) {
  CorrelationOptions options;
  options.use_key_correlation = key_corr;
  options.use_value_correlation = value_corr;
  options.value_correlation_window = window;
  options.session_field = 1;
  return options;
}

TEST(CorrelationTrackerTest, KeyCorrelationSeesAllPriorSameKeyItems) {
  CorrelationTracker tracker(Options(true, false));
  EXPECT_TRUE(tracker.ObserveItem(MakeItem(0, 1)).empty());
  EXPECT_TRUE(tracker.ObserveItem(MakeItem(1, 1)).empty());
  std::vector<int> visible = tracker.ObserveItem(MakeItem(0, 2));
  EXPECT_EQ(visible, (std::vector<int>{0}));
  visible = tracker.ObserveItem(MakeItem(0, 3));
  EXPECT_EQ(visible, (std::vector<int>{0, 2}));
}

TEST(CorrelationTrackerTest, ValueCorrelationMatchesOpenSession) {
  // Paper Fig. 2 example: e_t value-correlates with another key's open
  // session when the session-field values agree.
  CorrelationTracker tracker(Options(false, true));
  tracker.ObserveItem(MakeItem(0, 7));  // index 0: key0 session {7}
  tracker.ObserveItem(MakeItem(0, 7));  // index 1: same session
  std::vector<int> visible = tracker.ObserveItem(MakeItem(1, 7));
  std::set<int> got(visible.begin(), visible.end());
  EXPECT_EQ(got, (std::set<int>{0, 1}));
}

TEST(CorrelationTrackerTest, ValueCorrelationIgnoresMismatchedValue) {
  CorrelationTracker tracker(Options(false, true));
  tracker.ObserveItem(MakeItem(0, 7));
  std::vector<int> visible = tracker.ObserveItem(MakeItem(1, 8));
  EXPECT_TRUE(visible.empty());
}

TEST(CorrelationTrackerTest, ClosedSessionIsNotJoinable) {
  CorrelationTracker tracker(Options(false, true));
  tracker.ObserveItem(MakeItem(0, 7));  // index 0
  tracker.ObserveItem(MakeItem(0, 9));  // index 1: key0's session is now {9}
  std::vector<int> visible = tracker.ObserveItem(MakeItem(1, 7));
  EXPECT_TRUE(visible.empty());  // the {7} session of key0 is closed
}

TEST(CorrelationTrackerTest, RecencyWindowEnforced) {
  CorrelationTracker tracker(Options(false, true, /*window=*/2));
  tracker.ObserveItem(MakeItem(0, 7));  // index 0
  tracker.ObserveItem(MakeItem(2, 5));  // index 1 (filler)
  tracker.ObserveItem(MakeItem(2, 5));  // index 2 (filler)
  // Key0's open session last item is index 0; gap is 3 > window 2.
  std::vector<int> visible = tracker.ObserveItem(MakeItem(1, 7));
  EXPECT_TRUE(visible.empty());
}

TEST(CorrelationTrackerTest, SameKeyNotReportedAsValueCorrelation) {
  CorrelationTracker tracker(Options(false, true));
  tracker.ObserveItem(MakeItem(0, 7));
  std::vector<int> visible = tracker.ObserveItem(MakeItem(0, 7));
  EXPECT_TRUE(visible.empty());  // own key handled by key correlation only
}

TEST(CorrelationTrackerTest, BothCorrelationsCombine) {
  CorrelationTracker tracker(Options(true, true));
  tracker.ObserveItem(MakeItem(0, 7));  // 0
  tracker.ObserveItem(MakeItem(1, 7));  // 1: value-correlated with 0
  std::vector<int> visible = tracker.ObserveItem(MakeItem(1, 7));  // 2
  std::set<int> got(visible.begin(), visible.end());
  // key corr -> {1}; value corr -> key0's open session {0}.
  EXPECT_EQ(got, (std::set<int>{0, 1}));
}

TEST(CorrelationTrackerTest, SelectiveCapKeepsMostRecentMatches) {
  CorrelationOptions options = Options(/*key_corr=*/false);
  options.max_value_correlations = 2;
  CorrelationTracker tracker(options);
  // Keys 0..3 each open a session with value 7 (stream positions 0..3);
  // the item of key 9 matches all four but may only see the last two.
  tracker.ObserveItem(MakeItem(0, 7));
  tracker.ObserveItem(MakeItem(1, 7));
  tracker.ObserveItem(MakeItem(2, 7));
  tracker.ObserveItem(MakeItem(3, 7));
  std::vector<int> visible = tracker.ObserveItem(MakeItem(9, 7));
  EXPECT_EQ(visible, (std::vector<int>{2, 3}));
}

TEST(CorrelationTrackerTest, SelectiveCapZeroMeansUnlimited) {
  CorrelationOptions options = Options(/*key_corr=*/false);
  options.max_value_correlations = 0;
  CorrelationTracker tracker(options);
  for (int key = 0; key < 5; ++key) tracker.ObserveItem(MakeItem(key, 7));
  std::vector<int> visible = tracker.ObserveItem(MakeItem(9, 7));
  EXPECT_EQ(visible.size(), 5u);
}

TEST(CorrelationTrackerTest, SelectiveCapDoesNotLimitKeyCorrelation) {
  CorrelationOptions options = Options();
  options.max_value_correlations = 1;
  CorrelationTracker tracker(options);
  // Five same-key items: all stay visible (key correlation is never capped).
  for (int i = 0; i < 5; ++i) tracker.ObserveItem(MakeItem(0, i));
  std::vector<int> visible = tracker.ObserveItem(MakeItem(0, 99));
  EXPECT_EQ(visible.size(), 5u);
}

TEST(CorrelationTrackerTest, SelectiveCapCountsItemsNotSessions) {
  CorrelationOptions options = Options(/*key_corr=*/false);
  options.max_value_correlations = 3;
  CorrelationTracker tracker(options);
  // One other key with a 5-item open session of value 7: the cap limits the
  // *items* of that session, keeping the most recent three.
  for (int i = 0; i < 5; ++i) tracker.ObserveItem(MakeItem(1, 7));
  std::vector<int> visible = tracker.ObserveItem(MakeItem(9, 7));
  EXPECT_EQ(visible, (std::vector<int>{2, 3, 4}));
}

// The definition of the visible set, computed the slow way: every open
// session of every other key is scanned, the matches are sorted, and the
// cap keeps the most recent ones. It also records which merge the tracker
// must take for the item (one matched run, or several over a narrow or a
// wide span) and how often a session value loses its last open session and
// later gains one again, so a test can check that its streams reach both
// merge paths and empty buckets.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(const CorrelationOptions& options)
      : options_(options) {}

  std::vector<int> Observe(const Item& item) {
    const int index = next_index_++;
    const int value = item.value[options_.session_field];
    std::vector<int> visible;
    if (options_.use_key_correlation) visible = key_items_[item.key];
    if (options_.use_value_correlation) {
      const int cap = options_.max_value_correlations;
      std::vector<int> cross;
      int runs = 0;
      int trimmed = 0;
      int lowest = index;
      for (const auto& [key, session] : sessions_) {
        if (key == item.key || session.value != value ||
            index - session.last_index > options_.value_correlation_window) {
          continue;
        }
        cross.insert(cross.end(), session.items.begin(), session.items.end());
        const int size = static_cast<int>(session.items.size());
        const int kept = cap > 0 ? std::min(cap, size) : size;
        ++runs;
        trimmed += kept;
        lowest = std::min(lowest, session.items[size - kept]);
      }
      std::sort(cross.begin(), cross.end());
      if (cap > 0 && static_cast<int>(cross.size()) > cap) {
        cross.erase(cross.begin(), cross.end() - cap);
      }
      visible.insert(visible.end(), cross.begin(), cross.end());
      if (runs > 1) {
        const bool wide = (index - lowest + 63) / 64 > 2 * trimmed;
        ++(wide ? wide_unions : narrow_unions);
      }
    }

    key_items_[item.key].push_back(index);
    Session& session = sessions_[item.key];
    if (session.items.empty() || session.value != value) {
      if (!session.items.empty() && --open_per_value_[session.value] == 0) {
        emptied_.insert(session.value);
      }
      if (open_per_value_[value]++ == 0 && emptied_.erase(value) > 0) {
        ++refilled_buckets;
      }
      session.value = value;
      session.items.clear();
    }
    session.items.push_back(index);
    session.last_index = index;
    return visible;
  }

  int num_keys() const { return static_cast<int>(key_items_.size()); }

  int narrow_unions = 0;
  int wide_unions = 0;
  int refilled_buckets = 0;

 private:
  struct Session {
    int value = -1;
    std::vector<int> items;
    int last_index = -1;
  };
  CorrelationOptions options_;
  int next_index_ = 0;
  std::map<int, std::vector<int>> key_items_;
  std::map<int, Session> sessions_;
  std::map<int, int> open_per_value_;
  std::set<int> emptied_;
};

// Stream shapes for the differential test. Dense: few keys switching
// values often, so matched items crowd the recent positions. Sparse: one
// item in 8 comes from 128 long-lived keys sharing two values, the rest
// from one-off keys whose values match nothing, so matched sessions reach
// far back with few items. Drifting: the value vocabulary moves on and
// comes back, so buckets empty and refill. Wide: keys over the whole int
// range (INT_MIN, INT_MAX, 0, -1 among 64 recurring keys), and three items
// in five from one-off keys that still share the four values, so one
// stream makes more than kWideMinKeys records: more than four chunks of
// the tracker's record store and several growths of its key table.
enum class Shape { kDense, kSparse, kDrifting, kWide };
constexpr int kWideMinKeys = 4 * 256;

int WideKey(Rng* rng) {
  return static_cast<int>(static_cast<uint32_t>(rng->NextUint64()));
}

std::vector<Item> MakeStream(Shape shape, int length, Rng* rng) {
  std::vector<int> current(128, 0);
  std::vector<int> wide_keys = {INT_MIN, INT_MAX, 0, -1, INT_MIN + 1,
                                INT_MAX - 1};
  while (wide_keys.size() < 64) wide_keys.push_back(WideKey(rng));
  std::vector<Item> stream;
  for (int t = 0; t < length; ++t) {
    if (shape == Shape::kSparse && rng->NextInt(8) != 0) {
      const int key = 128 + rng->NextInt(1000);
      stream.push_back(MakeItem(key, 100 + key, t));
      continue;
    }
    if (shape == Shape::kWide && rng->NextBernoulli(0.6)) {
      stream.push_back(MakeItem(WideKey(rng), rng->NextInt(4), t));
      continue;
    }
    const int slot = rng->NextInt(shape == Shape::kSparse ? 128
                                  : shape == Shape::kWide ? 64
                                                          : 12);
    if (rng->NextBernoulli(shape == Shape::kSparse ? 0.02 : 0.3)) {
      current[slot] = shape == Shape::kSparse     ? rng->NextInt(2)
                      : shape == Shape::kDrifting ? 2 * ((t / 300) % 3) +
                                                        rng->NextInt(2)
                                                  : rng->NextInt(4);
    }
    const int key = shape == Shape::kWide ? wide_keys[slot] : slot;
    stream.push_back(MakeItem(key, current[slot], t));
  }
  return stream;
}

// A tracker rebuilt from the uninterrupted one at a cut point, checked
// against it for the next kFollowItems items. The pool outlives the
// tracker that may allocate from it (members are destroyed in reverse
// order; followers are held by pointer so they are never move-assigned).
struct Follower {
  std::unique_ptr<ShardPool> pool;
  std::unique_ptr<CorrelationTracker> tracker;
  int remaining = 0;
  std::string how;
};
constexpr int kFollowItems = 48;

std::string SnapshotBytes(const CorrelationTracker& tracker) {
  BinaryWriter writer;
  tracker.Snapshot(&writer);
  return writer.buffer();
}

void RunDifferential(const CorrelationOptions& options, Shape shape,
                     uint64_t seed, ReferenceTracker* reference) {
  Rng rng(seed);
  const std::vector<Item> stream = MakeStream(shape, 2500, &rng);
  CorrelationTracker tracker(options);
  std::vector<std::unique_ptr<Follower>> followers;
  std::string base = SnapshotBytes(tracker);
  std::set<int> dirty;  // keys observed since `base`
  int cuts = 0;
  for (int t = 0; t < static_cast<int>(stream.size()); ++t) {
    if (rng.NextBernoulli(1.0 / 100)) {
      auto follower = std::make_unique<Follower>();
      follower->tracker = std::make_unique<CorrelationTracker>(options);
      follower->remaining = kFollowItems;
      BinaryReader full(SnapshotBytes(tracker));
      switch (cuts++ % 3) {
        case 0:
          follower->how = "Snapshot/Restore";
          ASSERT_TRUE(follower->tracker->Restore(&full));
          break;
        case 1: {
          follower->how = "SnapshotDelta/ApplyDelta";
          BinaryReader base_reader(base);
          ASSERT_TRUE(follower->tracker->Restore(&base_reader));
          BinaryWriter delta;
          tracker.SnapshotDelta(&delta, {dirty.begin(), dirty.end()});
          BinaryReader delta_reader(delta.buffer());
          ASSERT_TRUE(follower->tracker->ApplyDelta(&delta_reader,
                                                   tracker.num_observed()));
          break;
        }
        default:
          // Serving keeps a tracker's containers in a shard pool.
          follower->how = "Restore into a ShardPool";
          follower->pool = std::make_unique<ShardPool>();
          follower->tracker = std::make_unique<CorrelationTracker>(
              options, follower->pool->resource());
          ASSERT_TRUE(follower->tracker->Restore(&full));
          break;
      }
      followers.push_back(std::move(follower));
      base = SnapshotBytes(tracker);
      dirty.clear();
    }

    const std::vector<int> got = tracker.ObserveItem(stream[t]);
    ASSERT_EQ(got, reference->Observe(stream[t])) << "item " << t;
    dirty.insert(stream[t].key);
    for (const auto& follower : followers) {
      ASSERT_EQ(follower->tracker->ObserveItem(stream[t]), got)
          << "item " << t << " after " << follower->how;
      --follower->remaining;
    }
    followers.erase(std::remove_if(followers.begin(), followers.end(),
                                   [](const auto& follower) {
                                     return follower->remaining == 0;
                                   }),
                    followers.end());
  }
  EXPECT_GE(cuts, 3);
}

TEST(CorrelationTrackerTest, MatchesBruteForceReferenceAcrossCuts) {
  int narrow_unions = 0;
  int wide_unions = 0;
  int refilled_buckets = 0;
  uint64_t seed = 1;
  for (int cap : {0, 1, 4}) {
    for (int window : {1, 16, 64}) {
      for (auto [key_corr, value_corr] :
           {std::pair{true, true}, {true, false}, {false, true}}) {
        for (Shape shape : {Shape::kDense, Shape::kSparse, Shape::kDrifting,
                            Shape::kWide}) {
          CorrelationOptions options = Options(key_corr, value_corr, window);
          options.max_value_correlations = cap;
          ReferenceTracker reference(options);
          SCOPED_TRACE(::testing::Message()
                       << "cap " << cap << " window " << window << " key "
                       << key_corr << " value " << value_corr << " shape "
                       << static_cast<int>(shape));
          ASSERT_NO_FATAL_FAILURE(
              RunDifferential(options, shape, seed++, &reference));
          if (shape == Shape::kWide) {
            EXPECT_GT(reference.num_keys(), kWideMinKeys);
          }
          narrow_unions += reference.narrow_unions;
          wide_unions += reference.wide_unions;
          refilled_buckets += reference.refilled_buckets;
        }
      }
    }
  }
  // The streams must reach both merges (bitmap over a narrow span, sort
  // over a wide one) and values whose last open session rotated away.
  EXPECT_GT(narrow_unions, 10000);
  EXPECT_GT(wide_unions, 200);
  EXPECT_GT(refilled_buckets, 300);
}

// Observing without a visible set is the same state update: a tracker that
// skips the set for a random share of the items snapshots to the same
// bytes, and returns the same set for every item it does ask about, as one
// that builds every set.
TEST(CorrelationTrackerTest, ObservingWithoutVisibleSetKeepsStateIdentical) {
  uint64_t seed = 11;
  for (int cap : {0, 4}) {
    for (Shape shape :
         {Shape::kDense, Shape::kSparse, Shape::kDrifting, Shape::kWide}) {
      SCOPED_TRACE(::testing::Message() << "cap " << cap << " shape "
                                        << static_cast<int>(shape));
      CorrelationOptions options = Options(true, true, 16);
      options.max_value_correlations = cap;
      Rng rng(seed++);
      const std::vector<Item> stream = MakeStream(shape, 2000, &rng);
      CorrelationTracker full(options);
      CorrelationTracker skipping(options);
      std::vector<int> visible = {-1};  // reused: stale contents are replaced
      int skipped = 0;
      for (int t = 0; t < static_cast<int>(stream.size()); ++t) {
        const std::vector<int> expected = full.ObserveItem(stream[t]);
        if (rng.NextBernoulli(0.5)) {
          skipping.ObserveItem(stream[t], nullptr);
          ++skipped;
        } else {
          skipping.ObserveItem(stream[t], &visible);
          ASSERT_EQ(visible, expected) << "item " << t;
        }
        if (t % 250 == 0) {
          ASSERT_EQ(SnapshotBytes(skipping), SnapshotBytes(full))
              << "item " << t;
        }
      }
      EXPECT_GT(skipped, 0);
      EXPECT_EQ(SnapshotBytes(skipping), SnapshotBytes(full));
    }
  }
}

// Hand-written tracker checkpoints (the Snapshot/SnapshotDelta formats),
// for states no real stream produces.
struct SessionRecord {
  int key;
  int session_value;
  int last_index;
  std::vector<int> item_indices;
};

std::string TrackerCheckpoint(const CorrelationOptions& options,
                              int next_index,
                              const std::vector<SessionRecord>& sessions) {
  BinaryWriter writer;
  writer.WriteInt32(options.use_key_correlation ? 1 : 0);
  writer.WriteInt32(options.use_value_correlation ? 1 : 0);
  writer.WriteInt32(options.value_correlation_window);
  writer.WriteInt32(options.session_field);
  writer.WriteInt32(options.max_value_correlations);
  writer.WriteInt32(next_index);
  writer.WriteInt32(static_cast<int32_t>(sessions.size()));
  for (const SessionRecord& session : sessions) {
    writer.WriteInt32(session.key);
    writer.WriteIntVector(session.item_indices);
  }
  writer.WriteInt32(static_cast<int32_t>(sessions.size()));
  for (const SessionRecord& session : sessions) {
    writer.WriteInt32(session.key);
    writer.WriteInt32(session.session_value);
    writer.WriteInt32(session.last_index);
    writer.WriteIntVector(session.item_indices);
  }
  return writer.buffer();
}

std::string TrackerDelta(int next_index,
                         const std::vector<SessionRecord>& sessions) {
  BinaryWriter writer;
  writer.WriteInt32(next_index);
  writer.WriteInt32(static_cast<int32_t>(sessions.size()));
  for (const SessionRecord& session : sessions) {
    writer.WriteInt32(session.key);
    writer.WriteInt32(1);
    writer.WriteIntVector(session.item_indices);
    writer.WriteInt32(1);
    writer.WriteInt32(session.session_value);
    writer.WriteInt32(session.last_index);
    writer.WriteIntVector(session.item_indices);
  }
  return writer.buffer();
}

TEST(CorrelationTrackerTest, RestoreRejectsTwoSessionsAtOneStreamPosition) {
  const CorrelationOptions options = Options();
  CorrelationTracker tracker(options);
  tracker.ObserveItem(MakeItem(5, 1));
  const std::string before = SnapshotBytes(tracker);

  // Control: distinct stream positions restore.
  {
    CorrelationTracker control(options);
    BinaryReader reader(
        TrackerCheckpoint(options, 3, {{0, 7, 1, {0, 1}}, {1, 7, 2, {2}}}));
    ASSERT_TRUE(control.Restore(&reader));
    EXPECT_EQ(control.ObserveItem(MakeItem(2, 7)), (std::vector<int>{0, 1, 2}));
  }
  // Two sessions ending at position 1, with one value and with two.
  for (int other_value : {7, 8}) {
    BinaryReader reader(TrackerCheckpoint(
        options, 3, {{0, 7, 1, {0, 1}}, {1, other_value, 1, {1}}}));
    EXPECT_FALSE(tracker.Restore(&reader)) << "value " << other_value;
    EXPECT_EQ(SnapshotBytes(tracker), before) << "value " << other_value;
  }
}

TEST(CorrelationTrackerTest, RestoreRejectsUnorderedSessionItems) {
  const CorrelationOptions options = Options();
  for (const std::vector<int>& items :
       {std::vector<int>{1, 0}, std::vector<int>{1, 1}}) {
    CorrelationTracker tracker(options);
    BinaryReader reader(TrackerCheckpoint(options, 2, {{0, 7, 1, items}}));
    EXPECT_FALSE(tracker.Restore(&reader));
    EXPECT_EQ(tracker.num_observed(), 0);
  }
}

TEST(CorrelationTrackerTest, ApplyDeltaRejectsTwoSessionsAtOneStreamPosition) {
  const CorrelationOptions options = Options();
  CorrelationTracker source(options);
  source.ObserveItem(MakeItem(0, 7));  // 0
  source.ObserveItem(MakeItem(1, 7));  // 1
  source.ObserveItem(MakeItem(2, 8));  // 2
  const std::string base = SnapshotBytes(source);

  // Control: key 1 moves to a fresh position and value 8.
  {
    CorrelationTracker control(options);
    BinaryReader base_reader(base);
    ASSERT_TRUE(control.Restore(&base_reader));
    BinaryReader delta(TrackerDelta(4, {{1, 8, 3, {1, 3}}}));
    ASSERT_TRUE(control.ApplyDelta(&delta, 4));
    EXPECT_EQ(control.ObserveItem(MakeItem(3, 8)), (std::vector<int>{1, 2, 3}));
  }
  // Key 1's upserted session claims position 2, which key 2's (untouched)
  // session already holds.
  for (int value : {7, 8}) {
    CorrelationTracker target(options);
    BinaryReader base_reader(base);
    ASSERT_TRUE(target.Restore(&base_reader));
    BinaryReader delta(TrackerDelta(3, {{1, value, 2, {1, 2}}}));
    EXPECT_FALSE(target.ApplyDelta(&delta, 3)) << "value " << value;
  }
}

// A tracker checkpoint whose item lists and sessions name different keys.
// The tracker keeps one record per key, so these pin that a record with
// only one of the two restores, re-snapshots and accepts or rejects
// exactly as two separate per-key maps did.
struct ItemsRecord {
  int key;
  std::vector<int> items;
};

std::string SplitCheckpoint(const CorrelationOptions& options, int next_index,
                            const std::vector<ItemsRecord>& item_lists,
                            const std::vector<SessionRecord>& sessions) {
  BinaryWriter writer;
  writer.WriteInt32(options.use_key_correlation ? 1 : 0);
  writer.WriteInt32(options.use_value_correlation ? 1 : 0);
  writer.WriteInt32(options.value_correlation_window);
  writer.WriteInt32(options.session_field);
  writer.WriteInt32(options.max_value_correlations);
  writer.WriteInt32(next_index);
  writer.WriteInt32(static_cast<int32_t>(item_lists.size()));
  for (const ItemsRecord& record : item_lists) {
    writer.WriteInt32(record.key);
    writer.WriteIntVector(record.items);
  }
  writer.WriteInt32(static_cast<int32_t>(sessions.size()));
  for (const SessionRecord& session : sessions) {
    writer.WriteInt32(session.key);
    writer.WriteInt32(session.session_value);
    writer.WriteInt32(session.last_index);
    writer.WriteIntVector(session.item_indices);
  }
  return writer.buffer();
}

// One key of a tracker delta, each list behind its presence flag.
struct DeltaRecord {
  int key;
  std::optional<std::vector<int>> items;
  std::optional<SessionRecord> session;
};

std::string SplitDelta(int next_index, const std::vector<DeltaRecord>& keys) {
  BinaryWriter writer;
  writer.WriteInt32(next_index);
  writer.WriteInt32(static_cast<int32_t>(keys.size()));
  for (const DeltaRecord& record : keys) {
    writer.WriteInt32(record.key);
    writer.WriteInt32(record.items.has_value() ? 1 : 0);
    if (record.items.has_value()) writer.WriteIntVector(*record.items);
    writer.WriteInt32(record.session.has_value() ? 1 : 0);
    if (record.session.has_value()) {
      writer.WriteInt32(record.session->session_value);
      writer.WriteInt32(record.session->last_index);
      writer.WriteIntVector(record.session->item_indices);
    }
  }
  return writer.buffer();
}

TEST(CorrelationTrackerTest, RestoreKeepsUnpairedItemListsAndSessions) {
  const CorrelationOptions options = Options();
  // Key 0 has both, key 1 only an item list, key 2 only a session.
  const std::string bytes = SplitCheckpoint(
      options, 4, {{0, {0, 1}}, {1, {2}}}, {{0, 7, 1, {0, 1}}, {2, 7, 3, {3}}});
  CorrelationTracker tracker(options);
  BinaryReader reader(bytes);
  ASSERT_TRUE(tracker.Restore(&reader));
  EXPECT_EQ(SnapshotBytes(tracker), bytes);

  // A delta over all three keys carries each list only where it exists.
  BinaryWriter delta;
  tracker.SnapshotDelta(&delta, {0, 1, 2});
  EXPECT_EQ(delta.buffer(),
            SplitDelta(4, {{0, std::vector<int>{0, 1},
                            SessionRecord{0, 7, 1, {0, 1}}},
                           {1, std::vector<int>{2}, std::nullopt},
                           {2, std::nullopt, SessionRecord{2, 7, 3, {3}}}}));

  // Key 2 has no own items yet; key 1's session starts fresh.
  EXPECT_EQ(tracker.ObserveItem(MakeItem(2, 7)), (std::vector<int>{0, 1}));
  EXPECT_EQ(tracker.ObserveItem(MakeItem(1, 7)),
            (std::vector<int>{2, 0, 1, 3, 4}));
}

TEST(CorrelationTrackerTest, ApplyDeltaKeepsUnpairedItemListsAndSessions) {
  const CorrelationOptions options = Options();
  CorrelationTracker source(options);
  source.ObserveItem(MakeItem(0, 7));  // 0
  source.ObserveItem(MakeItem(1, 7));  // 1
  const std::string base = SnapshotBytes(source);

  // Key 1 gets a new item list and keeps its base session; new keys arrive
  // with only a session (3) or only an item list (5); key 4 carries
  // neither and leaves no record.
  const std::vector<DeltaRecord> upserts = {
      {1, std::vector<int>{1, 2}, std::nullopt},
      {3, std::nullopt, SessionRecord{3, 8, 3, {3}}},
      {4, std::nullopt, std::nullopt},
      {5, std::vector<int>{2}, std::nullopt}};
  CorrelationTracker target(options);
  BinaryReader base_reader(base);
  ASSERT_TRUE(target.Restore(&base_reader));
  BinaryReader delta(SplitDelta(4, upserts));
  ASSERT_TRUE(target.ApplyDelta(&delta, 4));

  BinaryWriter again;
  target.SnapshotDelta(&again, {3, 4, 5});
  EXPECT_EQ(again.buffer(), SplitDelta(4, {upserts[1], upserts[3]}));
  BinaryWriter merged;
  target.SnapshotDelta(&merged, {1});
  EXPECT_EQ(merged.buffer(),
            SplitDelta(4, {{1, std::vector<int>{1, 2},
                            SessionRecord{1, 7, 1, {1}}}}));
  EXPECT_EQ(SnapshotBytes(target),
            SplitCheckpoint(options, 4, {{0, {0}}, {1, {1, 2}}, {5, {2}}},
                            {{0, 7, 0, {0}}, {1, 7, 1, {1}}, {3, 8, 3, {3}}}));
}

TEST(CorrelationTrackerTest, RestoreRejectsAKeyListedTwice) {
  const CorrelationOptions options = Options();
  CorrelationTracker tracker(options);
  tracker.ObserveItem(MakeItem(5, 1));
  const std::string before = SnapshotBytes(tracker);

  // Control: one key once in each list.
  {
    CorrelationTracker control(options);
    BinaryReader reader(
        SplitCheckpoint(options, 2, {{1, {0, 1}}}, {{1, 7, 1, {0, 1}}}));
    EXPECT_TRUE(control.Restore(&reader));
  }
  const std::vector<std::string> corrupt = {
      SplitCheckpoint(options, 2, {{1, {0}}, {1, {1}}}, {{1, 7, 1, {0, 1}}}),
      SplitCheckpoint(options, 2, {{1, {0, 1}}},
                      {{1, 7, 0, {0}}, {1, 7, 1, {1}}})};
  for (size_t i = 0; i < corrupt.size(); ++i) {
    BinaryReader reader(corrupt[i]);
    EXPECT_FALSE(tracker.Restore(&reader)) << "case " << i;
    EXPECT_EQ(SnapshotBytes(tracker), before) << "case " << i;
  }

  // A delta naming one key twice is rejected too.
  BinaryReader base_reader(before);
  CorrelationTracker target(options);
  ASSERT_TRUE(target.Restore(&base_reader));
  BinaryReader delta(SplitDelta(
      2, {{3, std::vector<int>{1}, std::nullopt},
          {3, std::nullopt, SessionRecord{3, 7, 1, {1}}}}));
  EXPECT_FALSE(target.ApplyDelta(&delta, 2));
}

TEST(BuildEpisodeMaskTest, SelectiveMaskIsSubsetOfUnlimitedMask) {
  TangledSequence episode;
  Rng rng(5);
  for (int t = 0; t < 40; ++t) {
    Item item;
    item.key = rng.NextInt(4);
    item.value = {0, rng.NextInt(3)};
    episode.items.push_back(item);
  }
  for (int key = 0; key < 4; ++key) episode.labels[key] = 0;
  CorrelationOptions unlimited = Options();
  CorrelationOptions capped = Options();
  capped.max_value_correlations = 2;
  EpisodeMask full = BuildEpisodeMask(episode, unlimited);
  EpisodeMask selective = BuildEpisodeMask(episode, capped);
  const int total = static_cast<int>(episode.items.size());
  for (int i = 0; i < total; ++i) {
    for (int j = 0; j < total; ++j) {
      if (selective.mask.At(i, j) == 0.0f) {
        EXPECT_EQ(full.mask.At(i, j), 0.0f)
            << "capped mask visible at (" << i << "," << j
            << ") but unlimited mask is not";
      }
    }
  }
}

TEST(BuildEpisodeMaskTest, DiagonalAlwaysVisible) {
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.labels[1] = 0;
  for (int i = 0; i < 5; ++i) {
    episode.items.push_back(MakeItem(i % 2, i));
    episode.items.back().time = i;
  }
  EpisodeMask mask = BuildEpisodeMask(episode, Options());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(mask.mask.At(i, i), 0.0f);
}

TEST(BuildEpisodeMaskTest, CausalityNoFutureVisibility) {
  TangledSequence episode;
  episode.labels[0] = 0;
  for (int i = 0; i < 6; ++i) {
    episode.items.push_back(MakeItem(0, 3));  // all one session
    episode.items.back().time = i;
  }
  EpisodeMask mask = BuildEpisodeMask(episode, Options());
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      EXPECT_EQ(mask.mask.At(i, j), ops::kNegInf)
          << "future item visible at (" << i << "," << j << ")";
    }
  }
}

TEST(BuildEpisodeMaskTest, MatchesTrackerVisibility) {
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.labels[1] = 0;
  episode.labels[2] = 0;
  Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    episode.items.push_back(MakeItem(rng.NextInt(3), rng.NextInt(2)));
    episode.items.back().time = i;
  }
  CorrelationOptions options = Options();
  EpisodeMask mask = BuildEpisodeMask(episode, options);
  CorrelationTracker tracker(options);
  for (int i = 0; i < 40; ++i) {
    std::set<int> expected;
    for (int j : tracker.ObserveItem(episode.items[i])) expected.insert(j);
    expected.insert(i);
    for (int j = 0; j < 40; ++j) {
      bool visible = mask.mask.At(i, j) == 0.0f;
      EXPECT_EQ(visible, expected.count(j) > 0)
          << "mismatch at (" << i << "," << j << ")";
    }
  }
}

TEST(BuildEpisodeMaskTest, KeyOnlyMaskIsBlockCausal) {
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.labels[1] = 0;
  for (int i = 0; i < 8; ++i) {
    episode.items.push_back(MakeItem(i % 2, i));  // distinct session values
    episode.items.back().time = i;
  }
  EpisodeMask mask = BuildEpisodeMask(episode, Options(true, false));
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < i; ++j) {
      bool same_key = (i % 2) == (j % 2);
      EXPECT_EQ(mask.mask.At(i, j) == 0.0f, same_key);
    }
  }
}

TEST(BuildEpisodeMaskTest, NoCorrelationsLeavesOnlyDiagonal) {
  TangledSequence episode;
  episode.labels[0] = 0;
  for (int i = 0; i < 4; ++i) {
    episode.items.push_back(MakeItem(0, 3));
    episode.items.back().time = i;
  }
  EpisodeMask mask = BuildEpisodeMask(episode, Options(false, false));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(mask.mask.At(i, j) == 0.0f, i == j);
    }
  }
}

}  // namespace
}  // namespace kvec
