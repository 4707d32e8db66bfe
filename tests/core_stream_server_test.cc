#include "core/stream_server.h"

#include <algorithm>
#include <climits>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "stream_server_bytes.h"
#include "util/key_order.h"

namespace kvec {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Fixture TrainSmallModel(uint64_t seed = 61) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 2;
  generator_config.concurrency = 3;
  generator_config.avg_flow_length = 12.0;
  generator_config.min_flow_length = 6;
  generator_config.handshake_sharpness = 6.0;
  TrafficGenerator generator(generator_config);
  Fixture fixture;
  fixture.dataset = GenerateDataset(generator, {12, 2, 6}, seed);
  KvecConfig config = KvecConfig::ForSpec(fixture.dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 3;
  config.beta = 5e-3f;
  fixture.model = std::make_unique<KvecModel>(config);
  KvecTrainer trainer(fixture.model.get());
  trainer.Train(fixture.dataset.train);
  return fixture;
}

// Streams one episode; remaps episode-local keys by `key_offset` so several
// episodes can share one server without collisions.
std::vector<StreamEvent> StreamEpisode(StreamServer& server,
                                       const TangledSequence& episode,
                                       int key_offset = 0) {
  std::vector<StreamEvent> events;
  for (Item item : episode.items) {
    item.key += key_offset;
    for (StreamEvent& event : server.Observe(item)) {
      events.push_back(event);
    }
  }
  return events;
}

TEST(StreamServerTest, EveryKeyGetsExactlyOneVerdict) {
  Fixture fixture = TrainSmallModel();
  StreamServer server(*fixture.model, {});
  std::map<int, int> verdicts;
  int offset = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    for (const StreamEvent& event :
         StreamEpisode(server, episode, offset)) {
      ++verdicts[event.key];
    }
    offset += 100;
  }
  for (const StreamEvent& event : server.Flush()) ++verdicts[event.key];

  offset = 0;
  int expected_keys = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    expected_keys += episode.num_keys();
  }
  EXPECT_EQ(static_cast<int>(verdicts.size()), expected_keys);
  for (const auto& [key, count] : verdicts) {
    EXPECT_EQ(count, 1) << "key " << key << " classified " << count
                        << " times";
  }
  EXPECT_EQ(server.open_keys(), 0);
}

TEST(StreamServerTest, StatsAddUp) {
  Fixture fixture = TrainSmallModel(62);
  StreamServer server(*fixture.model, {});
  int64_t total_items = 0;
  int offset = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    StreamEpisode(server, episode, offset);
    total_items += static_cast<int64_t>(episode.items.size());
    offset += 100;
  }
  const int64_t flushed = static_cast<int64_t>(server.Flush().size());
  const StreamServerStats& stats = server.stats();
  EXPECT_EQ(stats.items_processed, total_items);
  int64_t by_class = 0;
  for (int64_t count : stats.class_counts) by_class += count;
  EXPECT_EQ(by_class, stats.sequences_classified);
  EXPECT_GE(stats.sequences_classified, stats.policy_halts);
  // Every verdict has exactly one cause: the per-cause counters partition
  // sequences_classified.
  EXPECT_EQ(stats.flush_classifications, flushed);
  EXPECT_EQ(stats.policy_halts + stats.idle_timeouts +
                stats.capacity_evictions + stats.rotation_classifications +
                stats.flush_classifications,
            stats.sequences_classified);
}

TEST(StreamServerTest, IdleKeysAreEvicted) {
  Fixture fixture = TrainSmallModel(63);
  StreamServerConfig config;
  config.idle_timeout = 10;
  config.idle_check_interval = 1;
  StreamServer server(*fixture.model, config);

  // One item of key 1000, then a long stream of other keys: key 1000 must
  // be idle-evicted along the way.
  Item probe = fixture.dataset.test[0].items[0];
  probe.key = 1000;
  server.Observe(probe);
  bool evicted = false;
  int offset = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    for (const StreamEvent& event :
         StreamEpisode(server, episode, offset)) {
      if (event.key == 1000) {
        EXPECT_EQ(event.cause, StreamEvent::Cause::kIdleTimeout);
        EXPECT_EQ(event.observed_items, 1);
        evicted = true;
      }
    }
    offset += 100;
  }
  EXPECT_TRUE(evicted);
  EXPECT_GE(server.stats().idle_timeouts, 1);
}

TEST(StreamServerTest, IdleEvictionBoundaryCases) {
  // Documented semantics: a key last seen at position p is evicted once
  // position - p >= idle_timeout, i.e. it survives the idle_timeout - 1
  // following items and is evicted by the check after the idle_timeout-th.
  Fixture fixture = TrainSmallModel(63);
  StreamServerConfig config;
  config.idle_timeout = 8;
  config.idle_check_interval = 1;
  StreamServer server(*fixture.model, config);

  Item probe = fixture.dataset.test[0].items[0];
  probe.key = 1000;
  // The probe must stay open for the test to mean anything (with this
  // fixture it does not policy-halt on its first item).
  ASSERT_TRUE(server.Observe(probe).empty());

  // Positions 2..8: the probe's gap is 1..7 < idle_timeout. Not evicted.
  Item filler = fixture.dataset.test[0].items[0];
  for (int i = 0; i < config.idle_timeout - 1; ++i) {
    filler.key = 2000 + i;
    for (const StreamEvent& event : server.Observe(filler)) {
      EXPECT_NE(event.key, 1000)
          << "evicted at gap " << i + 1 << " < idle_timeout";
    }
  }

  // Position 9: the probe's gap reaches exactly idle_timeout. Evicted now.
  filler.key = 3000;
  bool evicted = false;
  for (const StreamEvent& event : server.Observe(filler)) {
    if (event.key == 1000) {
      EXPECT_EQ(event.cause, StreamEvent::Cause::kIdleTimeout);
      evicted = true;
    }
  }
  EXPECT_TRUE(evicted) << "not evicted at gap == idle_timeout";
}

TEST(StreamServerTest, IdleSweepRunsOnAlreadyHaltedItems) {
  // A stream tail made of items for keys that already got their verdict
  // must still advance the idle clock and evict idle keys on schedule.
  Fixture fixture = TrainSmallModel(63);
  StreamServerConfig config;
  config.idle_timeout = 8;
  config.idle_check_interval = 1;
  StreamServer server(*fixture.model, config);

  Item probe = fixture.dataset.test[0].items[0];
  probe.key = 1000;
  ASSERT_TRUE(server.Observe(probe).empty());  // probe stays open

  // Open a second key, then force-close it so its later items are
  // already-halted from the engine's point of view.
  Item tail = fixture.dataset.test[0].items[0];
  tail.key = 2000;
  server.Observe(tail);
  server.Flush();  // closes both; reopen the probe
  ASSERT_EQ(server.open_keys(), 0);
  probe.key = 1001;
  ASSERT_TRUE(server.Observe(probe).empty());

  // Feed only already-halted key-2000 items; the probe must still be
  // idle-evicted once its gap reaches idle_timeout.
  bool evicted = false;
  for (int i = 0; i < 2 * config.idle_timeout && !evicted; ++i) {
    for (const StreamEvent& event : server.Observe(tail)) {
      if (event.key == 1001) {
        EXPECT_EQ(event.cause, StreamEvent::Cause::kIdleTimeout);
        evicted = true;
      }
    }
  }
  EXPECT_TRUE(evicted) << "already-halted tail items skipped the idle sweep";
}

TEST(StreamServerTest, CapacityCapHolds) {
  Fixture fixture = TrainSmallModel(64);
  StreamServerConfig config;
  config.max_open_keys = 4;
  config.idle_timeout = 1 << 20;  // disable idle eviction
  StreamServer server(*fixture.model, config);
  // Feed one item each for many distinct keys: open set must stay <= 4.
  Item base = fixture.dataset.test[0].items[0];
  for (int key = 0; key < 50; ++key) {
    Item item = base;
    item.key = key;
    item.time = key;
    server.Observe(item);
    EXPECT_LE(server.open_keys(), 4);
  }
  EXPECT_GE(server.stats().capacity_evictions, 1);
}

TEST(StreamServerTest, CapacityEvictionPicksLeastRecentlyActive) {
  // Shadow the server's recency bookkeeping and check every capacity
  // eviction hits the key with the smallest last-activity position.
  Fixture fixture = TrainSmallModel(64);
  StreamServerConfig config;
  config.max_open_keys = 4;
  config.idle_timeout = 1 << 20;
  StreamServer server(*fixture.model, config);

  std::map<int, int64_t> last_seen;  // open keys -> latest position
  std::set<int> closed;              // keys that already got their verdict
  Item base = fixture.dataset.test[0].items[0];
  std::vector<int> key_at;  // key of the i-th item
  int next_key = 0;
  int64_t position = 0;
  for (int i = 0; i < 200; ++i) {
    Item item = base;
    // Mostly fresh keys (forcing evictions), with every 4th item
    // re-touching a recent key so refreshed recency is exercised too.
    item.key = (i % 4 == 3) ? key_at[i - 3] : next_key++;
    key_at.push_back(item.key);
    item.time = i;
    ++position;
    std::vector<StreamEvent> events = server.Observe(item);
    if (!closed.count(item.key)) last_seen[item.key] = position;
    for (const StreamEvent& event : events) {
      if (event.cause == StreamEvent::Cause::kCapacityEviction) {
        auto lru = last_seen.begin();
        for (auto it = last_seen.begin(); it != last_seen.end(); ++it) {
          if (it->second < lru->second) lru = it;
        }
        EXPECT_EQ(event.key, lru->first)
            << "eviction skipped the least recently active key";
      }
      last_seen.erase(event.key);
      closed.insert(event.key);
    }
    EXPECT_LE(server.open_keys(), config.max_open_keys);
  }
  EXPECT_GE(server.stats().capacity_evictions, 1);
}

TEST(StreamServerTest, WindowRotationBoundsEngineAndClosesKeys) {
  Fixture fixture = TrainSmallModel(65);
  StreamServerConfig config;
  config.max_window_items = 40;
  config.idle_timeout = 1 << 20;
  StreamServer server(*fixture.model, config);
  int rotations_seen = 0;
  int offset = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    for (const StreamEvent& event :
         StreamEpisode(server, episode, offset)) {
      if (event.cause == StreamEvent::Cause::kWindowRotation) {
        ++rotations_seen;
      }
    }
    offset += 100;
  }
  EXPECT_GT(server.stats().windows_started, 1);
  EXPECT_EQ(server.stats().rotation_classifications, rotations_seen);
}

TEST(StreamServerTest, LargeWindowMatchesPlainOnlineClassifier) {
  // With bounds effectively disabled, the server's policy halts must agree
  // with a bare OnlineClassifier on the same stream.
  Fixture fixture = TrainSmallModel(66);
  StreamServerConfig config;  // defaults are far larger than one episode
  StreamServer server(*fixture.model, config);
  OnlineClassifier plain(*fixture.model);

  const TangledSequence& episode = fixture.dataset.test[0];
  std::map<int, int> server_verdicts, plain_verdicts;
  for (const Item& item : episode.items) {
    for (const StreamEvent& event : server.Observe(item)) {
      if (event.cause == StreamEvent::Cause::kPolicyHalt) {
        server_verdicts[event.key] = event.predicted_label;
      }
    }
    OnlineDecision decision = plain.Observe(item);
    if (decision.halted_now) {
      plain_verdicts[decision.key] = decision.predicted_label;
    }
  }
  EXPECT_EQ(server_verdicts, plain_verdicts);
}

TEST(StreamServerTest, FlushIsIdempotent) {
  Fixture fixture = TrainSmallModel(67);
  StreamServer server(*fixture.model, {});
  StreamEpisode(server, fixture.dataset.test[0]);
  server.Flush();
  EXPECT_TRUE(server.Flush().empty());
  EXPECT_EQ(server.open_keys(), 0);
}

TEST(StreamServerTest, EventsCarryConfidence) {
  Fixture fixture = TrainSmallModel(68);
  StreamServer server(*fixture.model, {});
  std::vector<StreamEvent> events =
      StreamEpisode(server, fixture.dataset.test[0]);
  for (const StreamEvent& event : server.Flush()) events.push_back(event);
  ASSERT_FALSE(events.empty());
  for (const StreamEvent& event : events) {
    EXPECT_GT(event.confidence, 0.0);
    EXPECT_LE(event.confidence, 1.0);
    EXPECT_GE(event.observed_items, 1);
  }
}

// ---- The serving index's orders and its agreement with the engine. ----

using Cause = StreamEvent::Cause;
using KeyCause = std::pair<int, Cause>;

std::vector<KeyCause> KeysAndCauses(const std::vector<StreamEvent>& events) {
  std::vector<KeyCause> out;
  out.reserve(events.size());
  for (const StreamEvent& event : events) out.emplace_back(event.key, event.cause);
  return out;
}

std::vector<int> KeysOf(const std::vector<StreamEvent>& events) {
  std::vector<int> keys;
  for (const StreamEvent& event : events) keys.push_back(event.key);
  return keys;
}

// Feeds `base` once under each of `keys`, asserting every key stays open.
void OpenKeys(StreamServer& server, Item base, const std::vector<int>& keys) {
  for (int key : keys) {
    base.key = key;
    ASSERT_TRUE(server.Observe(base).empty()) << "key " << key;
  }
}

std::unique_ptr<StreamServer> RestoredCopy(const KvecModel& model,
                                           const StreamServerConfig& config,
                                           const StreamServer& source) {
  BinaryWriter writer;
  source.Snapshot(&writer);
  auto copy = std::make_unique<StreamServer>(model, config);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(copy->Restore(&reader));
  return copy;
}

// A StreamServer snapshot in its three parts: the header (config, clocks,
// stats), the open-key records, and the engine's bytes.
struct SnapshotParts {
  std::string header;
  std::vector<std::pair<int, int64_t>> open;  // (key, last_seen)
  std::string engine;
};

// A SnapshotDelta splits the same way: its header part ends with the
// engine-reset flag, and its engine part starts with the tombstones.
SnapshotParts SplitSnapshot(const std::string& snapshot, bool delta = false) {
  BinaryReader reader(snapshot);
  BinaryWriter header;
  for (int i = 0; i < 4; ++i) header.WriteInt32(reader.ReadInt32());  // config
  header.WriteInt64(reader.ReadInt64());  // position
  header.WriteInt32(reader.ReadInt32());  // window_items
  for (int i = 0; i < 7; ++i) header.WriteInt64(reader.ReadInt64());  // stats
  header.WriteInt32(reader.ReadInt32());  // windows_started
  const int32_t num_classes = reader.ReadInt32();
  header.WriteInt32(num_classes);
  for (int32_t c = 0; c < num_classes; ++c) {
    header.WriteInt64(reader.ReadInt64());
  }
  if (delta) header.WriteInt32(reader.ReadInt32());  // engine reset
  SnapshotParts parts;
  parts.header = header.buffer();
  const int32_t num_open = reader.ReadInt32();
  for (int32_t i = 0; i < num_open && reader.ok(); ++i) {
    const int key = reader.ReadInt32();
    parts.open.emplace_back(key, reader.ReadInt64());
  }
  EXPECT_TRUE(reader.ok());
  parts.engine = snapshot.substr(snapshot.size() - reader.remaining());
  return parts;
}

// Re-encodes a split snapshot (or delta) with its open-key records
// replaced by `records` ((key, last_seen) pairs, written in the given
// order); every other byte is kept.
std::string WithOpenKeys(const SnapshotParts& parts,
                         const std::vector<std::pair<int, int64_t>>& records) {
  BinaryWriter writer;
  writer.WriteInt32(static_cast<int32_t>(records.size()));
  for (const auto& [key, last_seen] : records) {
    writer.WriteInt32(key);
    writer.WriteInt64(last_seen);
  }
  return parts.header + writer.buffer() + parts.engine;
}

std::string WithOpenKeys(const std::string& snapshot,
                         const std::vector<std::pair<int, int64_t>>& records) {
  return WithOpenKeys(SplitSnapshot(snapshot), records);
}

// Overwrites the first little-endian occurrence of `from` in `bytes`.
bool ReplaceFirstInt32(std::string* bytes, int32_t from, int32_t to) {
  const std::string pattern(reinterpret_cast<const char*>(&from), sizeof(from));
  const size_t at = bytes->find(pattern);
  if (at == std::string::npos) return false;
  std::memcpy(bytes->data() + at, &to, sizeof(to));
  return true;
}

TEST(StreamServerTest, RotationAndFlushCloseInAscendingKeyOrder) {
  Fixture fixture = TrainSmallModel(70);
  StreamServerConfig config;
  config.max_window_items = 6;
  config.idle_timeout = 1 << 20;
  StreamServer server(*fixture.model, config);
  const std::vector<Item>& items = fixture.dataset.test[0].items;

  // Feeds one item per key, out of key order, and returns the keys still
  // open afterwards (a key may policy-halt on its item), sorted.
  size_t next_item = 0;
  auto open_keys = [&](const std::vector<int>& keys) {
    std::vector<int> open;
    for (int key : keys) {
      Item item = items[next_item++ % items.size()];
      item.key = key;
      if (server.Observe(item).empty()) open.push_back(key);
    }
    std::sort(open.begin(), open.end());
    return open;
  };

  // Six keys fill the window; the next item rotates it, closing every
  // open key in ascending key order.
  const std::vector<int> before_rotation = open_keys({42, 7, 500, 3, 99, 8});
  ASSERT_GE(before_rotation.size(), 3u);
  Item next = items[next_item++ % items.size()];
  next.key = 5;
  const std::vector<StreamEvent> rotated = server.Observe(next);
  EXPECT_EQ(KeysOf(rotated), before_rotation);
  for (const StreamEvent& event : rotated) {
    EXPECT_EQ(event.cause, Cause::kWindowRotation);
  }

  std::vector<int> before_flush = open_keys({31, 1, 12, 2});
  if (server.open_keys() > static_cast<int>(before_flush.size())) {
    before_flush.push_back(5);  // still open from its own item
    std::sort(before_flush.begin(), before_flush.end());
  }
  ASSERT_GE(before_flush.size(), 3u);
  const std::vector<StreamEvent> flushed = server.Flush();
  EXPECT_EQ(KeysOf(flushed), before_flush);
  for (const StreamEvent& event : flushed) {
    EXPECT_EQ(event.cause, Cause::kFlush);
  }
}

// `count` keys from `first_key` up with one item each, their values taken
// from `templates` in turn: a window that fills the shard pool with
// per-key state.
std::vector<Item> OneItemKeys(const std::vector<Item>& templates,
                              int first_key, int count) {
  std::vector<Item> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Item item = templates[static_cast<size_t>(i) % templates.size()];
    item.key = first_key + i;
    item.time = i * 1e-3;
    items.push_back(std::move(item));
  }
  return items;
}

// The test episodes of `dataset` with episode e's keys moved up by
// 1000 * e: all but the last as the first window, the last as the next.
void SplitEpisodes(const Dataset& dataset, std::vector<Item>* first,
                   std::vector<Item>* next) {
  const std::vector<TangledSequence>& episodes = dataset.test;
  ASSERT_GE(episodes.size(), 2u);
  for (size_t e = 0; e < episodes.size(); ++e) {
    for (Item item : episodes[e].items) {
      item.key += 1000 * static_cast<int>(e);
      (e + 1 < episodes.size() ? first : next)->push_back(item);
    }
  }
}

// Serves `first` as one whole window and then `next` on one server, and
// `next` alone on a fresh one. After the rotation the next window must be
// served exactly as by the fresh server: the same events, the same engine
// bytes, and the same open keys with last_seen moved by the first window.
// The next engine inherits only the retiring one's K/V arena
// (OnlineClassifierTest.AdoptedArenaServesLikeAFreshEngine checks the
// arena itself), never its rows. *before and *after are the rotated
// server's stats just before and just after `next`.
void ExpectNextWindowLikeAFreshServer(const KvecModel& model,
                                      const std::vector<Item>& first,
                                      const std::vector<Item>& next,
                                      StreamServerStats* before,
                                      StreamServerStats* after) {
  ASSERT_LT(next.size(), first.size());
  StreamServerConfig config;
  config.max_window_items = static_cast<int>(first.size());
  config.max_open_keys = static_cast<int>(first.size());
  config.idle_timeout = 1 << 20;

  StreamServer rotated(model, config);
  rotated.ObserveBatch(first);
  *before = rotated.stats();
  std::vector<StreamEvent> got;
  for (const StreamEvent& event : rotated.ObserveBatch(next)) {
    if (event.cause != Cause::kWindowRotation) got.push_back(event);
  }
  *after = rotated.stats();

  StreamServer fresh(model, config);
  std::vector<StreamEvent> want = fresh.ObserveBatch(next);

  const SnapshotParts got_state = SplitSnapshot(SnapshotBytes(rotated));
  const SnapshotParts want_state = SplitSnapshot(SnapshotBytes(fresh));
  EXPECT_EQ(got_state.engine, want_state.engine);
  std::vector<std::pair<int, int64_t>> shifted = want_state.open;
  for (auto& [key, last_seen] : shifted) {
    last_seen += static_cast<int64_t>(first.size());
  }
  EXPECT_EQ(got_state.open, shifted);

  const std::vector<StreamEvent> got_flush = rotated.Flush();
  got.insert(got.end(), got_flush.begin(), got_flush.end());
  const std::vector<StreamEvent> want_flush = fresh.Flush();
  want.insert(want.end(), want_flush.begin(), want_flush.end());

  EXPECT_EQ(after->windows_started, fresh.stats().windows_started + 1);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(KeysAndCauses(got), KeysAndCauses(want));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted_label, want[i].predicted_label) << i;
    EXPECT_EQ(got[i].observed_items, want[i].observed_items) << i;
    EXPECT_EQ(got[i].confidence, want[i].confidence) << i;
  }
}

// A window this many one-item keys wide leaves well over 4 MiB in the
// shard pool, so its rotation releases the pool.
constexpr int kReleasingWindowKeys = 12000;

// A small window's rotation keeps the pool and rebuilds the engine on it.
TEST(StreamServerTest, NextWindowServesLikeAFreshServer) {
  Fixture fixture = TrainSmallModel(71);
  std::vector<Item> first, next;
  SplitEpisodes(fixture.dataset, &first, &next);
  StreamServerStats before, after;
  ExpectNextWindowLikeAFreshServer(*fixture.model, first, next, &before,
                                   &after);
  EXPECT_EQ(after.compactions, 0);
}

// A large window's rotation starts the next window on a fresh pool and
// releases the old one, which the next window cannot tell.
TEST(StreamServerTest, NextWindowAfterAReleasedPoolServesLikeAFreshServer) {
  Fixture fixture = TrainSmallModel(71);
  std::vector<Item> templates, next;
  SplitEpisodes(fixture.dataset, &templates, &next);
  StreamServerStats before, after;
  ExpectNextWindowLikeAFreshServer(
      *fixture.model, OneItemKeys(templates, 1 << 20, kReleasingWindowKeys),
      next, &before, &after);
  EXPECT_EQ(before.compactions, 0);
  EXPECT_EQ(after.compactions, 1);
  EXPECT_LT(after.pool_blocks, before.pool_blocks);
}

// A delta cut one item past a rotation that released the pool carries the
// whole young window, and applies onto the pre-rotation base: the staged
// server rebuilds its engine on its own pool, whose index already holds
// the delta's upserts.
TEST(StreamServerTest, DeltaCutRightAfterAReleasingRotationRestores) {
  Fixture fixture = TrainSmallModel(71);
  std::vector<Item> templates, next;
  SplitEpisodes(fixture.dataset, &templates, &next);
  StreamServerConfig config;
  config.max_window_items = kReleasingWindowKeys;
  config.max_open_keys = kReleasingWindowKeys;
  config.idle_timeout = 1 << 20;
  const std::vector<Item> window =
      OneItemKeys(templates, 1 << 20, kReleasingWindowKeys);

  StreamServer live(*fixture.model, config);
  live.ObserveBatch({window.begin(), window.begin() + 100});
  std::unique_ptr<StreamServer> restored =
      RestoredCopy(*fixture.model, config, live);
  live.StageDeltaBaseline();
  live.CommitDeltaBaseline();
  live.ObserveBatch({window.begin() + 100, window.end()});
  live.Observe(next[0]);
  ASSERT_EQ(live.stats().compactions, 1);
  BinaryWriter delta;
  live.SnapshotDelta(&delta);
  live.CommitDeltaBaseline();

  BinaryReader reader(delta.buffer());
  ASSERT_TRUE(restored->ApplyDelta(&reader));
  EXPECT_EQ(SnapshotBytes(*restored), SnapshotBytes(live));
  const std::vector<Item> rest(next.begin() + 1, next.end());
  EXPECT_EQ(KeysAndCauses(restored->ObserveBatch(rest)),
            KeysAndCauses(live.ObserveBatch(rest)));
  EXPECT_EQ(SnapshotBytes(*restored), SnapshotBytes(live));
}

// compactions, items_after_verdict and the memory gauges describe the
// process, not serving state: they are never serialized, and a restore
// keeps the live server's values.
TEST(StreamServerTest, RestoreKeepsTheLiveProcessLocalCounters) {
  Fixture fixture = TrainSmallModel(71);
  std::vector<Item> templates, next;
  SplitEpisodes(fixture.dataset, &templates, &next);
  StreamServerConfig config;
  config.max_window_items = kReleasingWindowKeys;
  config.max_open_keys = kReleasingWindowKeys;
  config.idle_timeout = 1 << 20;
  StreamServer target(*fixture.model, config);
  target.ObserveBatch(OneItemKeys(templates, 1 << 20, kReleasingWindowKeys));
  target.ObserveBatch(templates);  // rotates, then halts keys early
  const StreamServerStats before = target.stats();
  ASSERT_EQ(before.compactions, 1);
  ASSERT_GT(before.items_after_verdict, 0);
  ASSERT_GT(before.scratch_high_water, 0);

  StreamServer source(*fixture.model, {});
  source.ObserveBatch(next);
  ASSERT_TRUE(RestoreSnapshot(&target, SnapshotBytes(source)));
  EXPECT_EQ(SnapshotBytes(target), SnapshotBytes(source));
  const StreamServerStats after = target.stats();
  EXPECT_EQ(after.items_processed, source.stats().items_processed);
  EXPECT_EQ(after.compactions, before.compactions);
  EXPECT_EQ(after.items_after_verdict, before.items_after_verdict);
  EXPECT_EQ(after.scratch_high_water, before.scratch_high_water);
  EXPECT_GT(after.bytes_resident, 0);
  EXPECT_GT(after.pool_blocks, 0);
}

TEST(StreamServerTest, RestoredLastSeenTiesEvictInLastSeenThenKeyOrder) {
  // A hand-built snapshot whose open keys share last_seen values, listed in
  // key order, which is not their recency order: after Restore, capacity
  // evictions must follow (last_seen, key).
  Fixture fixture = TrainSmallModel(71);
  StreamServerConfig config;
  config.max_open_keys = 4;
  config.idle_timeout = 1 << 20;
  StreamServer source(*fixture.model, config);
  const Item base = fixture.dataset.test[0].items[0];
  OpenKeys(source, base, {10, 20, 30, 40});
  BinaryWriter writer;
  source.Snapshot(&writer);
  const std::string snapshot =
      WithOpenKeys(writer.buffer(), {{10, 3}, {20, 2}, {30, 3}, {40, 2}});

  StreamServer server(*fixture.model, config);
  BinaryReader reader(snapshot);
  ASSERT_TRUE(server.Restore(&reader));
  std::vector<StreamEvent> evicted;
  for (int key = 50; key <= 80; key += 10) {
    Item item = base;
    item.key = key;
    for (const StreamEvent& event : server.Observe(item)) {
      EXPECT_EQ(event.cause, Cause::kCapacityEviction);
      evicted.push_back(event);
    }
  }
  EXPECT_EQ(KeysOf(evicted), (std::vector<int>{20, 40, 10, 30}));
}

TEST(StreamServerTest, RestoreRejectsOpenKeyTheEngineNeverSaw) {
  // A checkpoint whose open-key record names a key the engine has no state
  // for used to restore, and Flush then emitted a phantom verdict for it.
  Fixture fixture = TrainSmallModel(72);
  StreamServer source(*fixture.model, {});
  OpenKeys(source, fixture.dataset.test[0].items[0], {777777, 5});
  std::string bytes = SnapshotBytes(source);
  ASSERT_TRUE(ReplaceFirstInt32(&bytes, 777777, 888888));

  StreamServer target(*fixture.model, {});
  OpenKeys(target, fixture.dataset.test[0].items[1], {11});
  const std::string before = SnapshotBytes(target);
  EXPECT_FALSE(RestoreSnapshot(&target, bytes));
  EXPECT_EQ(SnapshotBytes(target), before);  // untouched
  EXPECT_EQ(KeysOf(target.Flush()), std::vector<int>{11});

  // The untampered snapshot restores.
  StreamServer fresh(*fixture.model, {});
  ASSERT_TRUE(RestoreSnapshot(&fresh, SnapshotBytes(source)));
  EXPECT_EQ(KeysOf(fresh.Flush()), (std::vector<int>{5, 777777}));
}

TEST(StreamServerTest, RestoreRejectsUndecidedEngineKeyMissingFromIndex) {
  // The reverse direction: an engine key with observed items and no
  // verdict must be open.
  Fixture fixture = TrainSmallModel(72);
  StreamServer source(*fixture.model, {});
  OpenKeys(source, fixture.dataset.test[0].items[0], {3, 9});
  BinaryWriter writer;
  source.Snapshot(&writer);
  StreamServer target(*fixture.model, {});
  BinaryReader reader(WithOpenKeys(writer.buffer(), {{3, 1}}));
  EXPECT_FALSE(target.Restore(&reader));
  EXPECT_EQ(target.open_keys(), 0);
}

TEST(StreamServerTest, RestoreRejectsTrackerKeyTheEngineNeverSaw) {
  // A flipped key in the correlation tracker's section leaves a tracker
  // record with no engine key state. The engine indexes its key states by
  // the tracker's key ids, so no server can serve that state.
  Fixture fixture = TrainSmallModel(72);
  StreamServer source(*fixture.model, {});
  OpenKeys(source, fixture.dataset.test[0].items[0], {777777, 5});
  source.Flush();  // nothing open: the key's first bytes are the tracker's
  std::string bytes = SnapshotBytes(source);
  ASSERT_TRUE(ReplaceFirstInt32(&bytes, 777777, 888888));

  StreamServer target(*fixture.model, {});
  OpenKeys(target, fixture.dataset.test[0].items[1], {11});
  const std::string before = SnapshotBytes(target);
  EXPECT_FALSE(RestoreSnapshot(&target, bytes));
  EXPECT_EQ(SnapshotBytes(target), before);  // untouched
  EXPECT_EQ(KeysOf(target.Flush()), std::vector<int>{11});

  StreamServer fresh(*fixture.model, {});
  EXPECT_TRUE(RestoreSnapshot(&fresh, SnapshotBytes(source)));
}

TEST(StreamServerTest, ApplyDeltaRejectsOpenKeyTheEngineNeverSaw) {
  Fixture fixture = TrainSmallModel(72);
  StreamServer live(*fixture.model, {});
  const Item base = fixture.dataset.test[0].items[0];
  OpenKeys(live, base, {5});
  std::unique_ptr<StreamServer> tampered_base =
      RestoredCopy(*fixture.model, {}, live);
  std::unique_ptr<StreamServer> clean_base =
      RestoredCopy(*fixture.model, {}, live);
  live.StageDeltaBaseline();
  live.CommitDeltaBaseline();
  OpenKeys(live, base, {777777});
  BinaryWriter delta;
  live.SnapshotDelta(&delta);

  std::string tampered = delta.buffer();
  ASSERT_TRUE(ReplaceFirstInt32(&tampered, 777777, 888888));
  BinaryReader bad(tampered);
  EXPECT_FALSE(tampered_base->ApplyDelta(&bad));

  BinaryReader good(delta.buffer());
  ASSERT_TRUE(clean_base->ApplyDelta(&good));
  EXPECT_EQ(KeysOf(clean_base->Flush()), (std::vector<int>{5, 777777}));
}

TEST(StreamServerTest, ApplyDeltaRejectsUndecidedEngineKeyMissingFromIndex) {
  // The delta-side twin of the restore test: a delta whose open-key
  // upserts drop a key the engine holds undecided.
  Fixture fixture = TrainSmallModel(72);
  StreamServer live(*fixture.model, {});
  const Item base = fixture.dataset.test[0].items[0];
  OpenKeys(live, base, {5});
  std::unique_ptr<StreamServer> tampered_base =
      RestoredCopy(*fixture.model, {}, live);
  std::unique_ptr<StreamServer> clean_base =
      RestoredCopy(*fixture.model, {}, live);
  live.StageDeltaBaseline();
  live.CommitDeltaBaseline();
  OpenKeys(live, base, {3, 9});
  BinaryWriter delta;
  live.SnapshotDelta(&delta);

  const SnapshotParts parts = SplitSnapshot(delta.buffer(), /*delta=*/true);
  ASSERT_EQ(parts.open.size(), 2u);
  BinaryReader bad(WithOpenKeys(parts, {parts.open[0]}));
  EXPECT_FALSE(tampered_base->ApplyDelta(&bad));

  BinaryReader good(delta.buffer());
  ASSERT_TRUE(clean_base->ApplyDelta(&good));
  EXPECT_EQ(KeysOf(clean_base->Flush()), (std::vector<int>{3, 5, 9}));
}

// The recency model the hash index replaced, kept as the test's reference:
// an ordered open-key map and its (last_seen, key) mirror. It predicts
// every forced event; policy halts come from the server under test (the
// reference has no model), so it takes the server's events to stay in
// step.
class ReferenceRecency {
 public:
  explicit ReferenceRecency(const StreamServerConfig& config)
      : config_(config) {}

  // The events `items` must produce, given the server's `actual` events
  // for them (consulted only for policy halts).
  std::vector<KeyCause> Expect(const std::vector<Item>& items,
                               const std::vector<KeyCause>& actual) {
    std::vector<KeyCause> expected;
    for (const Item& item : items) {
      if (window_items_ >= config_.max_window_items) {
        for (const auto& [key, last_seen] : open_) {
          expected.emplace_back(key, Cause::kWindowRotation);
        }
        open_.clear();
        by_last_seen_.clear();
        decided_.clear();  // a fresh engine
        window_items_ = 0;
      }
      ++position_;
      ++window_items_;
      if (decided_.count(item.key) == 0) {
        const size_t next = expected.size();
        if (next < actual.size() &&
            actual[next] == KeyCause{item.key, Cause::kPolicyHalt}) {
          expected.push_back(actual[next]);
          Close(item.key);
        } else {
          auto [it, inserted] = open_.try_emplace(item.key, position_);
          if (!inserted) {
            by_last_seen_.erase({it->second, item.key});
            it->second = position_;
          }
          by_last_seen_.insert({position_, item.key});
          if (static_cast<int>(open_.size()) > config_.max_open_keys) {
            const int lru = by_last_seen_.begin()->second;
            expected.emplace_back(lru, Cause::kCapacityEviction);
            Close(lru);
          }
        }
      }
      if (position_ % config_.idle_check_interval == 0) {
        while (!by_last_seen_.empty() &&
               position_ - by_last_seen_.begin()->first >=
                   config_.idle_timeout) {
          const int idle = by_last_seen_.begin()->second;
          expected.emplace_back(idle, Cause::kIdleTimeout);
          Close(idle);
        }
      }
    }
    return expected;
  }

  std::vector<KeyCause> ExpectFlush() {
    std::vector<KeyCause> expected;
    for (const auto& [key, last_seen] : open_) {
      expected.emplace_back(key, Cause::kFlush);
    }
    return expected;
  }

 private:
  // The key got its verdict: it leaves the index and stays closed until
  // the window rotates.
  void Close(int key) {
    auto it = open_.find(key);
    if (it != open_.end()) {
      by_last_seen_.erase({it->second, key});
      open_.erase(it);
    }
    decided_.insert(key);
  }

  const StreamServerConfig config_;
  std::map<int, int64_t> open_;
  std::set<std::pair<int64_t, int>> by_last_seen_;
  std::set<int> decided_;
  int64_t position_ = 0;
  int window_items_ = 0;
};

TEST(StreamServerTest, EvictionsMatchReferenceRecencyModelAcrossCuts) {
  Fixture fixture = TrainSmallModel(73);
  std::vector<Item> pool;
  for (const TangledSequence& episode : fixture.dataset.train) {
    pool.insert(pool.end(), episode.items.begin(), episode.items.end());
  }
  ASSERT_FALSE(pool.empty());

  int64_t capacity = 0, idle = 0, rotations = 0, restores = 0, deltas = 0;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    StreamServerConfig config;
    config.max_open_keys = 3 + static_cast<int>(rng() % 6);
    config.idle_timeout = 4 + static_cast<int>(rng() % 24);
    config.idle_check_interval = 1 + static_cast<int>(rng() % 5);
    config.max_window_items = 60 + static_cast<int>(rng() % 120);
    ReferenceRecency reference(config);
    auto live = std::make_unique<StreamServer>(*fixture.model, config);
    // The base the next delta applies to; null until a restore cut arms
    // dirty tracking on `live`.
    std::unique_ptr<StreamServer> mirror;

    const int num_keys = 8 + static_cast<int>(rng() % 24);
    int64_t time = 0;
    for (int served = 0; served < 800;) {
      std::vector<Item> batch(1 + rng() % 8);
      for (Item& item : batch) {
        item = pool[rng() % pool.size()];
        item.key = static_cast<int>(rng() % num_keys);
        item.time = static_cast<double>(++time);
      }
      served += static_cast<int>(batch.size());
      const std::vector<KeyCause> actual =
          KeysAndCauses(live->ObserveBatch(batch));
      ASSERT_EQ(actual, reference.Expect(batch, actual))
          << "seed " << seed << " after " << served << " items";

      if (rng() % 6 != 0) continue;
      if (mirror == nullptr || rng() % 3 == 0) {
        // Restore cut: serve on from a restored copy, whose state is also
        // the base of the next delta.
        live = RestoredCopy(*fixture.model, config, *live);
        mirror = RestoredCopy(*fixture.model, config, *live);
        live->StageDeltaBaseline();
        live->CommitDeltaBaseline();
        ++restores;
      } else {
        // Delta cut: the mirror catches up through ApplyDelta; half the
        // time it takes over serving (re-armed as the next base's source).
        BinaryWriter delta;
        live->SnapshotDelta(&delta);
        live->CommitDeltaBaseline();
        BinaryReader reader(delta.buffer());
        ASSERT_TRUE(mirror->ApplyDelta(&reader)) << "seed " << seed;
        if (rng() % 2 == 0) {
          std::swap(live, mirror);
          live->StageDeltaBaseline();
          live->CommitDeltaBaseline();
        }
        ++deltas;
      }
    }
    ASSERT_EQ(KeysAndCauses(live->Flush()), reference.ExpectFlush())
        << "seed " << seed;
    const StreamServerStats& stats = live->stats();
    capacity += stats.capacity_evictions;
    idle += stats.idle_timeouts;
    rotations += stats.rotation_classifications;
  }
  // Every forced path and both cut kinds were exercised.
  EXPECT_GT(capacity, 0);
  EXPECT_GT(idle, 0);
  EXPECT_GT(rotations, 0);
  EXPECT_GT(restores, 0);
  EXPECT_GT(deltas, 0);
}

// Every int is a serving key. With the key-membership embedding off (it
// indexes a table by key), a stream relabelled over the whole int range by
// an order-preserving map (INT_MIN, 0 and INT_MAX among the labels) serves
// the same events, relabelled, as the original stream: through rotations,
// capacity and idle evictions, a full restore and a delta link.
TEST(StreamServerTest, KeysAcrossTheIntRangeServeLikeSmallKeys) {
  Fixture fixture = TrainSmallModel(74);
  KvecConfig model_config = fixture.model->config();
  model_config.use_membership_embedding = false;
  const KvecModel model(model_config);
  std::vector<Item> pool;
  for (const TangledSequence& episode : fixture.dataset.train) {
    pool.insert(pool.end(), episode.items.begin(), episode.items.end());
  }
  ASSERT_FALSE(pool.empty());

  constexpr int kKeys = 16;
  const int64_t step = (int64_t{1} << 32) / kKeys;
  auto relabel = [&](int key) {
    return key == kKeys - 1 ? INT_MAX
                            : static_cast<int>(INT_MIN + key * step);
  };
  ASSERT_EQ(relabel(kKeys / 2), 0);

  StreamServerConfig config;
  config.max_open_keys = 6;
  config.idle_timeout = 24;
  config.idle_check_interval = 3;
  config.max_window_items = 150;
  StreamServer small(model, config);
  auto wide = std::make_unique<StreamServer>(model, config);
  std::unique_ptr<StreamServer> base;
  std::mt19937 rng(5);
  std::vector<StreamEvent> expected, actual;
  for (int cut = 0; cut < 8; ++cut) {
    for (int i = 0; i < 100; ++i) {
      Item item = pool[rng() % pool.size()];
      item.key = static_cast<int>(rng() % kKeys);
      for (StreamEvent event : small.Observe(item)) {
        event.key = relabel(event.key);
        expected.push_back(event);
      }
      item.key = relabel(item.key);
      for (const StreamEvent& event : wide->Observe(item)) {
        actual.push_back(event);
      }
    }
    if (cut % 2 == 0) {
      // Serve on from a restored copy; a second copy is the delta's base.
      wide = RestoredCopy(model, config, *wide);
      base = RestoredCopy(model, config, *wide);
      wide->StageDeltaBaseline();
      wide->CommitDeltaBaseline();
    } else {
      // The base catches up through ApplyDelta and takes over serving.
      BinaryWriter delta;
      wide->SnapshotDelta(&delta);
      BinaryReader reader(delta.buffer());
      ASSERT_TRUE(base->ApplyDelta(&reader)) << "cut " << cut;
      wide = std::move(base);
    }
  }
  for (StreamEvent event : small.Flush()) {
    event.key = relabel(event.key);
    expected.push_back(event);
  }
  for (const StreamEvent& event : wide->Flush()) actual.push_back(event);

  ASSERT_EQ(actual.size(), expected.size());
  std::set<int> keys;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].key, expected[i].key) << "event " << i;
    EXPECT_EQ(actual[i].cause, expected[i].cause) << "event " << i;
    EXPECT_EQ(actual[i].predicted_label, expected[i].predicted_label);
    EXPECT_EQ(actual[i].observed_items, expected[i].observed_items);
    EXPECT_EQ(actual[i].confidence, expected[i].confidence);
    keys.insert(actual[i].key);
  }
  EXPECT_TRUE(keys.count(INT_MIN) && keys.count(0) && keys.count(INT_MAX));
  const StreamServerStats& stats = small.stats();
  EXPECT_GT(stats.capacity_evictions, 0);
  EXPECT_GT(stats.idle_timeouts, 0);
  EXPECT_GT(stats.rotation_classifications, 0);
}

// A rotation closes its open keys in ascending key order over the whole int
// range, whether a few keys are open or more than the radix sort's
// small-input cut-over (src/util/key_order.h).
TEST(StreamServerTest, RotationOverTheIntRangeClosesInAscendingKeyOrder) {
  Fixture fixture = TrainSmallModel(75);
  KvecConfig model_config = fixture.model->config();
  model_config.use_membership_embedding = false;  // it indexes by key
  const KvecModel model(model_config);
  const std::vector<Item>& items = fixture.dataset.train[0].items;
  std::mt19937 rng(9);
  std::uniform_int_distribution<int> any(INT_MIN, INT_MAX);
  for (int num_keys : {12, 1000}) {
    SCOPED_TRACE(num_keys);
    std::set<int> unique = {INT_MIN, INT_MAX, -1, 0};
    while (static_cast<int>(unique.size()) < num_keys) unique.insert(any(rng));
    std::vector<int> keys(unique.begin(), unique.end());
    std::shuffle(keys.begin(), keys.end(), rng);

    StreamServerConfig config;
    config.max_window_items = num_keys;
    config.idle_timeout = 1 << 20;
    config.max_open_keys = 1 << 20;
    StreamServer server(model, config);
    // One item per key fills the window; a key whose item halts it closes
    // on the spot.
    std::set<int> open;
    for (size_t i = 0; i < keys.size(); ++i) {
      Item item = items[i % items.size()];
      item.key = keys[i];
      if (server.Observe(item).empty()) open.insert(keys[i]);
    }
    // Open keys on the side of the radix cut-over the case is for.
    ASSERT_GE(open.size(), 3u);
    if (num_keys > 100) {
      ASSERT_GT(open.size(), kRadixSortMinEntries);
    }

    // The next item, under a new key, rotates the window first; the item
    // itself may then halt its key.
    Item next = items[0];
    next.key = 5;
    while (unique.count(next.key) != 0) ++next.key;
    std::vector<StreamEvent> rotated = server.Observe(next);
    if (!rotated.empty() && rotated.back().key == next.key) rotated.pop_back();
    for (const StreamEvent& event : rotated) {
      EXPECT_EQ(event.cause, Cause::kWindowRotation);
    }
    EXPECT_EQ(KeysOf(rotated), std::vector<int>(open.begin(), open.end()));
  }
}

TEST(StreamServerDeathTest, RejectsBadConfig) {
  Fixture fixture = TrainSmallModel(69);
  StreamServerConfig bad;
  bad.max_window_items = 0;
  EXPECT_DEATH(StreamServer(*fixture.model, bad), "check failed");
}

}  // namespace
}  // namespace kvec
