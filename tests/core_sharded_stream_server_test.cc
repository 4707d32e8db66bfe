#include "core/sharded_stream_server.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "checkpoint_golden_recipe.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "stream_server_bytes.h"

namespace kvec {
namespace {

#ifndef KVEC_TEST_DATA_DIR
#define KVEC_TEST_DATA_DIR "tests/data"
#endif

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Fixture TrainSmallModel(uint64_t seed = 71) {
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

// The test episodes concatenated into one stream with globally-unique keys.
std::vector<Item> GlobalStream(const Dataset& dataset) {
  std::vector<Item> stream;
  int offset = 0;
  for (const TangledSequence& episode : dataset.test) {
    for (Item item : episode.items) {
      item.key += offset;
      stream.push_back(item);
    }
    offset += 100;
  }
  return stream;
}

// key -> (predicted_label, observed_items)
using VerdictMap = std::map<int, std::pair<int, int>>;

void Record(const std::vector<StreamEvent>& events, VerdictMap* verdicts) {
  for (const StreamEvent& event : events) {
    auto [it, inserted] = verdicts->emplace(
        event.key, std::make_pair(event.predicted_label, event.observed_items));
    ASSERT_TRUE(inserted) << "key " << event.key << " classified twice";
  }
}

TEST(ShardedStreamServerTest, MatchesOneServerPerPartition) {
  // Keys are partitioned by ShardOf, so no cross-shard correlation exists
  // that a per-partition StreamServer would not also cut: the sharded
  // server must emit identical per-key verdicts to one plain StreamServer
  // per partition fed that partition's sub-stream.
  Fixture fixture = TrainSmallModel(71);
  ShardedStreamServerConfig config;
  config.num_shards = 4;
  ShardedStreamServer sharded(*fixture.model, config);

  std::vector<std::unique_ptr<StreamServer>> partitions;
  for (int s = 0; s < config.num_shards; ++s) {
    partitions.push_back(
        std::make_unique<StreamServer>(*fixture.model, config.shard));
  }

  VerdictMap sharded_verdicts, partition_verdicts;
  for (const Item& item : GlobalStream(fixture.dataset)) {
    Record(sharded.Observe(item), &sharded_verdicts);
    Record(partitions[sharded.ShardOf(item.key)]->Observe(item),
           &partition_verdicts);
  }
  Record(sharded.Flush(), &sharded_verdicts);
  for (const auto& partition : partitions) {
    Record(partition->Flush(), &partition_verdicts);
  }

  ASSERT_FALSE(sharded_verdicts.empty());
  EXPECT_EQ(sharded_verdicts, partition_verdicts);
}

TEST(ShardedStreamServerTest, ObserveBatchMatchesPerItemObserve) {
  Fixture fixture = TrainSmallModel(72);
  ShardedStreamServerConfig config;
  config.num_shards = 4;
  ShardedStreamServer batched(*fixture.model, config);
  ShardedStreamServer per_item(*fixture.model, config);

  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  VerdictMap batched_verdicts, per_item_verdicts;
  // Uneven chunk sizes so batch boundaries fall mid-episode.
  for (size_t begin = 0; begin < stream.size();) {
    const size_t size = std::min<size_t>(1 + begin % 37,
                                         stream.size() - begin);
    std::vector<Item> batch(stream.begin() + begin,
                            stream.begin() + begin + size);
    Record(batched.ObserveBatch(batch), &batched_verdicts);
    begin += size;
  }
  for (const Item& item : stream) {
    Record(per_item.Observe(item), &per_item_verdicts);
  }
  Record(batched.Flush(), &batched_verdicts);
  Record(per_item.Flush(), &per_item_verdicts);

  ASSERT_FALSE(batched_verdicts.empty());
  EXPECT_EQ(batched_verdicts, per_item_verdicts);

  const StreamServerStats batched_stats = batched.stats();
  const StreamServerStats per_item_stats = per_item.stats();
  EXPECT_EQ(batched_stats.items_processed, per_item_stats.items_processed);
  EXPECT_EQ(batched_stats.sequences_classified,
            per_item_stats.sequences_classified);
  EXPECT_EQ(batched_stats.policy_halts, per_item_stats.policy_halts);
}

TEST(ShardedStreamServerTest, MergedStatsAddUp) {
  Fixture fixture = TrainSmallModel(73);
  ShardedStreamServerConfig config;
  config.num_shards = 3;
  ShardedStreamServer server(*fixture.model, config);

  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  server.ObserveBatch(stream);
  const int64_t flushed = static_cast<int64_t>(server.Flush().size());

  const StreamServerStats stats = server.stats();
  EXPECT_EQ(stats.items_processed, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.flush_classifications, flushed);
  EXPECT_EQ(stats.policy_halts + stats.idle_timeouts +
                stats.capacity_evictions + stats.rotation_classifications +
                stats.flush_classifications,
            stats.sequences_classified);
  int64_t by_class = 0;
  for (int64_t count : stats.class_counts) by_class += count;
  EXPECT_EQ(by_class, stats.sequences_classified);
  EXPECT_EQ(stats.windows_started, config.num_shards);  // no rotations here

  // The merged view is exactly the sum of the per-shard views, the memory
  // gauges included.
  int64_t per_shard_items = 0;
  int64_t per_shard_verdicts = 0;
  int64_t per_shard_resident = 0;
  int64_t per_shard_blocks = 0;
  int64_t per_shard_scratch = 0;
  for (int s = 0; s < server.num_shards(); ++s) {
    const StreamServerStats shard = server.shard_stats(s);
    per_shard_items += shard.items_processed;
    per_shard_verdicts += shard.sequences_classified;
    EXPECT_GT(shard.bytes_resident, 0) << "shard " << s;
    EXPECT_GT(shard.pool_blocks, 0) << "shard " << s;
    per_shard_resident += shard.bytes_resident;
    per_shard_blocks += shard.pool_blocks;
    per_shard_scratch += shard.scratch_high_water;
  }
  EXPECT_EQ(per_shard_items, stats.items_processed);
  EXPECT_EQ(per_shard_verdicts, stats.sequences_classified);
  EXPECT_EQ(per_shard_resident, stats.bytes_resident);
  EXPECT_EQ(per_shard_blocks, stats.pool_blocks);
  EXPECT_EQ(per_shard_scratch, stats.scratch_high_water);
  EXPECT_GT(stats.scratch_high_water, 0);
}

TEST(ShardedStreamServerTest, EveryKeyGetsExactlyOneVerdict) {
  Fixture fixture = TrainSmallModel(74);
  ShardedStreamServerConfig config;
  config.num_shards = 5;
  ShardedStreamServer server(*fixture.model, config);

  VerdictMap verdicts;
  Record(server.ObserveBatch(GlobalStream(fixture.dataset)), &verdicts);
  Record(server.Flush(), &verdicts);

  int expected_keys = 0;
  for (const TangledSequence& episode : fixture.dataset.test) {
    expected_keys += episode.num_keys();
  }
  EXPECT_EQ(static_cast<int>(verdicts.size()), expected_keys);
  EXPECT_EQ(server.open_keys(), 0);
  EXPECT_TRUE(server.Flush().empty());  // idempotent
}

// Every field of an event, so event sequences compare exactly.
using EventFields = std::tuple<int, int, int, double, StreamEvent::Cause>;

std::vector<EventFields> Fields(const std::vector<StreamEvent>& events) {
  std::vector<EventFields> fields;
  for (const StreamEvent& event : events) {
    fields.emplace_back(event.key, event.predicted_label,
                        event.observed_items, event.confidence, event.cause);
  }
  return fields;
}

// Every event `server` emits for `items`, then for a Flush.
template <typename Server>
std::vector<StreamEvent> ServeAndFlush(Server* server,
                                       const std::vector<Item>& items) {
  std::vector<StreamEvent> events;
  for (const Item& item : items) {
    for (const StreamEvent& event : server->Observe(item)) {
      events.push_back(event);
    }
  }
  for (const StreamEvent& event : server->Flush()) events.push_back(event);
  return events;
}

TEST(ShardedStreamServerTest, OneShardRestoresThePlainLayout) {
  // `kvec serve --save-checkpoint` once wrote the plain StreamServer
  // layout for one shard. A 1-shard server restored from such bytes serves
  // on event for event like a StreamServer restored from the same
  // snapshot; more shards reject the plain layout.
  Fixture fixture = TrainSmallModel(79);
  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  const size_t cut = stream.size() / 2;
  ShardedStreamServerConfig config;
  config.num_shards = 1;
  config.shard.max_window_items = 40;  // rotations before and after the cut
  StreamServer source(*fixture.model, config.shard);
  for (size_t i = 0; i < cut; ++i) source.Observe(stream[i]);
  const std::string bytes = PlainCheckpoint(source);

  StreamServer plain(*fixture.model, config.shard);
  ASSERT_TRUE(RestoreSnapshot(&plain, SnapshotBytes(source)));
  ShardedStreamServer sharded(*fixture.model, config);
  ASSERT_TRUE(sharded.RestoreCheckpoint(bytes));
  EXPECT_EQ(sharded.open_keys(), plain.open_keys());
  EXPECT_EQ(sharded.stats().items_submitted, plain.stats().items_processed);

  const std::vector<Item> suffix(stream.begin() + cut, stream.end());
  const std::vector<StreamEvent> want = ServeAndFlush(&plain, suffix);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(Fields(ServeAndFlush(&sharded, suffix)), Fields(want));
  EXPECT_GT(plain.stats().windows_started, 2);
  EXPECT_EQ(sharded.stats().windows_started, plain.stats().windows_started);

  config.num_shards = 2;
  ShardedStreamServer two_shards(*fixture.model, config);
  EXPECT_FALSE(two_shards.RestoreCheckpoint(bytes));
  EXPECT_EQ(two_shards.stats().items_processed, 0);
}

TEST(ShardedStreamServerTest, OneShardLoadsTheV1Golden) {
  // The committed v1 golden is a plain StreamServer file: the file loader
  // of a 1-shard server (a chain without deltas) restores it, and the
  // server serves on like a StreamServer restored from its section.
  const std::string path =
      std::string(KVEC_TEST_DATA_DIR) + "/stream_server_v1.ckpt";
  Checkpoint golden_file;
  ASSERT_TRUE(CheckpointLoad(path, &golden_file));
  const CheckpointSection* section =
      golden_file.Find(kCheckpointSectionStreamServer);
  ASSERT_NE(section, nullptr);
  KvecModel model = golden::MakeModel();
  StreamServer plain(model, golden::ServerConfig());
  ASSERT_TRUE(RestoreSnapshot(&plain, section->payload));
  ShardedStreamServerConfig config;
  config.num_shards = 1;
  config.shard = golden::ServerConfig();
  ShardedStreamServer sharded(model, config);
  ASSERT_TRUE(sharded.RestoreFromCheckpointChain(path));
  EXPECT_EQ(sharded.stats().items_processed, 120);

  std::vector<Item> suffix;
  for (int i = 120; i < 300; ++i) suffix.push_back(golden::StreamItem(i));
  const std::vector<StreamEvent> want = ServeAndFlush(&plain, suffix);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(Fields(ServeAndFlush(&sharded, suffix)), Fields(want));
}

// A restore keeps every live shard's process-local counters (the
// released-pool count, items_after_verdict, the scratch high-water), which
// no checkpoint carries, as StreamServer::Restore does: through a full
// checkpoint and through a delta chain, in sync and in worker mode.
TEST(ShardedStreamServerTest, RestoreKeepsTheLiveProcessLocalCounters) {
  Fixture fixture = TrainSmallModel(83);
  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  // One-item keys above the stream's: about 18,000 per shard, so each
  // shard's first window (12,000 keys) fills its pool past the release
  // threshold and its rotation releases the pool.
  constexpr int kWindowKeys = 12000;
  std::vector<Item> fill;
  for (int i = 0; i < 3 * kWindowKeys; ++i) {
    Item item = stream[static_cast<size_t>(i) % stream.size()];
    item.key = (1 << 20) + i;
    fill.push_back(std::move(item));
  }
  // Then eight key-shifted copies of the stream, each served twice: keys
  // halt inside the window, so the second passes serve items after their
  // verdicts on both shards.
  std::vector<Item> again;
  for (int copy = 0; copy < 8; ++copy) {
    for (int pass = 0; pass < 2; ++pass) {
      for (Item item : stream) {
        item.key += 100000 * copy;
        again.push_back(std::move(item));
      }
    }
  }
  const std::string path =
      ::testing::TempDir() + "/kvec_sharded_process_local.ckpt";
  for (int workers : {0, 2}) {
    for (bool chain : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "workers " << workers << " chain " << chain);
      ShardedStreamServerConfig config;
      config.num_shards = 2;
      config.worker_threads = workers;
      config.shard.max_window_items = kWindowKeys;
      config.shard.max_open_keys = kWindowKeys;
      config.shard.idle_timeout = 1 << 20;
      ShardedStreamServer server(*fixture.model, config);
      server.ObserveBatch(fill);
      server.ObserveBatch(again);
      std::string bytes;
      if (chain) {
        ShardedStreamServer::IncrementalCheckpointState state;
        ASSERT_TRUE(server.CheckpointIncremental(path, 0, &state));
        server.ObserveBatch(again);
        ASSERT_TRUE(server.CheckpointIncremental(path, 0, &state));
        ASSERT_EQ(state.deltas_written, 1);
      } else {
        bytes = server.EncodeCheckpoint();
      }
      std::vector<StreamServerStats> before;
      for (int s = 0; s < server.num_shards(); ++s) {
        before.push_back(server.shard_stats(s));
        EXPECT_EQ(before[s].compactions, 1) << "shard " << s;
        EXPECT_GT(before[s].items_after_verdict, 0) << "shard " << s;
        EXPECT_GT(before[s].scratch_high_water, 0) << "shard " << s;
      }
      const std::string image = server.EncodeCheckpoint();

      ASSERT_TRUE(chain ? server.RestoreFromCheckpointChain(path)
                        : server.RestoreCheckpoint(bytes));
      EXPECT_EQ(server.EncodeCheckpoint(), image);
      for (int s = 0; s < server.num_shards(); ++s) {
        const StreamServerStats after = server.shard_stats(s);
        EXPECT_EQ(after.compactions, before[s].compactions) << "shard " << s;
        EXPECT_EQ(after.items_after_verdict, before[s].items_after_verdict)
            << "shard " << s;
        EXPECT_EQ(after.scratch_high_water, before[s].scratch_high_water)
            << "shard " << s;
      }
    }
  }
  std::remove(path.c_str());
  std::remove(ShardedStreamServer::DeltaPath(path, 1).c_str());
}

TEST(ShardedStreamServerTest, SubmitDeliversEachShardsEventsOnceToTheSink) {
  // Submit's events reach the caller only through on_events. In both
  // execution modes every shard's events must arrive exactly once, under
  // the right shard index, equal to a plain StreamServer per shard fed the
  // same sub-batches through ObserveBatch. Sync mode also promises to
  // deliver on the calling thread before Submit returns.
  Fixture fixture = TrainSmallModel(78);
  const std::vector<Item> stream = GlobalStream(fixture.dataset);
  constexpr int kShards = 3;
  for (int workers : {0, kShards}) {
    SCOPED_TRACE("worker_threads " + std::to_string(workers));
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::vector<std::vector<StreamEvent>> delivered(kShards);
    std::vector<int> deliveries(kShards, 0);
    bool off_caller_thread = false;

    ShardedStreamServerConfig config;
    config.num_shards = kShards;
    config.worker_threads = workers;
    config.on_events = [&](int shard, const std::vector<StreamEvent>& events) {
      std::lock_guard<std::mutex> lock(mutex);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, kShards);
      if (std::this_thread::get_id() != caller) off_caller_thread = true;
      ++deliveries[shard];
      delivered[shard].insert(delivered[shard].end(), events.begin(),
                              events.end());
    };
    ShardedStreamServer server(*fixture.model, config);

    std::vector<std::unique_ptr<StreamServer>> reference;
    for (int s = 0; s < kShards; ++s) {
      reference.push_back(
          std::make_unique<StreamServer>(*fixture.model, config.shard));
    }
    std::vector<std::vector<StreamEvent>> expected(kShards);
    std::vector<int> expected_deliveries(kShards, 0);
    // Uneven batch sizes so batch boundaries fall mid-episode.
    for (size_t begin = 0; begin < stream.size();) {
      const size_t size =
          std::min<size_t>(1 + begin % 29, stream.size() - begin);
      const std::vector<Item> batch(stream.begin() + begin,
                                    stream.begin() + begin + size);
      begin += size;
      EXPECT_EQ(server.Submit(batch), 0);
      std::vector<std::vector<Item>> routed(kShards);
      for (const Item& item : batch) {
        routed[server.ShardOf(item.key)].push_back(item);
      }
      for (int s = 0; s < kShards; ++s) {
        if (routed[s].empty()) continue;
        const std::vector<StreamEvent> events =
            reference[s]->ObserveBatch(routed[s]);
        expected[s].insert(expected[s].end(), events.begin(), events.end());
        ++expected_deliveries[s];
      }
      if (workers == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_EQ(deliveries, expected_deliveries);
      }
    }
    server.Drain();
    // Flush hands its events to the caller, never to the sink.
    EXPECT_FALSE(server.Flush().empty());

    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(deliveries, expected_deliveries);
    EXPECT_EQ(off_caller_thread, workers > 0);
    size_t total = 0;
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(Fields(delivered[s]), Fields(expected[s])) << "shard " << s;
      for (const StreamEvent& event : delivered[s]) {
        EXPECT_EQ(server.ShardOf(event.key), s);
      }
      total += delivered[s].size();
    }
    EXPECT_GT(total, 0u);
  }
}

TEST(ShardedStreamServerTest, PerShardCapacityCapHolds) {
  Fixture fixture = TrainSmallModel(75);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.shard.max_open_keys = 4;
  config.shard.idle_timeout = 1 << 20;
  ShardedStreamServer server(*fixture.model, config);

  Item base = fixture.dataset.test[0].items[0];
  for (int key = 0; key < 100; ++key) {
    Item item = base;
    item.key = key;
    item.time = key;
    server.Observe(item);
    EXPECT_LE(server.open_keys(),
              config.num_shards * config.shard.max_open_keys);
  }
  EXPECT_GE(server.stats().capacity_evictions, 1);
}

TEST(ShardedStreamServerTest, ShardOfIsStableAndInRange) {
  Fixture fixture = TrainSmallModel(76);
  ShardedStreamServerConfig config;
  config.num_shards = 8;
  ShardedStreamServer server(*fixture.model, config);
  for (int key = -5; key < 1000; ++key) {
    const int shard = server.ShardOf(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, config.num_shards);
    EXPECT_EQ(shard, server.ShardOf(key));
  }
}

TEST(ShardedStreamServerDeathTest, RejectsBadShardCount) {
  Fixture fixture = TrainSmallModel(77);
  ShardedStreamServerConfig bad;
  bad.num_shards = 0;
  EXPECT_DEATH(ShardedStreamServer(*fixture.model, bad), "check failed");
}

}  // namespace
}  // namespace kvec
