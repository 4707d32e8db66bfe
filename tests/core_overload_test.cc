// Overload behavior of the shard-owned-worker serving mode.
//
// The contract under test is the overload invariant: after Drain(),
//
//   items_submitted == items_processed + items_shed
//
// for every overload policy, queue depth, and shard count — including with
// fault-injected worker stalls. Overload may slow serving or (under a shed
// policy) drop counted batches; it must never lose items silently, deadlock,
// or corrupt serving state. Checkpoints taken from a worker-mode server must
// restore into a differential-replay-identical server with re-baselined
// transport counters.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "util/fault_injection.h"

namespace kvec {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Fixture TrainSmallModel(uint64_t seed = 137) {
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

// The fixture is expensive to train; every test reads it, none mutates it.
const Fixture& SharedFixture() {
  static const Fixture fixture = TrainSmallModel();
  return fixture;
}

// The test episodes as one stream, replicated `rounds` times with fresh
// global keys each round so the offered load is large while every key's
// sub-sequence stays realistic.
std::vector<Item> OfferedStream(const Dataset& dataset, int rounds) {
  std::vector<Item> stream;
  int offset = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const TangledSequence& episode : dataset.test) {
      for (Item item : episode.items) {
        item.key += offset;
        stream.push_back(std::move(item));
      }
      offset += 100;
    }
  }
  return stream;
}

// Splits `stream` into batches of `batch` items.
std::vector<std::vector<Item>> Batches(const std::vector<Item>& stream,
                                       int batch) {
  std::vector<std::vector<Item>> batches;
  for (size_t begin = 0; begin < stream.size();
       begin += static_cast<size_t>(batch)) {
    size_t end = std::min(stream.size(), begin + static_cast<size_t>(batch));
    batches.emplace_back(stream.begin() + begin, stream.begin() + end);
  }
  return batches;
}

class OverloadTest : public ::testing::Test {
 protected:
  // Fault hooks must never leak into the next test.
  void TearDown() override { FaultInjection::DisarmAll(); }
};

TEST_F(OverloadTest, InvariantHoldsAcrossPoliciesDepthsAndShardCounts) {
  const Fixture& fixture = SharedFixture();
  const std::vector<Item> stream = OfferedStream(fixture.dataset, 3);
  const std::vector<std::vector<Item>> batches = Batches(stream, 8);
  const int64_t offered = static_cast<int64_t>(stream.size());

  const OverloadPolicy policies[] = {OverloadPolicy::kBlock,
                                     OverloadPolicy::kShedNewest,
                                     OverloadPolicy::kShedOldest};
  const int depths[] = {1, 16, 1024};
  // {num_shards, worker_threads}: shard-owned workers, then the sync
  // executor, where the two producers race through the shard mutexes.
  const std::pair<int, int> shard_configs[] = {{1, 1}, {2, 2}, {8, 8},
                                               {1, 0}, {2, 0}, {8, 0}};
  for (OverloadPolicy policy : policies) {
    for (int depth : depths) {
      for (const auto& [num_shards, worker_threads] : shard_configs) {
        SCOPED_TRACE(std::string(OverloadPolicyName(policy)) + " depth " +
                     std::to_string(depth) + " shards " +
                     std::to_string(num_shards) + " workers " +
                     std::to_string(worker_threads));
        ShardedStreamServerConfig config;
        config.num_shards = num_shards;
        config.worker_threads = worker_threads;
        config.queue_depth = depth;
        config.overload_policy = policy;
        ShardedStreamServer server(*fixture.model, config);

        // Two producers racing into the same shard queues.
        std::vector<std::thread> producers;
        for (int p = 0; p < 2; ++p) {
          producers.emplace_back([&server, &batches, p]() {
            for (size_t i = static_cast<size_t>(p); i < batches.size();
                 i += 2) {
              server.Submit(batches[i]);
            }
          });
        }
        for (std::thread& producer : producers) producer.join();
        server.Drain();

        const StreamServerStats stats = server.stats();
        EXPECT_EQ(stats.items_submitted, offered);
        EXPECT_EQ(stats.items_submitted,
                  stats.items_processed + stats.items_shed);
        if (policy == OverloadPolicy::kBlock) {
          // Backpressure never sheds.
          EXPECT_EQ(stats.items_shed, 0);
          EXPECT_EQ(stats.batches_shed, 0);
          EXPECT_EQ(stats.items_processed, offered);
        }
        // The invariant also holds shard by shard.
        int64_t submitted = 0, processed = 0, shed = 0;
        for (int s = 0; s < server.num_shards(); ++s) {
          const StreamServerStats shard = server.shard_stats(s);
          EXPECT_EQ(shard.items_submitted,
                    shard.items_processed + shard.items_shed);
          submitted += shard.items_submitted;
          processed += shard.items_processed;
          shed += shard.items_shed;
        }
        EXPECT_EQ(submitted, stats.items_submitted);
        EXPECT_EQ(processed, stats.items_processed);
        EXPECT_EQ(shed, stats.items_shed);
      }
    }
  }
}

TEST_F(OverloadTest, StalledWorkerShedsWithoutDeadlockOrLoss) {
  // Deterministic saturation: the single worker stalls on its first batch
  // until everything has been offered, so with depth 1 and kShedNewest all
  // but the in-flight and queued batches must shed — and be counted.
  const Fixture& fixture = SharedFixture();
  const std::vector<Item> stream = OfferedStream(fixture.dataset, 2);
  const std::vector<std::vector<Item>> batches = Batches(stream, 8);
  ASSERT_GT(batches.size(), 2u);

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> stalled_once{false};
  FaultInjection::Arm("shard_worker.batch", [&](const char*) {
    if (!stalled_once.exchange(true)) released.wait();
    return false;
  });

  ShardedStreamServerConfig config;
  config.num_shards = 1;
  config.worker_threads = 1;
  config.queue_depth = 1;
  config.overload_policy = OverloadPolicy::kShedNewest;
  ShardedStreamServer server(*fixture.model, config);

  for (const std::vector<Item>& batch : batches) server.Submit(batch);
  // The queue is non-empty, so the worker reaches the stall point soon even
  // if it was never scheduled while we were submitting.
  while (!stalled_once.load()) std::this_thread::yield();
  release.set_value();
  server.Drain();

  const StreamServerStats stats = server.stats();
  EXPECT_EQ(stats.items_submitted, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.items_submitted, stats.items_processed + stats.items_shed);
  // Only the stalled in-flight batch plus one queued batch could survive.
  EXPECT_GT(stats.items_shed, 0);
  EXPECT_GT(stats.items_processed, 0);
  EXPECT_GE(FaultInjection::FireCount("shard_worker.batch"), 1);
}

TEST_F(OverloadTest, StallWithBackpressureDelaysButProcessesEverything) {
  // Same stall, kBlock policy: producers wait out the stall instead of
  // shedding, and every offered item is eventually processed.
  const Fixture& fixture = SharedFixture();
  const std::vector<Item> stream = OfferedStream(fixture.dataset, 1);
  const std::vector<std::vector<Item>> batches = Batches(stream, 8);

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> stalled_once{false};
  FaultInjection::Arm("shard_worker.batch", [&](const char*) {
    if (!stalled_once.exchange(true)) released.wait();
    return false;
  });

  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.worker_threads = 2;
  config.queue_depth = 2;
  config.overload_policy = OverloadPolicy::kBlock;
  ShardedStreamServer server(*fixture.model, config);

  std::thread producer([&]() {
    for (const std::vector<Item>& batch : batches) server.Submit(batch);
  });
  // Unblock the stalled worker once it has stalled (the producer may be
  // blocked on that shard's full queue until then).
  while (!stalled_once.load()) std::this_thread::yield();
  release.set_value();
  producer.join();
  server.Drain();

  const StreamServerStats stats = server.stats();
  EXPECT_EQ(stats.items_submitted, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.items_processed, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.items_shed, 0);
  EXPECT_EQ(stats.batches_shed, 0);
}

TEST_F(OverloadTest, CheckpointAfterOverloadRestoresReplayIdentically) {
  // Quiesce (Drain) -> checkpoint -> restore into a fresh worker-mode
  // server. The restored server must (a) re-baseline transport counters so
  // the invariant keeps holding, and (b) be differential-replay identical:
  // the same follow-up stream produces the same verdict events.
  const Fixture& fixture = SharedFixture();
  const std::vector<Item> warmup = OfferedStream(fixture.dataset, 2);
  const std::vector<std::vector<Item>> batches = Batches(warmup, 8);

  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.worker_threads = 2;
  config.queue_depth = 1;
  config.overload_policy = OverloadPolicy::kShedOldest;
  ShardedStreamServer original(*fixture.model, config);
  for (const std::vector<Item>& batch : batches) original.Submit(batch);
  original.Drain();
  const StreamServerStats before = original.stats();
  EXPECT_EQ(before.items_submitted,
            before.items_processed + before.items_shed);

  const std::string bytes = original.EncodeCheckpoint();
  ShardedStreamServer restored(*fixture.model, config);
  ASSERT_TRUE(restored.RestoreCheckpoint(bytes));

  // Transport counters re-baseline: submitted == processed, shed zeroed.
  const StreamServerStats after = restored.stats();
  EXPECT_EQ(after.items_processed, before.items_processed);
  EXPECT_EQ(after.items_submitted, after.items_processed);
  EXPECT_EQ(after.items_shed, 0);
  EXPECT_EQ(after.batches_shed, 0);
  EXPECT_EQ(restored.open_keys(), original.open_keys());

  // Differential replay through the deterministic control path: byte-equal
  // state must produce identical event streams.
  const std::vector<Item> followup = OfferedStream(fixture.dataset, 1);
  const std::vector<StreamEvent> original_events =
      original.ObserveBatch(followup);
  const std::vector<StreamEvent> restored_events =
      restored.ObserveBatch(followup);
  ASSERT_EQ(original_events.size(), restored_events.size());
  for (size_t i = 0; i < original_events.size(); ++i) {
    EXPECT_EQ(original_events[i].key, restored_events[i].key);
    EXPECT_EQ(original_events[i].predicted_label,
              restored_events[i].predicted_label);
    EXPECT_EQ(original_events[i].observed_items,
              restored_events[i].observed_items);
    EXPECT_EQ(original_events[i].cause, restored_events[i].cause);
  }
  const std::vector<StreamEvent> original_flush = original.Flush();
  const std::vector<StreamEvent> restored_flush = restored.Flush();
  ASSERT_EQ(original_flush.size(), restored_flush.size());
  for (size_t i = 0; i < original_flush.size(); ++i) {
    EXPECT_EQ(original_flush[i].key, restored_flush[i].key);
    EXPECT_EQ(original_flush[i].predicted_label,
              restored_flush[i].predicted_label);
  }
}

TEST_F(OverloadTest, CheckpointSaveFailureLeavesTheServerServing) {
  const Fixture& fixture = SharedFixture();
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.worker_threads = 2;
  ShardedStreamServer server(*fixture.model, config);
  const std::vector<Item> stream = OfferedStream(fixture.dataset, 1);
  server.Submit(stream);
  server.Drain();
  const StreamServerStats before = server.stats();

  const std::string path =
      (std::filesystem::temp_directory_path() / "kvec_overload_ckpt.bin")
          .string();
  std::filesystem::remove(path);
  FaultInjection::Arm("checkpoint.save",
                      [](const char*) { return true; });  // inject failure
  EXPECT_FALSE(server.SaveCheckpoint(path));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(FaultInjection::FireCount("checkpoint.save"), 1);
  FaultInjection::Disarm("checkpoint.save");

  // The failed save must not have disturbed serving state: stats are
  // unchanged and a retry succeeds.
  const StreamServerStats after = server.stats();
  EXPECT_EQ(after.items_processed, before.items_processed);
  EXPECT_EQ(after.sequences_classified, before.sequences_classified);
  EXPECT_TRUE(server.SaveCheckpoint(path));
  ShardedStreamServer reloaded(*fixture.model, config);
  EXPECT_TRUE(reloaded.RestoreFromCheckpointChain(path));
  EXPECT_EQ(reloaded.stats().items_processed, before.items_processed);
  std::filesystem::remove(path);
}

TEST_F(OverloadTest, QueuePushDelayPointWidensTheRaceWindow) {
  // Arm the producer-side delay point with a tiny sleep: the invariant must
  // be interleaving-independent.
  const Fixture& fixture = SharedFixture();
  FaultInjection::Arm("bounded_queue.push", [](const char*) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return false;
  });
  const std::vector<Item> stream = OfferedStream(fixture.dataset, 1);
  const std::vector<std::vector<Item>> batches = Batches(stream, 8);

  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.worker_threads = 2;
  config.queue_depth = 1;
  config.overload_policy = OverloadPolicy::kShedNewest;
  ShardedStreamServer server(*fixture.model, config);
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&server, &batches, p]() {
      for (size_t i = static_cast<size_t>(p); i < batches.size(); i += 2) {
        server.Submit(batches[i]);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  server.Drain();
  EXPECT_GT(FaultInjection::FireCount("bounded_queue.push"), 0);

  const StreamServerStats stats = server.stats();
  EXPECT_EQ(stats.items_submitted, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.items_submitted, stats.items_processed + stats.items_shed);
}

TEST_F(OverloadTest, ControlTaskUnderOverloadShedsCountedAndCompletes) {
  // A control task (here Flush) queues on the owning worker like a batch,
  // so a stalled worker holds it too: while the worker is held inside a
  // batch, its depth-1 queue saturates and the shed policy must count
  // every drop — and the control task itself must complete and leave a
  // serving, invariant-clean shard.
  const Fixture& fixture = SharedFixture();
  const std::vector<Item> stream = OfferedStream(fixture.dataset, 2);
  const std::vector<std::vector<Item>> batches = Batches(stream, 8);
  ASSERT_GT(batches.size(), 2u);

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> stalled_once{false};
  FaultInjection::Arm("shard_worker.batch", [&](const char*) {
    if (!stalled_once.exchange(true)) released.wait();
    return false;
  });

  ShardedStreamServerConfig config;
  config.num_shards = 1;
  config.worker_threads = 1;
  config.queue_depth = 1;
  config.overload_policy = OverloadPolicy::kShedNewest;
  ShardedStreamServer server(*fixture.model, config);
  server.Submit(batches[0]);
  while (!stalled_once.load()) std::this_thread::yield();

  // Flush blocks until the shard ran it, so it needs its own thread; the
  // producer below saturates the queue while the worker is stalled.
  size_t flushed = 0;
  std::thread flusher(
      [&server, &flushed]() { flushed = server.Flush().size(); });
  for (const std::vector<Item>& batch : batches) server.Submit(batch);
  release.set_value();
  flusher.join();
  server.Drain();

  const StreamServerStats stats = server.stats();
  EXPECT_EQ(stats.flush_classifications, static_cast<int64_t>(flushed));
  EXPECT_EQ(stats.items_submitted,
            static_cast<int64_t>(stream.size() + batches[0].size()));
  EXPECT_EQ(stats.items_submitted, stats.items_processed + stats.items_shed);
  EXPECT_GT(stats.items_shed, 0);  // the stall really saturated the queue

  // The shard still serves after the control-task-under-pressure episode.
  const int64_t processed_before = stats.items_processed;
  server.Submit(batches[0]);
  server.Drain();
  EXPECT_GT(server.stats().items_processed, processed_before);
}

}  // namespace
}  // namespace kvec
