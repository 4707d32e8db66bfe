// Compaction correctness: rebuilding a shard's pool-backed state must be
// invisible in every observable channel.
//
// The contract (docs/SERVING.md "Memory management") has two halves:
//  * differential-replay identity — a server that compacts mid-stream
//    emits the bit-identical StreamEvent sequence (keys, labels, causes,
//    order, confidences) of a server that never compacts, for the same
//    stream;
//  * checkpoint byte-identity — the server's Snapshot bytes are identical
//    immediately before and after a compaction, and a compacting
//    server's snapshot equals a never-compacting twin's at the same
//    stream position.
// Both are exercised with compactions *forced* at exact stream positions
// (including rotation/idle/capacity boundaries), not left to the
// heuristic; the `compaction.run` fault point covers the suppression path
// and the heuristic has its own trigger test.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "stream_server_bytes.h"
#include "util/fault_injection.h"

namespace kvec {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Fixture TrainSmallModel(uint64_t seed) {
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

std::vector<Item> ConcatStream(const Dataset& dataset) {
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

void ExpectIdenticalEvents(const std::vector<StreamEvent>& baseline,
                           const std::vector<StreamEvent>& compacted,
                           const std::string& context) {
  ASSERT_EQ(baseline.size(), compacted.size()) << context;
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].key, compacted[i].key) << context << " #" << i;
    EXPECT_EQ(baseline[i].predicted_label, compacted[i].predicted_label)
        << context << " #" << i;
    EXPECT_EQ(baseline[i].cause, compacted[i].cause) << context << " #" << i;
    EXPECT_EQ(baseline[i].observed_items, compacted[i].observed_items)
        << context << " #" << i;
    // Bit-identical: compaction moves state, it never recomputes it.
    EXPECT_EQ(baseline[i].confidence, compacted[i].confidence)
        << context << " #" << i;
  }
}

// Serving counters only: the memory gauges and the compaction counter are
// *expected* to differ between the twins.
void ExpectIdenticalServingStats(const StreamServerStats& a,
                                 const StreamServerStats& b,
                                 const std::string& context) {
  EXPECT_EQ(a.items_processed, b.items_processed) << context;
  EXPECT_EQ(a.sequences_classified, b.sequences_classified) << context;
  EXPECT_EQ(a.policy_halts, b.policy_halts) << context;
  EXPECT_EQ(a.idle_timeouts, b.idle_timeouts) << context;
  EXPECT_EQ(a.capacity_evictions, b.capacity_evictions) << context;
  EXPECT_EQ(a.rotation_classifications, b.rotation_classifications) << context;
  EXPECT_EQ(a.flush_classifications, b.flush_classifications) << context;
  EXPECT_EQ(a.windows_started, b.windows_started) << context;
  EXPECT_EQ(a.class_counts, b.class_counts) << context;
}

// The two bound regimes of the replay harness: rotation-heavy, and tight
// idle/capacity eviction. Compaction must be invisible under both.
std::vector<StreamServerConfig> Regimes() {
  StreamServerConfig rotation;
  rotation.max_window_items = 37;
  rotation.idle_timeout = 1 << 20;

  StreamServerConfig evicting;
  evicting.max_window_items = 51;
  evicting.idle_timeout = 9;
  evicting.idle_check_interval = 4;
  evicting.max_open_keys = 2;

  // The heuristic stays out of the way in both: compactions in these
  // tests run exactly where the test forces them.
  rotation.compaction_check_interval = 0;
  evicting.compaction_check_interval = 0;
  return {rotation, evicting};
}

TEST(CompactionTest, EventStreamIdenticalUnderForcedCompaction) {
  Fixture fixture = TrainSmallModel(81);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ASSERT_GT(stream.size(), 64u);

  for (const StreamServerConfig& config : Regimes()) {
    const std::string context =
        "window " + std::to_string(config.max_window_items);
    StreamServer baseline(*fixture.model, config);
    StreamServer compacting(*fixture.model, config);

    std::vector<StreamEvent> expected, actual;
    for (size_t i = 0; i < stream.size(); ++i) {
      for (const StreamEvent& event : baseline.Observe(stream[i])) {
        expected.push_back(event);
      }
      for (const StreamEvent& event : compacting.Observe(stream[i])) {
        actual.push_back(event);
      }
      // Prime-strided forced compactions sweep across rotation, idle, and
      // capacity boundaries as the stream advances.
      if (i % 17 == 0) {
        ASSERT_TRUE(compacting.Compact()) << context;
      }
    }
    for (const StreamEvent& event : baseline.Flush()) {
      expected.push_back(event);
    }
    for (const StreamEvent& event : compacting.Flush()) {
      actual.push_back(event);
    }

    ExpectIdenticalEvents(expected, actual, context);
    ExpectIdenticalServingStats(baseline.stats(), compacting.stats(), context);
    EXPECT_GT(compacting.stats().compactions, 0) << context;
    EXPECT_EQ(baseline.stats().compactions, 0) << context;
  }
}

TEST(CompactionTest, CheckpointBytesIdenticalAcrossCompaction) {
  Fixture fixture = TrainSmallModel(82);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);

  for (const StreamServerConfig& config : Regimes()) {
    StreamServer baseline(*fixture.model, config);
    StreamServer compacting(*fixture.model, config);
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      baseline.Observe(stream[i]);
      compacting.Observe(stream[i]);
      if (i % 23 == 0) {
        ASSERT_TRUE(compacting.Compact());
      }
    }

    // Before/after around one more compaction on the same server...
    const std::string before = SnapshotBytes(compacting);
    ASSERT_TRUE(compacting.Compact());
    const std::string after = SnapshotBytes(compacting);
    EXPECT_EQ(before, after);
    // ...and against the never-compacted twin at the same position.
    EXPECT_EQ(SnapshotBytes(baseline), after);
  }
}

TEST(CompactionTest, ReplayFromCompactedCheckpointIsIdentical) {
  Fixture fixture = TrainSmallModel(83);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  const StreamServerConfig config = Regimes()[1];  // evicting regime
  const size_t cut = stream.size() / 2;

  StreamServer uninterrupted(*fixture.model, config);
  for (size_t i = 0; i < cut; ++i) {
    uninterrupted.Observe(stream[i]);
    if (i % 13 == 0) {
      ASSERT_TRUE(uninterrupted.Compact());
    }
  }

  const std::string bytes = SnapshotBytes(uninterrupted);
  StreamServer restored(*fixture.model, config);
  ASSERT_TRUE(RestoreSnapshot(&restored, bytes));
  EXPECT_EQ(restored.open_keys(), uninterrupted.open_keys());

  // The suffix compacts at *different* positions on each replica; the
  // event streams must not notice.
  std::vector<StreamEvent> expected, actual;
  for (size_t i = cut; i < stream.size(); ++i) {
    for (const StreamEvent& event : uninterrupted.Observe(stream[i])) {
      expected.push_back(event);
    }
    for (const StreamEvent& event : restored.Observe(stream[i])) {
      actual.push_back(event);
    }
    if (i % 19 == 0) {
      ASSERT_TRUE(uninterrupted.Compact());
    }
    if (i % 7 == 0) {
      ASSERT_TRUE(restored.Compact());
    }
  }
  for (const StreamEvent& event : uninterrupted.Flush()) {
    expected.push_back(event);
  }
  for (const StreamEvent& event : restored.Flush()) actual.push_back(event);

  ExpectIdenticalEvents(expected, actual, "compacted replay");
  ExpectIdenticalServingStats(uninterrupted.stats(), restored.stats(),
                              "compacted replay");
}

TEST(CompactionTest, RestorePreservesCompactionKnobsAndCounter) {
  Fixture fixture = TrainSmallModel(84);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);

  StreamServerConfig config;
  config.compaction_check_interval = 0;
  StreamServer source(*fixture.model, config);
  for (size_t i = 0; i < 32 && i < stream.size(); ++i) {
    source.Observe(stream[i]);
  }
  const std::string bytes = SnapshotBytes(source);

  // The target runs different (process-local) knobs and has compacted;
  // restoring serving state must clobber neither.
  StreamServerConfig target_config;
  target_config.compaction_check_interval = 7;
  target_config.compaction_fragmentation_threshold = 3.5;
  target_config.compaction_min_bytes = 123;
  StreamServer target(*fixture.model, target_config);
  ASSERT_TRUE(target.Compact());
  ASSERT_EQ(target.stats().compactions, 1);
  ASSERT_TRUE(RestoreSnapshot(&target, bytes));
  EXPECT_EQ(target.stats().compactions, 1);
  EXPECT_EQ(target.stats().items_processed, source.stats().items_processed);
}

TEST(CompactionTest, FaultPointSuppressesTheRun) {
  Fixture fixture = TrainSmallModel(84);
  StreamServer server(*fixture.model, {});
  FaultInjection::Arm("compaction.run", [](const char*) { return true; });
  EXPECT_FALSE(server.Compact());
  EXPECT_EQ(server.stats().compactions, 0);
  EXPECT_EQ(FaultInjection::FireCount("compaction.run"), 1);
  FaultInjection::DisarmAll();
  EXPECT_TRUE(server.Compact());
  EXPECT_EQ(server.stats().compactions, 1);
}

TEST(CompactionTest, HeuristicTriggersAndMetersCompaction) {
  Fixture fixture = TrainSmallModel(85);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);

  StreamServerConfig config;
  // Trip the heuristic as early as possible: check every 8 items, any
  // nonzero residency qualifies, and resident/live >= 1 always holds.
  config.compaction_check_interval = 8;
  config.compaction_fragmentation_threshold = 1.0;
  config.compaction_min_bytes = 1;
  StreamServer server(*fixture.model, config);
  for (size_t i = 0; i < 64 && i < stream.size(); ++i) {
    server.Observe(stream[i]);
  }
  const StreamServerStats& stats = server.stats();
  EXPECT_GT(stats.compactions, 0);
  EXPECT_GT(stats.bytes_resident, 0);
  EXPECT_GT(stats.pool_blocks, 0);
}

TEST(CompactionTest, ShardedCompactAllRunsEveryShardAndMergesGauges) {
  Fixture fixture = TrainSmallModel(86);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);

  for (int workers : {0, 2}) {
    ShardedStreamServerConfig config;
    config.num_shards = 2;
    config.worker_threads = workers;
    config.shard.compaction_check_interval = 0;
    ShardedStreamServer sharded(*fixture.model, config);
    StreamServer reference(*fixture.model, config.shard);

    std::vector<StreamEvent> expected, actual;
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      for (const StreamEvent& event : sharded.Observe(stream[i])) {
        actual.push_back(event);
      }
      if (i % 11 == 0) {
        EXPECT_EQ(sharded.CompactAll(), 2);
      }
    }
    const StreamServerStats merged = sharded.stats();
    EXPECT_GT(merged.compactions, 0);
    EXPECT_GT(merged.bytes_resident, 0);
    EXPECT_GT(merged.pool_blocks, 0);

    // Per-shard identity against standalone servers fed each sub-stream:
    // compaction must not leak across the shard boundary.
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      if (sharded.ShardOf(stream[i].key) != 0) continue;
      for (const StreamEvent& event : reference.Observe(stream[i])) {
        expected.push_back(event);
      }
    }
    std::vector<StreamEvent> shard0;
    for (const StreamEvent& event : actual) {
      if (sharded.ShardOf(event.key) == 0) shard0.push_back(event);
    }
    ExpectIdenticalEvents(expected, shard0,
                          "workers " + std::to_string(workers));
  }
}

}  // namespace
}  // namespace kvec
