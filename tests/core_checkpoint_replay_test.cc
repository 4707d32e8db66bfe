// Differential-replay harness for serving-state checkpoint/restore.
//
// The only trustworthy spec for "restore worked" is byte-identical event
// streams: run a tangled stream to a cut point, snapshot, restore into a
// fresh server, feed the identical suffix to both the uninterrupted and
// the restored server, and require the two StreamEvent sequences to be
// identical — keys, labels, causes, order, observed counts, and
// bit-identical confidences (serialisation is lossless and both replicas
// run the same code on the same machine). Cut points are parameterised
// over window-rotation, idle-timeout, and capacity-eviction boundaries,
// and the whole harness runs single-shard and sharded.
//
// CI additionally replays with KVEC_REPLAY_SEED set (three-seed matrix) so
// varied stream shapes are exercised on every push; see ReplaySeedFromEnv.
#include <algorithm>
#include <cstdlib>
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

void ExpectIdenticalEvents(const std::vector<StreamEvent>& uninterrupted,
                           const std::vector<StreamEvent>& restored,
                           const std::string& context) {
  ASSERT_EQ(uninterrupted.size(), restored.size()) << context;
  for (size_t i = 0; i < uninterrupted.size(); ++i) {
    EXPECT_EQ(uninterrupted[i].key, restored[i].key) << context << " #" << i;
    EXPECT_EQ(uninterrupted[i].predicted_label, restored[i].predicted_label)
        << context << " #" << i;
    EXPECT_EQ(uninterrupted[i].cause, restored[i].cause)
        << context << " #" << i;
    EXPECT_EQ(uninterrupted[i].observed_items, restored[i].observed_items)
        << context << " #" << i;
    // Bit-identical, not merely close: restore is lossless.
    EXPECT_EQ(uninterrupted[i].confidence, restored[i].confidence)
        << context << " #" << i;
  }
}

void ExpectIdenticalStats(const StreamServerStats& a,
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

// Cut points straddling the interesting boundaries of `config`: window
// rotation (max_window_items - 1 / exactly at / + 1), the very first item,
// mid-stream, and the last possible cut.
std::vector<size_t> BoundaryCuts(const StreamServerConfig& config,
                                 size_t stream_size) {
  std::vector<size_t> cuts = {1, stream_size / 2, stream_size - 1};
  const size_t window = static_cast<size_t>(config.max_window_items);
  if (window + 1 < stream_size) {
    cuts.push_back(window - 1);
    cuts.push_back(window);
    cuts.push_back(window + 1);
  }
  const size_t idle = static_cast<size_t>(config.idle_timeout);
  if (idle + 1 < stream_size) cuts.push_back(idle + 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

// Core differential replay for one (model, config, stream, cut): snapshot
// the uninterrupted server at `cut`, restore into a fresh server, feed the
// identical suffix to both, and require identical events, stats, and flush.
void ReplayFromCut(const KvecModel& model, const StreamServerConfig& config,
                   const std::vector<Item>& stream, size_t cut,
                   const std::string& context) {
  StreamServer uninterrupted(model, config);
  for (size_t i = 0; i < cut; ++i) uninterrupted.Observe(stream[i]);

  StreamServer restored(model, config);
  ASSERT_TRUE(RestoreSnapshot(&restored, SnapshotBytes(uninterrupted)))
      << context;
  EXPECT_EQ(restored.open_keys(), uninterrupted.open_keys()) << context;
  ExpectIdenticalStats(uninterrupted.stats(), restored.stats(), context);

  std::vector<StreamEvent> expected, actual;
  for (size_t i = cut; i < stream.size(); ++i) {
    for (const StreamEvent& event : uninterrupted.Observe(stream[i])) {
      expected.push_back(event);
    }
    for (const StreamEvent& event : restored.Observe(stream[i])) {
      actual.push_back(event);
    }
  }
  for (const StreamEvent& event : uninterrupted.Flush()) {
    expected.push_back(event);
  }
  for (const StreamEvent& event : restored.Flush()) actual.push_back(event);

  ExpectIdenticalEvents(expected, actual, context);
  ExpectIdenticalStats(uninterrupted.stats(), restored.stats(), context);
}

void RunSingleShardReplay(uint64_t seed) {
  Fixture fixture = TrainSmallModel(seed);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ASSERT_GT(stream.size(), 4u);

  // Rotation-heavy bounds and tight idle/capacity bounds: both regimes
  // must survive a restart at every boundary cut.
  StreamServerConfig rotation;
  rotation.max_window_items = 37;
  rotation.idle_timeout = 1 << 20;

  StreamServerConfig evicting;
  evicting.max_window_items = 51;
  evicting.idle_timeout = 9;
  evicting.idle_check_interval = 4;
  evicting.max_open_keys = 2;

  for (const StreamServerConfig& config : {rotation, evicting}) {
    for (size_t cut : BoundaryCuts(config, stream.size())) {
      ReplayFromCut(*fixture.model, config, stream, cut,
                    "seed " + std::to_string(seed) + " window " +
                        std::to_string(config.max_window_items) + " cut " +
                        std::to_string(cut));
    }
  }
}

void RunShardedReplay(uint64_t seed, int num_shards) {
  Fixture fixture = TrainSmallModel(seed);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = num_shards;
  config.shard.max_window_items = 29;
  config.shard.idle_timeout = 11;
  config.shard.idle_check_interval = 2;
  config.shard.max_open_keys = 4;

  const std::string context =
      "seed " + std::to_string(seed) + " shards " + std::to_string(num_shards);
  for (size_t cut : {size_t{1}, stream.size() / 3, stream.size() / 2,
                     stream.size() - 1}) {
    ShardedStreamServer uninterrupted(*fixture.model, config);
    for (size_t i = 0; i < cut; ++i) uninterrupted.Observe(stream[i]);

    const std::string bytes = uninterrupted.EncodeCheckpoint();
    ShardedStreamServer restored(*fixture.model, config);
    ASSERT_TRUE(restored.RestoreCheckpoint(bytes)) << context;
    EXPECT_EQ(restored.open_keys(), uninterrupted.open_keys()) << context;

    std::vector<StreamEvent> expected, actual;
    for (size_t i = cut; i < stream.size(); ++i) {
      for (const StreamEvent& event : uninterrupted.Observe(stream[i])) {
        expected.push_back(event);
      }
      for (const StreamEvent& event : restored.Observe(stream[i])) {
        actual.push_back(event);
      }
    }
    for (const StreamEvent& event : uninterrupted.Flush()) {
      expected.push_back(event);
    }
    for (const StreamEvent& event : restored.Flush()) actual.push_back(event);

    ExpectIdenticalEvents(expected, actual,
                          context + " cut " + std::to_string(cut));
    ExpectIdenticalStats(uninterrupted.stats(), restored.stats(), context);
    for (int s = 0; s < num_shards; ++s) {
      ExpectIdenticalStats(uninterrupted.shard_stats(s),
                           restored.shard_stats(s),
                           context + " shard " + std::to_string(s));
    }
  }
}

// ---- The seed × shard-count matrix required by the acceptance criteria:
// three stream seeds, single-shard plus two sharded layouts. ----

TEST(CheckpointReplayTest, SingleShardSeed81) { RunSingleShardReplay(81); }
TEST(CheckpointReplayTest, SingleShardSeed82) { RunSingleShardReplay(82); }
TEST(CheckpointReplayTest, SingleShardSeed83) { RunSingleShardReplay(83); }

TEST(CheckpointReplayTest, ShardedTwoShards) { RunShardedReplay(81, 2); }
TEST(CheckpointReplayTest, ShardedFourShards) { RunShardedReplay(82, 4); }

// CI's seed matrix: KVEC_REPLAY_SEED varies the stream shape without a
// rebuild. Skipped when the variable is unset (the fixed-seed tests above
// already run everywhere).
TEST(CheckpointReplayTest, ReplaySeedFromEnv) {
  const char* env_seed = std::getenv("KVEC_REPLAY_SEED");
  if (env_seed == nullptr) {
    GTEST_SKIP() << "KVEC_REPLAY_SEED not set";
  }
  const uint64_t seed = std::strtoull(env_seed, nullptr, 10);
  RunSingleShardReplay(seed);
  RunShardedReplay(seed, 3);
}

// ---- Checkpoint file round trip and cross-layout guards. ----

// One shard: the CLI's `--shards 1`, and the only server that still reads
// the plain layout.
ShardedStreamServerConfig OneShard() {
  ShardedStreamServerConfig config;
  config.num_shards = 1;
  return config;
}

TEST(CheckpointReplayTest, FileRoundTripRestoresState) {
  Fixture fixture = TrainSmallModel(84);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServer server(*fixture.model, OneShard());
  for (size_t i = 0; i < stream.size() / 2; ++i) server.Observe(stream[i]);

  const std::string path =
      ::testing::TempDir() + "/kvec_stream_server.ckpt";
  ASSERT_TRUE(server.SaveCheckpoint(path));
  ShardedStreamServer restored(*fixture.model, OneShard());
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(path));
  EXPECT_EQ(restored.open_keys(), server.open_keys());
  ExpectIdenticalStats(server.stats(), restored.stats(), "file round trip");
  std::remove(path.c_str());
}

TEST(CheckpointReplayTest, ShardCountMismatchIsRejected) {
  Fixture fixture = TrainSmallModel(85);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  ShardedStreamServer server(*fixture.model, config);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  for (size_t i = 0; i < 32 && i < stream.size(); ++i) {
    server.Observe(stream[i]);
  }
  const std::string bytes = server.EncodeCheckpoint();

  ShardedStreamServerConfig wrong = config;
  wrong.num_shards = 4;  // the key hash routes by shard count
  ShardedStreamServer mismatched(*fixture.model, wrong);
  EXPECT_FALSE(mismatched.RestoreCheckpoint(bytes));
  EXPECT_EQ(mismatched.stats().items_processed, 0);
  EXPECT_EQ(mismatched.open_keys(), 0);
}

TEST(CheckpointReplayTest, SingleShardBytesRejectedByShardedServer) {
  Fixture fixture = TrainSmallModel(85);
  StreamServer server(*fixture.model, {});
  const std::string bytes = PlainCheckpoint(server);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  ShardedStreamServer sharded(*fixture.model, config);
  EXPECT_FALSE(sharded.RestoreCheckpoint(bytes));  // no manifest section
  ShardedStreamServer single(*fixture.model, {});
  EXPECT_FALSE(single.RestoreCheckpoint(bytes));
}

TEST(CheckpointReplayTest, TrailingBytesInsideSectionAreRejected) {
  // The container framing cannot see bytes hidden after a valid snapshot
  // inside a section's declared length; Restore must reject them itself —
  // before committing, so the target stays untouched.
  Fixture fixture = TrainSmallModel(86);
  StreamServer server(*fixture.model, {});
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  for (size_t i = 0; i < 16 && i < stream.size(); ++i) {
    server.Observe(stream[i]);
  }
  Checkpoint checkpoint;
  ASSERT_TRUE(CheckpointDecode(PlainCheckpoint(server), &checkpoint));
  ASSERT_EQ(checkpoint.sections.size(), 1u);
  checkpoint.sections[0].payload.append("garbage");

  ShardedStreamServer target(*fixture.model, OneShard());
  EXPECT_FALSE(target.RestoreCheckpoint(CheckpointEncode(checkpoint)));
  EXPECT_EQ(target.stats().items_processed, 0);
  EXPECT_EQ(target.open_keys(), 0);
}

TEST(CheckpointReplayTest, ModelShapeMismatchIsRejected) {
  Fixture fixture = TrainSmallModel(86);
  StreamServer server(*fixture.model, {});
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  for (size_t i = 0; i < 16 && i < stream.size(); ++i) {
    server.Observe(stream[i]);
  }
  const std::string bytes = PlainCheckpoint(server);

  KvecConfig other_config = fixture.model->config();
  other_config.embed_dim = 8;  // different encoder geometry
  KvecModel other_model(other_config);
  ShardedStreamServer mismatched(other_model, OneShard());
  EXPECT_FALSE(mismatched.RestoreCheckpoint(bytes));
  EXPECT_EQ(mismatched.stats().items_processed, 0);
}

}  // namespace
}  // namespace kvec
