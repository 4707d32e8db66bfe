// Batched-vs-sequential equivalence of the streaming inference pipeline:
//  * IncrementalEncoder::AppendBatch vs AppendItem (bit-identical rows),
//  * OnlineClassifier::ObserveBatch vs Observe (decision-for-decision),
//  * StreamServer::ObserveBatch vs Observe on tangled streams that span
//    window-rotation, idle-timeout, and capacity-eviction boundaries
//    (identical StreamEvent sequences: keys, labels, causes, order),
//  * ShardedStreamServer::ObserveBatch vs per-item Observe,
//  * AppendBatch with a row mask vs without (needed rows and K/V cache
//    bit-identical), and a server whose keys halt early, where the engine
//    skips the rows of halted keys, across batch sizes (identical events
//    and checkpoint bytes).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "stream_server_bytes.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace kvec {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Dataset SmallTrafficDataset(uint64_t seed) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 2;
  generator_config.concurrency = 3;
  generator_config.avg_flow_length = 12.0;
  generator_config.min_flow_length = 6;
  generator_config.handshake_sharpness = 6.0;
  TrafficGenerator generator(generator_config);
  return GenerateDataset(generator, {12, 2, 6}, seed);
}

Fixture TrainSmallModel(uint64_t seed, int num_heads = 1) {
  Fixture fixture;
  fixture.dataset = SmallTrafficDataset(seed);
  KvecConfig config = KvecConfig::ForSpec(fixture.dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 16;
  config.num_blocks = 2;
  config.num_heads = num_heads;
  config.ffn_hidden_dim = 16;
  config.epochs = 3;
  config.beta = 5e-3f;
  fixture.model = std::make_unique<KvecModel>(config);
  KvecTrainer trainer(fixture.model.get());
  trainer.Train(fixture.dataset.train);
  return fixture;
}

// An untrained model over `spec`: bit-identity between two encoder paths
// holds for any weights, so the mask tests need no training.
std::unique_ptr<KvecModel> UntrainedModel(const DatasetSpec& spec,
                                          int num_blocks, int num_heads) {
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 12;
  config.state_dim = 16;
  config.num_blocks = num_blocks;
  config.num_heads = num_heads;
  config.ffn_hidden_dim = 16;
  return std::make_unique<KvecModel>(config);
}

std::string EncoderSnapshot(const IncrementalEncoder& encoder) {
  BinaryWriter writer;
  encoder.Snapshot(&writer);
  return writer.buffer();
}

uint32_t FloatBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Concatenates every test episode into one long tangled stream with
// non-colliding keys.
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

void ExpectSameEvents(const std::vector<StreamEvent>& sequential,
                      const std::vector<StreamEvent>& batched) {
  ASSERT_EQ(sequential.size(), batched.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].key, batched[i].key) << "event " << i;
    EXPECT_EQ(sequential[i].predicted_label, batched[i].predicted_label)
        << "event " << i;
    EXPECT_EQ(sequential[i].cause, batched[i].cause) << "event " << i;
    EXPECT_EQ(sequential[i].observed_items, batched[i].observed_items)
        << "event " << i;
    EXPECT_EQ(sequential[i].confidence, batched[i].confidence)
        << "event " << i;
  }
}

TEST(BatchEquivalenceTest, AppendBatchMatchesAppendItem) {
  for (int num_heads : {1, 3}) {
    Fixture fixture = TrainSmallModel(71, num_heads);
    const KvrlEncoder& encoder = fixture.model->encoder();
    const int d = fixture.model->config().embed_dim;
    const TangledSequence& episode = fixture.dataset.test[0];
    EpisodeIndex index = EpisodeIndex::Build(episode);

    // Sequential reference.
    IncrementalEncoder sequential(encoder);
    CorrelationTracker seq_tracker(fixture.model->config().correlation);
    std::vector<std::vector<float>> expected;
    for (size_t t = 0; t < episode.items.size(); ++t) {
      expected.push_back(sequential.AppendItem(
          episode.items[t], index.position_in_key[t],
          seq_tracker.ObserveItem(episode.items[t])));
    }

    // Batched path, mixed batch sizes (1 exercises the degenerate batch).
    IncrementalEncoder batched(encoder);
    CorrelationTracker batch_tracker(fixture.model->config().correlation);
    const int total = static_cast<int>(episode.items.size());
    const int sizes[] = {1, 2, 3, 5, 8, 13};
    int size_index = 0;
    int begin = 0;
    while (begin < total) {
      const int batch =
          std::min(sizes[size_index++ % 6], total - begin);
      std::vector<int> positions(batch);
      std::vector<std::vector<int>> visibles(batch);
      for (int i = 0; i < batch; ++i) {
        visibles[i] = batch_tracker.ObserveItem(episode.items[begin + i]);
        positions[i] = index.position_in_key[begin + i];
      }
      std::vector<float> rows;
      batched.AppendBatch(episode.items.data() + begin, positions.data(),
                          visibles.data(), batch, &rows);
      ASSERT_EQ(rows.size(), static_cast<size_t>(batch) * d);
      for (int i = 0; i < batch; ++i) {
        for (int c = 0; c < d; ++c) {
          ASSERT_EQ(FloatBits(rows[static_cast<size_t>(i) * d + c]),
                    FloatBits(expected[begin + i][c]))
              << "heads " << num_heads << " item " << begin + i << " col "
              << c;
        }
      }
      begin += batch;
    }
    EXPECT_EQ(batched.num_items(), sequential.num_items());
  }
}

TEST(BatchEquivalenceTest, MaskedAppendBatchKeepsNeededRowsAndCache) {
  const Dataset dataset = SmallTrafficDataset(76);
  std::vector<Item> stream = ConcatStream(dataset);
  stream.resize(std::min<size_t>(stream.size(), 400));
  const int total = static_cast<int>(stream.size());
  enum class Mask { kAll, kNone, kAlternating, kRandom };
  for (int num_blocks : {1, 2}) {
    for (int num_heads : {1, 2}) {
      std::unique_ptr<KvecModel> model =
          UntrainedModel(dataset.spec, num_blocks, num_heads);
      const int d = model->config().embed_dim;
      for (Mask mask : {Mask::kAll, Mask::kNone, Mask::kAlternating,
                        Mask::kRandom}) {
        SCOPED_TRACE(testing::Message()
                     << "blocks " << num_blocks << " heads " << num_heads
                     << " mask " << static_cast<int>(mask));
        IncrementalEncoder full(model->encoder());
        IncrementalEncoder masked(model->encoder());
        CorrelationTracker tracker(model->config().correlation);
        std::map<int, int> position_in_key;
        Rng rng(77);
        const int sizes[] = {1, 2, 3, 5, 8, 13, 64};
        int size_index = 0;
        int needed_rows = 0;
        for (int begin = 0; begin < total;) {
          const int batch = std::min(sizes[size_index++ % 7], total - begin);
          std::vector<int> positions(batch);
          std::vector<std::vector<int>> visibles(batch);
          std::vector<uint8_t> needed(batch);
          for (int i = 0; i < batch; ++i) {
            const Item& item = stream[begin + i];
            visibles[i] = tracker.ObserveItem(item);
            positions[i] = position_in_key[item.key]++;
            switch (mask) {
              case Mask::kAll: needed[i] = 1; break;
              case Mask::kNone: needed[i] = 0; break;
              case Mask::kAlternating: needed[i] = (begin + i) % 2; break;
              case Mask::kRandom: needed[i] = rng.NextBernoulli(0.3); break;
            }
            needed_rows += needed[i];
          }
          std::vector<float> expected;
          std::vector<float> actual;
          full.AppendBatch(stream.data() + begin, positions.data(),
                           visibles.data(), batch, &expected);
          masked.AppendBatch(stream.data() + begin, positions.data(),
                             visibles.data(), batch, &actual, needed.data());
          ASSERT_EQ(actual.size(), expected.size());
          const std::vector<float> zero(d, 0.0f);
          for (int i = 0; i < batch; ++i) {
            const size_t row = static_cast<size_t>(i) * d;
            const float* want = needed[i] ? expected.data() + row : zero.data();
            ASSERT_EQ(std::memcmp(actual.data() + row, want, d * sizeof(float)),
                      0)
                << "item " << begin + i << " needed " << int{needed[i]};
          }
          begin += batch;
        }
        if (mask == Mask::kRandom) {
          EXPECT_GT(needed_rows, 0);
          EXPECT_LT(needed_rows, total);
        }
        EXPECT_EQ(EncoderSnapshot(masked), EncoderSnapshot(full));
      }
    }
  }
}

TEST(BatchEquivalenceTest, OnlineObserveBatchMatchesObserve) {
  Fixture fixture = TrainSmallModel(72);
  std::vector<Item> stream = ConcatStream(fixture.dataset);

  OnlineClassifier sequential(*fixture.model);
  std::vector<OnlineDecision> expected;
  for (const Item& item : stream) expected.push_back(sequential.Observe(item));

  OnlineClassifier batched(*fixture.model);
  std::vector<OnlineDecision> actual;
  const size_t kBatch = 7;
  for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
    const size_t end = std::min(stream.size(), begin + kBatch);
    std::vector<Item> chunk(stream.begin() + begin, stream.begin() + end);
    for (const OnlineDecision& decision : batched.ObserveBatch(chunk)) {
      actual.push_back(decision);
    }
  }

  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key) << "item " << i;
    EXPECT_EQ(expected[i].halted_now, actual[i].halted_now) << "item " << i;
    EXPECT_EQ(expected[i].already_halted, actual[i].already_halted)
        << "item " << i;
    EXPECT_EQ(expected[i].predicted_label, actual[i].predicted_label)
        << "item " << i;
    EXPECT_EQ(expected[i].observed_items, actual[i].observed_items)
        << "item " << i;
    EXPECT_NEAR(expected[i].halt_probability, actual[i].halt_probability,
                1e-4)
        << "item " << i;
  }
  EXPECT_EQ(sequential.num_items_observed(), batched.num_items_observed());
}

// Streams the same items through a sequential and a batched server and
// asserts identical event sequences and stats under `config`.
void CheckServerEquivalence(const KvecModel& model,
                            const StreamServerConfig& config,
                            const std::vector<Item>& stream,
                            size_t batch_size) {
  StreamServer sequential(model, config);
  std::vector<StreamEvent> expected;
  for (const Item& item : stream) {
    for (const StreamEvent& event : sequential.Observe(item)) {
      expected.push_back(event);
    }
  }

  StreamServer batched(model, config);
  std::vector<StreamEvent> actual;
  for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
    const size_t end = std::min(stream.size(), begin + batch_size);
    std::vector<Item> chunk(stream.begin() + begin, stream.begin() + end);
    for (const StreamEvent& event : batched.ObserveBatch(chunk)) {
      actual.push_back(event);
    }
  }

  ExpectSameEvents(expected, actual);
  for (const StreamEvent& event : sequential.Flush()) expected.push_back(event);
  for (const StreamEvent& event : batched.Flush()) actual.push_back(event);
  ExpectSameEvents(expected, actual);

  const StreamServerStats& a = sequential.stats();
  const StreamServerStats& b = batched.stats();
  EXPECT_EQ(a.items_processed, b.items_processed);
  EXPECT_EQ(a.sequences_classified, b.sequences_classified);
  EXPECT_EQ(a.policy_halts, b.policy_halts);
  EXPECT_EQ(a.idle_timeouts, b.idle_timeouts);
  EXPECT_EQ(a.capacity_evictions, b.capacity_evictions);
  EXPECT_EQ(a.rotation_classifications, b.rotation_classifications);
  EXPECT_EQ(a.windows_started, b.windows_started);
}

TEST(BatchEquivalenceTest, StreamServerAcrossRotationBoundaries) {
  Fixture fixture = TrainSmallModel(73);
  std::vector<Item> stream = ConcatStream(fixture.dataset);
  StreamServerConfig config;
  config.max_window_items = 37;  // not a multiple of any batch size below
  config.idle_timeout = 1 << 20;
  for (size_t batch_size : {3u, 16u, 64u}) {
    CheckServerEquivalence(*fixture.model, config, stream, batch_size);
  }
}

TEST(BatchEquivalenceTest, StreamServerAcrossIdleAndCapacityBoundaries) {
  Fixture fixture = TrainSmallModel(74);
  std::vector<Item> stream = ConcatStream(fixture.dataset);
  StreamServerConfig config;
  config.max_window_items = 51;
  config.idle_timeout = 9;
  config.idle_check_interval = 4;
  config.max_open_keys = 2;  // constant capacity pressure
  for (size_t batch_size : {5u, 32u}) {
    CheckServerEquivalence(*fixture.model, config, stream, batch_size);
  }
}

// The engine computes no final-block row for an item whose key was halted
// before its microbatch began. With a policy biased to halt early most
// items are such items, and each batch size cuts the stream differently —
// a key's items in the batch of its halt are still encoded — so the skip
// pattern differs while the events and checkpoint bytes must not. The
// tight bounds force idle timeouts, capacity evictions and rotations, and
// the items of force-closed keys that come back are skipped too.
TEST(BatchEquivalenceTest, EarlyHaltingServerMatchesAcrossBatchSizes) {
  Dataset dataset = SmallTrafficDataset(78);
  // The train episodes too: a stream long enough to rotate many times.
  dataset.test.insert(dataset.test.end(), dataset.train.begin(),
                      dataset.train.end());
  const std::vector<Item> stream = ConcatStream(dataset);
  StreamServerConfig config;
  config.max_window_items = 97;
  config.idle_timeout = 13;
  config.idle_check_interval = 3;
  config.max_open_keys = 3;
  // A policy bias per depth under which about a third of the keys halt
  // early and the rest reach a forced close.
  for (auto [num_blocks, policy_bias] : {std::pair{1, 0.0f}, {2, -0.2f}}) {
    SCOPED_TRACE(testing::Message() << "blocks " << num_blocks);
    std::unique_ptr<KvecModel> model =
        UntrainedModel(dataset.spec, num_blocks, /*num_heads=*/1);
    // MainParameters ends with the policy's weight and bias, then the
    // classifier's weight and bias.
    std::vector<Tensor> params = model->MainParameters();
    params[params.size() - 3].data()[0] = policy_bias;

    std::vector<StreamEvent> reference_events;
    std::string reference_bytes;
    for (size_t batch_size : {1u, 7u, 64u}) {
      SCOPED_TRACE(testing::Message() << "batch " << batch_size);
      StreamServer server(*model, config);
      std::vector<StreamEvent> events;
      for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
        const size_t end = std::min(stream.size(), begin + batch_size);
        std::vector<Item> chunk(stream.begin() + begin, stream.begin() + end);
        for (const StreamEvent& event : server.ObserveBatch(chunk)) {
          events.push_back(event);
        }
      }
      const std::string bytes = SnapshotBytes(server);
      for (const StreamEvent& event : server.Flush()) events.push_back(event);

      const StreamServerStats& stats = server.stats();
      EXPECT_GT(stats.policy_halts, 0);
      EXPECT_GT(stats.idle_timeouts + stats.capacity_evictions, 0);
      EXPECT_GT(stats.windows_started, 1);
      // A fifth or more of the stream arrives after its key's verdict.
      EXPECT_GT(stats.items_after_verdict,
                static_cast<int64_t>(stream.size()) / 5);
      if (batch_size == 1) {
        reference_events = events;
        reference_bytes = bytes;
        continue;
      }
      ExpectSameEvents(reference_events, events);
      EXPECT_TRUE(bytes == reference_bytes) << "checkpoint bytes differ";
    }
  }
}

TEST(BatchEquivalenceTest, ShardedObserveBatchMatchesPerItemObserve) {
  Fixture fixture = TrainSmallModel(75);
  std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 4;
  config.shard.max_window_items = 29;
  config.shard.idle_timeout = 11;
  config.shard.idle_check_interval = 2;
  config.shard.max_open_keys = 2;

  // Synchronous mode and shard-owned workers route per-item Observe
  // differently (shard mutex vs a waited-on control task); both must match.
  for (int worker_threads : {0, config.num_shards}) {
    SCOPED_TRACE(testing::Message() << "worker_threads " << worker_threads);
    config.worker_threads = worker_threads;

    ShardedStreamServer sequential(*fixture.model, config);
    std::vector<StreamEvent> expected;
    for (const Item& item : stream) {
      for (const StreamEvent& event : sequential.Observe(item)) {
        expected.push_back(event);
      }
    }

    ShardedStreamServer batched(*fixture.model, config);
    std::vector<StreamEvent> actual;
    const size_t kBatch = 24;
    for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const size_t end = std::min(stream.size(), begin + kBatch);
      std::vector<Item> chunk(stream.begin() + begin, stream.begin() + end);
      for (const StreamEvent& event : batched.ObserveBatch(chunk)) {
        actual.push_back(event);
      }
    }

    // Batched events come grouped by shard; compare per-key verdict streams
    // (within a key, order and causes must match exactly).
    auto by_key = [](const std::vector<StreamEvent>& events) {
      std::map<int, std::vector<StreamEvent>> grouped;
      for (const StreamEvent& event : events) {
        grouped[event.key].push_back(event);
      }
      return grouped;
    };
    auto expected_by_key = by_key(expected);
    auto actual_by_key = by_key(actual);
    ASSERT_EQ(expected_by_key.size(), actual_by_key.size());
    for (auto& [key, events] : expected_by_key) {
      ASSERT_TRUE(actual_by_key.count(key)) << "key " << key;
      ExpectSameEvents(events, actual_by_key[key]);
    }
    EXPECT_EQ(sequential.stats().sequences_classified,
              batched.stats().sequences_classified);
  }
}

}  // namespace
}  // namespace kvec
