// Crash-consistency differential harness for incremental checkpointing.
//
// The spec for "the delta chain works" is the same as PR-4's spec for
// "restore works", applied to a chain: run a tangled stream to a cut,
// write a base plus a chain of deltas along the way, restore base+chain
// into a fresh server, and require (a) the restored server's full
// checkpoint encoding to be BYTE-IDENTICAL to the uninterrupted server's
// at the cut, and (b) the two servers to emit bit-identical StreamEvent
// suffixes (keys, labels, causes, order, confidences) when fed the same
// remaining stream. The matrix runs three stream seeds, cut styles that
// straddle window-rotation / idle-timeout / capacity-eviction activity and
// a rotation that releases the shard pool, 1/2/4 shards, and chain
// lengths 0/1/5.
//
// The `checkpoint.delta` fault case proves the failure contract: a failed
// delta write leaves the server serving, the chain state untouched, the
// last-good chain loadable, and the lost churn re-carried by the next
// successful delta.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "util/fault_injection.h"
#include "util/serialize.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

using IncState = ShardedStreamServer::IncrementalCheckpointState;

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

// `count` keys from 1 << 20 up (above every episode key) with one item
// each, their values taken from `stream` in turn.
std::vector<Item> OneItemKeys(const std::vector<Item>& stream, int count) {
  std::vector<Item> items;
  for (int i = 0; i < count; ++i) {
    Item item = stream[static_cast<size_t>(i) % stream.size()];
    item.key = (1 << 20) + i;
    items.push_back(std::move(item));
  }
  return items;
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
    // Bit-identical, not merely close: the delta chain is lossless.
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

std::string ChainBase(const std::string& tag) {
  return ::testing::TempDir() + "/kvec_inc_" + tag + ".ckpt";
}

void UnlinkChain(const std::string& base) {
  for (int64_t seq = 1;; ++seq) {
    if (std::remove(ShardedStreamServer::DeltaPath(base, seq).c_str()) != 0) {
      break;
    }
  }
  std::remove(base.c_str());
}

// One differential replay: feed `stream[0..cut)` into the uninterrupted
// server, writing the base at the first segment boundary and one delta at
// each later boundary (chain_length deltas total, never auto-rebasing);
// chain-restore a fresh server and require byte-identical full encodings,
// then identical event suffixes and stats after replaying the rest.
// *at_cut, when given, receives the uninterrupted server's stats at the cut.
void ReplayFromChain(const KvecModel& model,
                     const ShardedStreamServerConfig& config,
                     const std::vector<Item>& stream, size_t cut,
                     int chain_length, const std::string& context,
                     StreamServerStats* at_cut = nullptr) {
  ASSERT_GT(cut, static_cast<size_t>(chain_length)) << context;
  const std::string base = ChainBase(std::to_string(
      std::hash<std::string>{}(context) & 0xffffff));
  UnlinkChain(base);

  ShardedStreamServer uninterrupted(model, config);
  IncState state;
  size_t fed = 0;
  for (int segment = 1; segment <= chain_length + 1; ++segment) {
    const size_t boundary =
        cut * static_cast<size_t>(segment) /
        static_cast<size_t>(chain_length + 1);
    for (; fed < boundary; ++fed) uninterrupted.Observe(stream[fed]);
    ASSERT_TRUE(
        uninterrupted.CheckpointIncremental(base, /*rebase_every=*/0, &state))
        << context << " segment " << segment;
  }
  ASSERT_EQ(fed, cut) << context;
  ASSERT_EQ(state.deltas_written, chain_length) << context;
  const std::string full_at_cut = uninterrupted.EncodeCheckpoint();
  if (at_cut != nullptr) *at_cut = uninterrupted.stats();

  ShardedStreamServer restored(model, config);
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base)) << context;
  // The chain must reconstruct the exact serialized state — byte for byte,
  // not merely equivalent.
  EXPECT_EQ(restored.EncodeCheckpoint(), full_at_cut) << context;
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
  for (int s = 0; s < config.num_shards; ++s) {
    ExpectIdenticalStats(uninterrupted.shard_stats(s), restored.shard_stats(s),
                         context + " shard " + std::to_string(s));
  }
  UnlinkChain(base);
}

// The seed matrix: per-shard configs whose bounds put the cut in the thick
// of a specific close path — window rotation, idle sweep + capacity
// eviction, or a rotation that releases the shard pool — crossed with
// 1/2/4 shards and chain lengths 0/1/5.
void RunIncrementalMatrix(uint64_t seed) {
  Fixture fixture = TrainSmallModel(seed);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ASSERT_GT(stream.size(), 64u);

  StreamServerConfig rotation;
  rotation.max_window_items = 37;
  rotation.idle_timeout = 1 << 20;

  StreamServerConfig evicting;
  evicting.max_window_items = 51;
  evicting.idle_timeout = 9;
  evicting.idle_check_interval = 4;
  evicting.max_open_keys = 2;

  // A rotation releases a shard pool that holds 4 MiB. A window of 10,000
  // open one-item keys leaves about 6 MB there in these models.
  StreamServerConfig releasing;
  releasing.max_window_items = 10000;
  releasing.idle_timeout = 1 << 20;
  releasing.max_open_keys = 1 << 20;

  // A style with filler_per_shard > 0 runs on that many one-item keys per
  // shard ahead of the stream, and its cut counts from the stream's start.
  struct Style {
    const char* name;
    StreamServerConfig config;
    size_t cut;
    int filler_per_shard = 0;
  };
  const std::vector<Style> styles = {
      // One item past a rotation: the restored engine window is young and
      // the pre-rotation keys closed.
      {"rotation", rotation, static_cast<size_t>(rotation.max_window_items) + 1},
      // Just after an idle sweep fired with the capacity bound pinching.
      {"evicting", evicting, stream.size() / 2},
      // One item past the filler: each shard (whose share of the filler
      // is 11,000 give or take a few percent) rotated once inside it,
      // releasing its pool, and is about 1,000 items into its next window.
      {"releasing", releasing, 1, 11000},
  };

  for (const Style& style : styles) {
    for (int shards : {1, 2, 4}) {
      std::vector<Item> filled =
          OneItemKeys(stream, style.filler_per_shard * shards);
      const size_t cut = filled.size() + style.cut;
      filled.insert(filled.end(), stream.begin(), stream.end());
      for (int chain_length : {0, 1, 5}) {
        ShardedStreamServerConfig config;
        config.num_shards = shards;
        config.shard = style.config;
        const std::string context =
            "seed " + std::to_string(seed) + " " + style.name + " shards " +
            std::to_string(shards) + " chain " + std::to_string(chain_length);
        StreamServerStats at_cut;
        ReplayFromChain(*fixture.model, config, filled, cut, chain_length,
                        context, &at_cut);
        if (style.filler_per_shard > 0) {
          EXPECT_EQ(at_cut.compactions, shards) << context;
        }
      }
    }
  }
}

TEST(IncrementalCheckpointTest, MatrixSeed91) { RunIncrementalMatrix(91); }
TEST(IncrementalCheckpointTest, MatrixSeed92) { RunIncrementalMatrix(92); }
TEST(IncrementalCheckpointTest, MatrixSeed93) { RunIncrementalMatrix(93); }

// CI's seed matrix: KVEC_REPLAY_SEED varies the stream shape without a
// rebuild (same variable the PR-4 replay harness uses, so one CI matrix
// covers both). Skipped when unset.
TEST(IncrementalCheckpointTest, IncrementalReplaySeedFromEnv) {
  const char* env_seed = std::getenv("KVEC_REPLAY_SEED");
  if (env_seed == nullptr) {
    GTEST_SKIP() << "KVEC_REPLAY_SEED not set";
  }
  RunIncrementalMatrix(std::strtoull(env_seed, nullptr, 10));
}

// The chain goes through the PR-6 worker seam: with shard-owned workers,
// delta snapshots run as control tasks on each shard's owner thread, one
// shard at a time. The restored state must match the writer's exactly,
// and a worker-mode restore must serve on.
TEST(IncrementalCheckpointTest, WorkerModeChainRestoresExactly) {
  Fixture fixture = TrainSmallModel(90);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.worker_threads = 2;  // one owned worker per shard
  const std::string base = ChainBase("worker");
  UnlinkChain(base);

  ShardedStreamServer writer(*fixture.model, config);
  IncState state;
  size_t fed = 0;
  for (int segment = 0; segment < 3; ++segment) {
    const size_t boundary = stream.size() * (segment + 1) / 4;
    for (; fed < boundary; ++fed) writer.Observe(stream[fed]);
    ASSERT_TRUE(writer.CheckpointIncremental(base, /*rebase_every=*/0, &state))
        << "segment " << segment;
  }
  EXPECT_EQ(state.deltas_written, 2);
  const std::string full_at_cut = writer.EncodeCheckpoint();

  ShardedStreamServer restored(*fixture.model, config);
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base));
  EXPECT_EQ(restored.EncodeCheckpoint(), full_at_cut);
  for (; fed < stream.size(); ++fed) restored.Observe(stream[fed]);
  restored.Flush();
  UnlinkChain(base);
}

// Rebasing folds the chain: after `rebase_every` deltas the next write
// must replace the base, unlink every old delta, and restart the sequence.
TEST(IncrementalCheckpointTest, RebaseFoldsTheChain) {
  Fixture fixture = TrainSmallModel(94);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  const std::string base = ChainBase("rebase");
  UnlinkChain(base);

  ShardedStreamServer server(*fixture.model, config);
  IncState state;
  size_t fed = 0;
  auto feed = [&](size_t count) {
    for (size_t i = 0; i < count && fed < stream.size(); ++i) {
      server.Observe(stream[fed++]);
    }
  };
  feed(32);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/2, &state));
  const uint64_t first_base = state.base_fingerprint;
  for (int64_t expect_seq : {1, 2}) {
    feed(16);
    ASSERT_TRUE(
        server.CheckpointIncremental(base, /*rebase_every=*/2, &state));
    EXPECT_EQ(state.deltas_written, expect_seq);
  }
  feed(16);
  // Third write after two deltas: a rebase, not delta 3.
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/2, &state));
  EXPECT_EQ(state.deltas_written, 0);
  EXPECT_NE(state.base_fingerprint, first_base);
  EXPECT_EQ(state.prev_fingerprint, state.base_fingerprint);
  // The old links are gone from disk and the fresh base stands alone.
  std::FILE* stale =
      std::fopen(ShardedStreamServer::DeltaPath(base, 1).c_str(), "rb");
  EXPECT_EQ(stale, nullptr);
  if (stale != nullptr) std::fclose(stale);

  ShardedStreamServer restored(*fixture.model, config);
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base));
  EXPECT_EQ(restored.EncodeCheckpoint(), server.EncodeCheckpoint());
  UnlinkChain(base);
}

// A second writer that starts a fresh chain (a new process, a new
// IncrementalCheckpointState) on a path holding a longer chain: its base
// write must clear the old tail, or the loader meets the old writer's
// deltas after the new ones and the path no longer loads.
TEST(IncrementalCheckpointTest, FreshChainClearsALongerStaleTail) {
  Fixture fixture = TrainSmallModel(94);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  const std::string base = ChainBase("stale_tail");
  UnlinkChain(base);

  // A base after the first `step` items, then one delta per `step` more.
  auto write_chain = [&](size_t step, int deltas) {
    auto server = std::make_unique<ShardedStreamServer>(*fixture.model, config);
    IncState state;
    size_t fed = 0;
    for (int link = 0; link <= deltas; ++link) {
      for (size_t i = 0; i < step && fed < stream.size(); ++i) {
        server->Observe(stream[fed++]);
      }
      EXPECT_TRUE(
          server->CheckpointIncremental(base, /*rebase_every=*/0, &state));
    }
    EXPECT_EQ(state.deltas_written, deltas);
    return server;
  };
  write_chain(/*step=*/20, /*deltas=*/6);
  const std::unique_ptr<ShardedStreamServer> writer =
      write_chain(/*step=*/15, /*deltas=*/2);
  std::FILE* stale =
      std::fopen(ShardedStreamServer::DeltaPath(base, 3).c_str(), "rb");
  EXPECT_EQ(stale, nullptr);
  if (stale != nullptr) std::fclose(stale);

  ShardedStreamServer restored(*fixture.model, config);
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base));
  EXPECT_EQ(restored.EncodeCheckpoint(), writer->EncodeCheckpoint());
  UnlinkChain(base);
}

// Restoring with a state continues the chain in place: the next write
// appends the next delta and a fresh restore still reconstructs exactly.
TEST(IncrementalCheckpointTest, RestoredStateContinuesTheChain) {
  Fixture fixture = TrainSmallModel(95);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  const std::string base = ChainBase("resume");
  UnlinkChain(base);

  ShardedStreamServer writer(*fixture.model, config);
  IncState state;
  size_t fed = 0;
  for (; fed < 40; ++fed) writer.Observe(stream[fed]);
  ASSERT_TRUE(writer.CheckpointIncremental(base, /*rebase_every=*/0, &state));
  for (; fed < 60; ++fed) writer.Observe(stream[fed]);
  ASSERT_TRUE(writer.CheckpointIncremental(base, /*rebase_every=*/0, &state));

  // A new process resumes the chain: restore WITH a state, serve on, and
  // append delta 2.
  ShardedStreamServer resumed(*fixture.model, config);
  IncState resumed_state;
  ASSERT_TRUE(resumed.RestoreFromCheckpointChain(base, &resumed_state));
  EXPECT_EQ(resumed_state.deltas_written, 1);
  EXPECT_EQ(resumed_state.base_fingerprint, state.base_fingerprint);
  EXPECT_EQ(resumed_state.prev_fingerprint, state.prev_fingerprint);
  for (; fed < 90 && fed < stream.size(); ++fed) resumed.Observe(stream[fed]);
  ASSERT_TRUE(
      resumed.CheckpointIncremental(base, /*rebase_every=*/0, &resumed_state));
  EXPECT_EQ(resumed_state.deltas_written, 2);

  ShardedStreamServer verifier(*fixture.model, config);
  ASSERT_TRUE(verifier.RestoreFromCheckpointChain(base));
  EXPECT_EQ(verifier.EncodeCheckpoint(), resumed.EncodeCheckpoint());
  UnlinkChain(base);
}

// The failure contract at the `checkpoint.delta` fault point: the write
// fails, the server keeps serving, the chain state and on-disk chain are
// untouched (still loadable at the last-good link), and the next
// successful delta re-carries the churn the failed one would have taken.
TEST(IncrementalCheckpointTest, FailedDeltaWriteLeavesChainLoadable) {
  Fixture fixture = TrainSmallModel(96);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  const std::string base = ChainBase("fault");
  UnlinkChain(base);

  ShardedStreamServer server(*fixture.model, config);
  IncState state;
  size_t fed = 0;
  for (; fed < 40; ++fed) server.Observe(stream[fed]);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/0, &state));
  for (; fed < 60; ++fed) server.Observe(stream[fed]);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/0, &state));
  const IncState good = state;
  const std::string full_at_last_good = server.EncodeCheckpoint();

  for (; fed < 80; ++fed) server.Observe(stream[fed]);
  FaultInjection::Arm("checkpoint.delta",
                      [](const char*) { return true; });
  EXPECT_FALSE(
      server.CheckpointIncremental(base, /*rebase_every=*/0, &state));
  FaultInjection::DisarmAll();
  EXPECT_GE(FaultInjection::FireCount("checkpoint.delta"), 1);
  // State untouched; no delta 2 leaked onto disk.
  EXPECT_EQ(state.deltas_written, good.deltas_written);
  EXPECT_EQ(state.prev_fingerprint, good.prev_fingerprint);
  std::FILE* leaked =
      std::fopen(ShardedStreamServer::DeltaPath(base, 2).c_str(), "rb");
  EXPECT_EQ(leaked, nullptr);
  if (leaked != nullptr) std::fclose(leaked);

  // The last-good chain still loads, to the last-good state.
  {
    ShardedStreamServer restored(*fixture.model, config);
    ASSERT_TRUE(restored.RestoreFromCheckpointChain(base));
    EXPECT_EQ(restored.EncodeCheckpoint(), full_at_last_good);
  }

  // The server kept serving through the failure, and the retry's delta
  // carries everything since the last COMMITTED baseline — including the
  // churn the failed write would have taken.
  for (; fed < 90 && fed < stream.size(); ++fed) server.Observe(stream[fed]);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/0, &state));
  EXPECT_EQ(state.deltas_written, 2);
  ShardedStreamServer recovered(*fixture.model, config);
  ASSERT_TRUE(recovered.RestoreFromCheckpointChain(base));
  EXPECT_EQ(recovered.EncodeCheckpoint(), server.EncodeCheckpoint());
  UnlinkChain(base);
}

// A failed BASE write (rebase branch) must also fail safe: the old base
// stays loadable and the next attempt rebases again rather than appending
// deltas to a chain whose middle links were already unlinked.
TEST(IncrementalCheckpointTest, FailedRebaseForcesFreshBase) {
  Fixture fixture = TrainSmallModel(97);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  const std::string base = ChainBase("rebase_fault");
  UnlinkChain(base);

  ShardedStreamServer server(*fixture.model, config);
  IncState state;
  size_t fed = 0;
  for (; fed < 40; ++fed) server.Observe(stream[fed]);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  for (; fed < 55; ++fed) server.Observe(stream[fed]);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  ASSERT_EQ(state.deltas_written, 1);

  for (; fed < 70; ++fed) server.Observe(stream[fed]);
  FaultInjection::Arm("checkpoint.save", [](const char*) { return true; });
  EXPECT_FALSE(
      server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  FaultInjection::DisarmAll();
  EXPECT_EQ(state.base_fingerprint, 0u);  // the next write must rebase

  // The old base alone still loads (the failed rebase unlinked delta 1
  // before failing — by design, never leaving a gapped chain).
  {
    ShardedStreamServer restored(*fixture.model, config);
    EXPECT_TRUE(restored.RestoreFromCheckpointChain(base));
  }

  for (; fed < 80 && fed < stream.size(); ++fed) server.Observe(stream[fed]);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  EXPECT_EQ(state.deltas_written, 0);  // a fresh base, not a delta
  ShardedStreamServer recovered(*fixture.model, config);
  ASSERT_TRUE(recovered.RestoreFromCheckpointChain(base));
  EXPECT_EQ(recovered.EncodeCheckpoint(), server.EncodeCheckpoint());
  UnlinkChain(base);
}

// The writers a chain's links are framed from stay with the server from
// one link to the next. A full write smaller than the links before it (a
// window rotation shrank the state) must carry none of their bytes: the
// file equals the encoding of the same state by a server that never wrote
// a checkpoint, and the chain it starts restores.
TEST(IncrementalCheckpointTest, SmallerLinkAfterALargerOneCarriesNoStaleBytes) {
  Fixture fixture = TrainSmallModel(98);
  const std::vector<Item> stream = ConcatStream(fixture.dataset);
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.shard.max_window_items = 60;  // per shard
  const std::string base = ChainBase("retained_writers");
  UnlinkChain(base);

  ShardedStreamServer server(*fixture.model, config);
  ShardedStreamServer twin(*fixture.model, config);  // never checkpoints
  IncState state;
  size_t fed = 0;
  auto feed = [&](size_t until) {
    for (; fed < until && fed < stream.size(); ++fed) {
      server.Observe(stream[fed]);
      twin.Observe(stream[fed]);
    }
  };
  auto file_bytes = [](const std::string& path) {
    std::string bytes;
    EXPECT_TRUE(ReadFileBytes(path, &bytes)) << path;
    return bytes;
  };

  // A base and a delta late in the first window (no shard has seen 60
  // items yet), when the state is large.
  feed(55);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  const size_t large_base = file_bytes(base).size();
  feed(58);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  ASSERT_EQ(state.deltas_written, 1);

  // Once a window rotation has shrunk the state below the first base's
  // size by a tenth, the rebase writes fewer bytes than the writers hold.
  while (fed < stream.size() &&
         twin.EncodeCheckpoint().size() > large_base * 9 / 10) {
    feed(fed + 1);
  }
  ASSERT_GT(twin.stats().windows_started, server.num_shards());
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  ASSERT_EQ(state.deltas_written, 0);
  const std::string small_base = file_bytes(base);
  EXPECT_LT(small_base.size(), large_base);
  EXPECT_EQ(small_base, twin.EncodeCheckpoint());

  // A delta on the fresh base, then the chain restores to the live state.
  feed(fed + 5);
  ASSERT_TRUE(server.CheckpointIncremental(base, /*rebase_every=*/1, &state));
  ASSERT_EQ(state.deltas_written, 1);
  ShardedStreamServer restored(*fixture.model, config);
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base));
  EXPECT_EQ(restored.EncodeCheckpoint(), twin.EncodeCheckpoint());
  EXPECT_EQ(restored.EncodeCheckpoint(), server.EncodeCheckpoint());
  UnlinkChain(base);
}

}  // namespace
}  // namespace kvec
