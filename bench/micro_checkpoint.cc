// Serving-state checkpoint micro benchmarks: save/load round-trip latency
// for a 1-shard ShardedStreamServer carrying 8k open keys (the acceptance workload for
// the PR-4 checkpoint subsystem) plus the in-memory encode/restore halves
// separately, so a regression can be blamed on serialisation vs file I/O.
//
// The model is tiny and untrained: checkpoint cost is dominated by the
// serving-layer state (per-key fusion rows, encoder K/V arena, correlation
// index), which scales with open keys and window items, not with model
// quality.
// PR 10 adds the incremental-checkpoint curves: delta encode under churn
// (cost proportional to dirty keys, not population), the full rebase
// comparator, and restore-from-chain latency by chain length. The
// acceptance line is delta encode at 1% churn >= 20x faster than a full
// write at 100k open keys (BENCH_PR10.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sharded_stream_server.h"
#include "util/serialize.h"

namespace kvec {
namespace {

KvecModel MakeModel() {
  DatasetSpec spec;
  spec.name = "bench";
  spec.value_fields = {{"field", 8}};
  spec.num_classes = 2;
  spec.max_keys_per_episode = 64;
  spec.max_sequence_length = 64;
  spec.max_episode_length = 64;
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 8;
  config.correlation.max_value_correlations = 4;
  config.correlation.value_correlation_window = 16;
  return KvecModel(config);
}

StreamServerConfig UnboundedConfig() {
  StreamServerConfig config;
  config.max_window_items = 1 << 30;
  config.idle_timeout = 1 << 30;
  config.idle_check_interval = 1 << 30;
  config.max_open_keys = 1 << 20;
  return config;
}

ShardedStreamServerConfig ShardedUnbounded() {
  ShardedStreamServerConfig config;
  config.num_shards = 1;
  config.shard = UnboundedConfig();
  return config;
}

// Feeds fresh keys in batches of 2048 until at least `target_open` stay
// open (the untrained policy halts a fraction of them immediately, so more
// than target_open items are needed).
void FillOpenKeys(ShardedStreamServer* server, int target_open) {
  int key = 0;
  std::vector<Item> batch;
  while (server->open_keys() < target_open && key < (1 << 21)) {
    batch.clear();
    for (int i = 0; i < 2048; ++i) {
      Item item;
      item.key = key;
      item.value = {key % 3};
      item.time = key;
      ++key;
      batch.push_back(item);
    }
    server->ObserveBatch(batch);
  }
}

// The full-checkpoint halves and the file round trip run on a 1-shard
// server, the layout every writer writes (a manifest plus one shard
// section holding the StreamServer snapshot).
void BM_CheckpointEncode(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  KvecModel model = MakeModel();
  ShardedStreamServer server(model, ShardedUnbounded());
  FillOpenKeys(&server, open_keys);

  size_t bytes = 0;
  for (auto _ : state) {
    std::string checkpoint = server.EncodeCheckpoint();
    bytes = checkpoint.size();
    benchmark::DoNotOptimize(checkpoint);
  }
  state.counters["open_keys"] = server.open_keys();
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointEncode)->Arg(1 << 10)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointRestore(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  KvecModel model = MakeModel();
  ShardedStreamServer server(model, ShardedUnbounded());
  FillOpenKeys(&server, open_keys);
  const std::string bytes = server.EncodeCheckpoint();

  ShardedStreamServer target(model, ShardedUnbounded());
  for (auto _ : state) {
    const bool restored = target.RestoreCheckpoint(bytes);
    if (!restored) state.SkipWithError("restore failed");
    benchmark::DoNotOptimize(restored);
  }
  state.counters["open_keys"] = server.open_keys();
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_CheckpointRestore)->Arg(1 << 10)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// The acceptance metric: full save -> load round trip through a file for
// an 8k-open-key server.
void BM_CheckpointFileRoundTrip(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  KvecModel model = MakeModel();
  ShardedStreamServer server(model, ShardedUnbounded());
  FillOpenKeys(&server, open_keys);
  const std::string path = "/tmp/kvec_bench_checkpoint.ckpt";

  ShardedStreamServer target(model, ShardedUnbounded());
  for (auto _ : state) {
    if (!server.SaveCheckpoint(path) ||
        !target.RestoreFromCheckpointChain(path)) {
      state.SkipWithError("round trip failed");
    }
  }
  std::remove(path.c_str());
  state.counters["open_keys"] = server.open_keys();
}
BENCHMARK(BM_CheckpointFileRoundTrip)->Arg(1 << 10)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// ---- Incremental checkpointing (PR 10) -----------------------------------

// Re-observes `count` already-seen keys: each touch dirties the key's
// serving entry, engine state, and correlation rows, which is exactly the
// churn a delta has to carry.
void ChurnKeys(ShardedStreamServer* server, int count, int* next, int limit,
               int64_t* clock) {
  std::vector<Item> batch;
  batch.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Item item;
    item.key = *next % limit;
    *next += 1;
    item.value = {item.key % 3};
    item.time = static_cast<double>((*clock)++);
    batch.push_back(item);
  }
  server->ObserveBatch(batch);
}

void UnlinkChain(const std::string& base) {
  for (int64_t seq = 1;; ++seq) {
    if (std::remove(ShardedStreamServer::DeltaPath(base, seq).c_str()) != 0) {
      break;
    }
  }
  std::remove(base.c_str());
}

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : 0;
}

// Delta write cost as a function of churn: range(0) open keys, range(1)
// percent of them re-touched between writes. Every iteration times one
// delta encode + atomic file write of the same delta: untimed, it restores
// the server from the base, drops the previous delta and re-touches the
// same keys at the same clock, so the bytes written do not depend on how
// many iterations run. The untimed restore dominates the wall time, so the
// iteration count is fixed rather than grown to --benchmark_min_time.
void BM_DeltaCheckpointWrite(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  const int churn_keys =
      std::max<int>(1, open_keys * static_cast<int>(state.range(1)) / 100);
  KvecModel model = MakeModel();
  ShardedStreamServer server(model, ShardedUnbounded());
  FillOpenKeys(&server, open_keys);
  const std::string base = "/tmp/kvec_bench_delta_chain.ckpt";
  UnlinkChain(base);
  ShardedStreamServer::IncrementalCheckpointState chain;
  if (!server.CheckpointIncremental(base, /*rebase_every=*/0, &chain)) {
    state.SkipWithError("base rebase failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(ShardedStreamServer::DeltaPath(base, 1).c_str());
    if (!server.RestoreFromCheckpointChain(base, &chain)) {
      state.SkipWithError("base restore failed");
      break;
    }
    int next = 0;
    int64_t clock = 1 << 21;
    ChurnKeys(&server, churn_keys, &next, open_keys, &clock);
    state.ResumeTiming();
    if (!server.CheckpointIncremental(base, /*rebase_every=*/0, &chain)) {
      state.SkipWithError("delta write failed");
      break;
    }
  }
  state.counters["open_keys"] = server.open_keys();
  state.counters["churn_keys"] = churn_keys;
  state.counters["delta_bytes"] = static_cast<double>(
      FileBytes(ShardedStreamServer::DeltaPath(base, chain.deltas_written)));
  UnlinkChain(base);
}
BENCHMARK(BM_DeltaCheckpointWrite)
    ->Args({8192, 1})
    ->Args({100000, 1})
    ->Args({100000, 10})
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

// The rebase comparator: a fresh chain state forces the full-base branch
// every iteration, so this times a complete encode + atomic file write of
// the whole population — the denominator of the >= 20x acceptance ratio.
void BM_FullCheckpointWrite(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  KvecModel model = MakeModel();
  ShardedStreamServer server(model, ShardedUnbounded());
  FillOpenKeys(&server, open_keys);
  const std::string base = "/tmp/kvec_bench_full_chain.ckpt";
  UnlinkChain(base);
  for (auto _ : state) {
    ShardedStreamServer::IncrementalCheckpointState chain;
    if (!server.CheckpointIncremental(base, /*rebase_every=*/0, &chain)) {
      state.SkipWithError("full write failed");
      break;
    }
  }
  state.counters["open_keys"] = server.open_keys();
  state.counters["base_bytes"] = static_cast<double>(FileBytes(base));
  UnlinkChain(base);
}
BENCHMARK(BM_FullCheckpointWrite)
    ->Arg(8192)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Cold-start latency from a base plus range(1) deltas at 1% churn each:
// the price of a longer chain, i.e. what --rebase-every trades against the
// per-delta savings.
void BM_RestoreFromChain(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  const int chain_length = static_cast<int>(state.range(1));
  const int churn_keys = std::max<int>(1, open_keys / 100);
  KvecModel model = MakeModel();
  ShardedStreamServer server(model, ShardedUnbounded());
  FillOpenKeys(&server, open_keys);
  const std::string base = "/tmp/kvec_bench_restore_chain.ckpt";
  UnlinkChain(base);
  ShardedStreamServer::IncrementalCheckpointState chain;
  if (!server.CheckpointIncremental(base, /*rebase_every=*/0, &chain)) {
    state.SkipWithError("base rebase failed");
    return;
  }
  int next = 0;
  int64_t clock = 1 << 21;
  for (int d = 0; d < chain_length; ++d) {
    ChurnKeys(&server, churn_keys, &next, open_keys, &clock);
    if (!server.CheckpointIncremental(base, /*rebase_every=*/0, &chain)) {
      state.SkipWithError("delta write failed");
      return;
    }
  }
  ShardedStreamServer target(model, ShardedUnbounded());
  for (auto _ : state) {
    if (!target.RestoreFromCheckpointChain(base)) {
      state.SkipWithError("chain restore failed");
      break;
    }
  }
  state.counters["open_keys"] = server.open_keys();
  state.counters["chain_length"] = chain_length;
  UnlinkChain(base);
}
BENCHMARK(BM_RestoreFromChain)
    ->Args({8192, 0})
    ->Args({8192, 1})
    ->Args({8192, 5})
    ->Args({100000, 5})
    ->Unit(benchmark::kMillisecond);

// Fingerprint throughput over a 32 MB buffer, about one state-churn delta
// link: range(0) = 0 is FNV-1a (what version-2 links carry, now only
// verified on restore), 1 is XXH64 (what CheckpointWrite folds over every
// file it writes). Report-only; bytes_per_second is the figure to read.
void BM_CheckpointFingerprint(benchmark::State& state) {
  const bool xxh64 = state.range(0) != 0;
  std::string bytes(size_t{32} << 20, '\0');
  uint64_t fill = 0x9E3779B97F4A7C15ull;
  for (char& byte : bytes) {
    fill = fill * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<char>(fill >> 56);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxh64 ? CheckpointFingerprint(bytes)
                                   : CheckpointFingerprintV2(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
  state.SetLabel(xxh64 ? "xxh64 (v3)" : "fnv1a (v2, verify only)");
}
BENCHMARK(BM_CheckpointFingerprint)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kvec
