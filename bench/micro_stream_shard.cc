// Serving-layer micro benchmarks: sharded throughput on a tangled stream,
// steady-state capacity eviction cost at large open-key counts, and the
// PR-6 shard-owned-worker mode (throughput scaling and overload shedding
// at saturation).
//
// Effects measured:
//  * BM_ShardedStreamThroughput — items/sec of ShardedStreamServer at 1-8
//    shards over a maximally tangled synthetic stream (hundreds of
//    concurrent keys sharing one session value). Historically sharding
//    helped even single-threaded because each shard's engine scanned only
//    its own open sessions; the PR-3 inverted correlation index removed
//    that scan, so throughput peaks at 1 shard. Sync-mode shards run one
//    after another on the caller's thread, so extra shards here only add
//    routing cost; parallel shards are the worker mode's job
//    (BM_ShardWorkerThroughput below, docs/SERVING.md).
//  * BM_CapacityEvictionSteadyState — per-item cost of StreamServer at the
//    capacity limit (every item evicts). With the hash map + recency list
//    this is O(1); the pre-index full scan was O(open_keys)
//    (12 us -> 1781 us per item from 1k to 100k open keys on the reference
//    machine; see docs/SERVING.md for before/after numbers).
//  * BM_ShardWorkerThroughput — end-to-end items/sec of the shard-owned
//    worker mode (Submit + Drain, kBlock backpressure) at 1/2/4/8 workers.
//    Scaling with worker count needs real cores: the committed numbers
//    come from a single-core container, where extra workers only add
//    handoff cost — rerun on a multi-core host to see the scaling curve.
//  * BM_ShardWorkerSaturation — overload behavior at full-speed offered
//    load with a deliberately tiny queue (depth 4) and kShedNewest: the
//    producer outruns the workers, and the custom counters report what the
//    overload layer did about it (shed_rate = items_shed/items_submitted,
//    offered_per_sec, items_per_second = processed throughput).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/stream_server.h"

namespace kvec {
namespace {

// A tiny untrained model: these benchmarks measure the serving layer's
// bookkeeping (correlation scans, eviction, routing), so model quality is
// irrelevant and inference cost is kept small on purpose.
KvecModel MakeModel(bool value_correlation) {
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
  config.correlation.use_value_correlation = value_correlation;
  // Cap attention fan-in and the join window so per-item inference stays
  // cheap; the O(open sessions) scan the benchmark targets is unaffected
  // by either cap (every open session is still inspected).
  config.correlation.max_value_correlations = 4;
  config.correlation.value_correlation_window = 16;
  return KvecModel(config);
}

// Round-robin over `num_keys` concurrent keys, all items carrying the same
// session value: every open session is a candidate match for every item,
// the worst case for the correlation scan.
std::vector<Item> MakeTangledStream(int num_keys, int total_items) {
  std::vector<Item> items;
  items.reserve(total_items);
  for (int i = 0; i < total_items; ++i) {
    Item item;
    item.key = i % num_keys;
    item.value = {0};
    item.time = i;
    items.push_back(item);
  }
  return items;
}

void BM_ShardedStreamThroughput(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  KvecModel model = MakeModel(/*value_correlation=*/true);
  const std::vector<Item> stream = MakeTangledStream(/*num_keys=*/8192,
                                                     /*total_items=*/8192);
  ShardedStreamServerConfig config;
  config.num_shards = num_shards;
  config.shard.max_window_items = 1 << 30;
  config.shard.idle_timeout = 1 << 30;
  config.shard.idle_check_interval = 1 << 30;
  config.shard.max_open_keys = 1 << 20;

  constexpr int kBatch = 256;
  for (auto _ : state) {
    ShardedStreamServer server(model, config);
    for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const size_t end = std::min(stream.size(), begin + kBatch);
      std::vector<Item> batch(stream.begin() + begin, stream.begin() + end);
      benchmark::DoNotOptimize(server.ObserveBatch(batch));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedStreamThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CapacityEvictionSteadyState(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  // Value correlation off: per-item engine cost is O(log keys), so the
  // timing isolates the eviction path.
  KvecModel model = MakeModel(/*value_correlation=*/false);
  StreamServerConfig config;
  config.max_open_keys = open_keys;
  config.max_window_items = 1 << 30;
  config.idle_timeout = 1 << 30;
  config.idle_check_interval = 1 << 30;
  StreamServer server(model, config);

  Item item;
  item.value = {0};
  int key = 0;
  for (int i = 0; i < open_keys; ++i) {
    item.key = key++;
    item.time = key;
    server.Observe(item);
  }
  // Steady state: each fresh key pushes the open set past the cap and
  // evicts the LRU key.
  for (auto _ : state) {
    item.key = key++;
    item.time = key;
    benchmark::DoNotOptimize(server.Observe(item));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CapacityEvictionSteadyState)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Shared config for the worker-mode benchmarks: engine-side eviction and
// rotation disabled so the timing isolates the transport layer + inference.
ShardedStreamServerConfig WorkerConfig(int workers, int queue_depth,
                                       OverloadPolicy policy) {
  ShardedStreamServerConfig config;
  config.num_shards = workers;
  config.worker_threads = workers;
  config.queue_depth = queue_depth;
  config.overload_policy = policy;
  config.shard.max_window_items = 1 << 30;
  config.shard.idle_timeout = 1 << 30;
  config.shard.idle_check_interval = 1 << 30;
  config.shard.max_open_keys = 1 << 20;
  return config;
}

void BM_ShardWorkerThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  KvecModel model = MakeModel(/*value_correlation=*/true);
  const std::vector<Item> stream = MakeTangledStream(/*num_keys=*/8192,
                                                     /*total_items=*/8192);
  const ShardedStreamServerConfig config =
      WorkerConfig(workers, /*queue_depth=*/256, OverloadPolicy::kBlock);

  constexpr int kBatch = 256;
  for (auto _ : state) {
    ShardedStreamServer server(model, config);
    for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const size_t end = std::min(stream.size(), begin + kBatch);
      server.Submit(
          std::vector<Item>(stream.begin() + begin, stream.begin() + end));
    }
    server.Drain();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_ShardWorkerThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardWorkerSaturation(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  KvecModel model = MakeModel(/*value_correlation=*/true);
  const std::vector<Item> stream = MakeTangledStream(/*num_keys=*/8192,
                                                     /*total_items=*/8192);
  const ShardedStreamServerConfig config =
      WorkerConfig(workers, /*queue_depth=*/4, OverloadPolicy::kShedNewest);

  constexpr int kBatch = 64;
  int64_t submitted = 0;
  int64_t processed = 0;
  int64_t shed = 0;
  for (auto _ : state) {
    ShardedStreamServer server(model, config);
    for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const size_t end = std::min(stream.size(), begin + kBatch);
      server.Submit(
          std::vector<Item>(stream.begin() + begin, stream.begin() + end));
    }
    server.Drain();
    const StreamServerStats stats = server.stats();
    submitted += stats.items_submitted;
    processed += stats.items_processed;
    shed += stats.items_shed;
  }
  state.SetItemsProcessed(processed);
  state.counters["shed_rate"] =
      submitted > 0 ? static_cast<double>(shed) / submitted : 0.0;
  state.counters["offered_per_sec"] = benchmark::Counter(
      static_cast<double>(submitted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardWorkerSaturation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kvec
