// Micro benchmarks of the end-to-end pipeline pieces: episode generation,
// one training step, evaluation, and streaming inference throughput —
// including the PR-3 serving benchmarks (BENCH_PR3.json): end-to-end
// items/sec of the stream-serving path (single-item vs microbatched, 1-8
// shards, 8k-key tangled stream), open-key bookkeeping past a 64k-key
// capacity with idle timeouts, and the per-item cost of the indexed
// correlation tracker as the open-key count grows, in order and in the
// state-churn shape.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/online.h"
#include "core/sharded_stream_server.h"
#include "core/trainer.h"
#include "data/movielens_generator.h"
#include "data/traffic_generator.h"
#include "util/arena.h"
#include "util/rng.h"

namespace kvec {
namespace {

TrafficGeneratorConfig SmallTraffic() {
  TrafficGeneratorConfig config;
  config.num_classes = 6;
  config.concurrency = 4;
  config.avg_flow_length = 20.0;
  config.min_flow_length = 8;
  return config;
}

KvecConfig ModelConfig(const DatasetSpec& spec) {
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 16;
  config.state_dim = 24;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 32;
  return config;
}

void BM_TrafficEpisodeGeneration(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(1);
  int64_t items = 0;
  for (auto _ : state) {
    TangledSequence episode = generator.GenerateEpisode(rng);
    items += static_cast<int64_t>(episode.items.size());
    benchmark::DoNotOptimize(episode);
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_TrafficEpisodeGeneration);

void BM_MovieLensEpisodeGeneration(benchmark::State& state) {
  MovieLensGeneratorConfig config;
  config.concurrency = 4;
  config.avg_sequence_length = 40.0;
  MovieLensGenerator generator(config);
  Rng rng(2);
  int64_t items = 0;
  for (auto _ : state) {
    TangledSequence episode = generator.GenerateEpisode(rng);
    items += static_cast<int64_t>(episode.items.size());
    benchmark::DoNotOptimize(episode);
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_MovieLensEpisodeGeneration);

void BM_TrainEpoch(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(3);
  std::vector<TangledSequence> episodes;
  for (int e = 0; e < 8; ++e) {
    episodes.push_back(generator.GenerateEpisode(rng));
  }
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  KvecTrainer trainer(&model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainEpoch(episodes));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TrainEpoch);

void BM_Evaluate(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(4);
  std::vector<TangledSequence> episodes;
  for (int e = 0; e < 8; ++e) {
    episodes.push_back(generator.GenerateEpisode(rng));
  }
  int64_t items_per_pass = 0;
  for (const TangledSequence& episode : episodes) {
    items_per_pass += static_cast<int64_t>(episode.items.size());
  }
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  KvecTrainer trainer(&model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Evaluate(episodes));
  }
  // Stream items, so items/s compares with BM_OnlineInferencePerItem.
  state.SetItemsProcessed(state.iterations() * items_per_pass);
}
BENCHMARK(BM_Evaluate);

void BM_OnlineInferencePerItem(benchmark::State& state) {
  TrafficGenerator generator(SmallTraffic());
  Rng rng(5);
  TangledSequence episode = generator.GenerateEpisode(rng);
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  int64_t items = 0;
  for (auto _ : state) {
    OnlineClassifier online(model);
    for (const Item& item : episode.items) {
      benchmark::DoNotOptimize(online.Observe(item));
    }
    items += static_cast<int64_t>(episode.items.size());
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_OnlineInferencePerItem);

// Per-item cost of OnlineClassifier::DecideObserved alone: fold an encoded
// row into its key's fusion state and run the halting policy. Args:
// {embed_dim, state_dim} — {8, 8} is kvbench's state-churn model and
// {16, 24} its replay-trained one. Each iteration encodes a fresh 4,096-item
// stream over 64 round-robin keys (timer paused), then times the decide
// stage over it. The policy bias is pinned low so keys keep fusing instead
// of halting on their first items, which measures the steady-state path.
void BM_OnlineDecide(benchmark::State& state) {
  constexpr int kKeys = 64;
  constexpr int kItems = 4096;
  TrafficGenerator generator(SmallTraffic());
  KvecConfig config = KvecConfig::ForSpec(generator.spec());
  config.embed_dim = static_cast<int>(state.range(0));
  config.state_dim = static_cast<int>(state.range(1));
  config.num_blocks = 1;
  config.ffn_hidden_dim = config.embed_dim;
  KvecModel model(config);
  // MainParameters ends with the policy's weight and bias, then the
  // classifier's weight and bias.
  std::vector<Tensor> params = model.MainParameters();
  params[params.size() - 3].data()[0] = -8.0f;

  std::vector<Item> stream(kItems);
  for (int i = 0; i < kItems; ++i) {
    stream[i].key = i % kKeys;
    for (const ValueField& field : generator.spec().value_fields) {
      stream[i].value.push_back(i % field.vocab_size);
    }
    stream[i].time = i;
  }
  const int embed = config.embed_dim;
  std::vector<float> rows;
  int64_t items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    OnlineClassifier online(model);
    online.EncodeBatch(stream.data(), kItems, &rows);
    state.ResumeTiming();
    for (int i = 0; i < kItems; ++i) {
      benchmark::DoNotOptimize(online.DecideObserved(
          stream[i].key, rows.data() + static_cast<size_t>(i) * embed));
    }
    items += kItems;
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_OnlineDecide)->Args({8, 8})->Args({16, 24});

// Per-item cost of OnlineClassifier::EncodeBatch when a share of the keys
// already has a verdict: the engine still tracks those keys' items and
// caches their K/V rows, but computes no final-block row (and, with one
// block, no visible set) for them. Arg: the percentage of the 64
// round-robin keys force-classified before the timed 4,096-item stream,
// encoded in 64-item batches. Report-only: the 0/50/90 curve shows what
// the skip saves, with the replay-trained model's dimensions.
void BM_EncodeBatchDecided(benchmark::State& state) {
  constexpr int kKeys = 64;
  constexpr int kItems = 4096;
  constexpr int kBatch = 64;
  const int decided_keys = static_cast<int>(state.range(0)) * kKeys / 100;
  TrafficGenerator generator(SmallTraffic());
  KvecConfig config = ModelConfig(generator.spec());
  KvecModel model(config);
  std::vector<Item> stream(kKeys + kItems);
  for (int i = 0; i < kKeys + kItems; ++i) {
    stream[i].key = i % kKeys;
    for (const ValueField& field : generator.spec().value_fields) {
      stream[i].value.push_back(i % field.vocab_size);
    }
    stream[i].time = i;
  }
  const int embed = config.embed_dim;
  std::vector<float> rows;
  int64_t items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // One item per key, then verdicts for the first `decided_keys` keys.
    OnlineClassifier online(model);
    online.EncodeBatch(stream.data(), kKeys, &rows);
    for (int i = 0; i < kKeys; ++i) {
      online.DecideObserved(stream[i].key,
                            rows.data() + static_cast<size_t>(i) * embed);
    }
    for (int key = 0; key < decided_keys; ++key) online.ForceClassify(key);
    online.ResetEncodeScratch();
    state.ResumeTiming();
    for (int begin = kKeys; begin < kKeys + kItems; begin += kBatch) {
      online.EncodeBatch(stream.data() + begin, kBatch, &rows);
      online.ResetEncodeScratch();
    }
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
    items += kItems;
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_EncodeBatchDecided)->Arg(0)->Arg(50)->Arg(90);

// ---- PR-3 serving benchmarks (BENCH_PR3.json) ---------------------------

// A tiny untrained model: the end-to-end serving benchmarks measure the
// serving layer (correlation index, arena caches, microbatched GEMMs,
// eviction bookkeeping), so model quality is irrelevant and inference cost
// is kept small on purpose. Mirrors bench/micro_stream_shard.cc.
KvecModel MakeServingModel() {
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

// Round-robin over `num_keys` concurrent keys, all items carrying the same
// session value: every open session is a candidate match for every item,
// the worst case for correlation matching.
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

// End-to-end items/sec of the serving path on a maximally tangled 8k-key
// stream. Args: {num_shards, batch_size}; batch_size 1 drives the
// item-at-a-time Observe path, larger sizes the microbatched GEMM path.
// {1, 1} is the configuration the pre-PR baseline was measured with.
void BM_StreamServeEndToEnd(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  const int batch_size = static_cast<int>(state.range(1));
  KvecModel model = MakeServingModel();
  const std::vector<Item> stream = MakeTangledStream(/*num_keys=*/8192,
                                                     /*total_items=*/8192);
  ShardedStreamServerConfig config;
  config.num_shards = num_shards;
  config.shard.max_window_items = 1 << 30;
  config.shard.idle_timeout = 1 << 30;
  config.shard.idle_check_interval = 1 << 30;
  config.shard.max_open_keys = 1 << 20;

  for (auto _ : state) {
    ShardedStreamServer server(model, config);
    if (batch_size <= 1) {
      for (const Item& item : stream) {
        benchmark::DoNotOptimize(server.Observe(item));
      }
    } else {
      for (size_t begin = 0; begin < stream.size();
           begin += static_cast<size_t>(batch_size)) {
        const size_t end =
            std::min(stream.size(), begin + static_cast<size_t>(batch_size));
        std::vector<Item> batch(stream.begin() + begin, stream.begin() + end);
        benchmark::DoNotOptimize(server.ObserveBatch(batch));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_StreamServeEndToEnd)
    ->Args({1, 1})
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({4, 256})
    ->Args({8, 256})
    ->Unit(benchmark::kMillisecond);

// Open-key bookkeeping at scale: one StreamServer with max_open_keys =
// 65536 serves 64-item batches of a churn stream in two phases. First,
// 100k one-hit keys fill the index and push past capacity (LRU evictions);
// then 100k items round-robin over 1,024 hot keys, while the one-hit keys
// still open age past idle_timeout = 80000 and leave through the idle
// sweep. The window never rotates, so
// the cost is the serving path with a 64k-key index, not rotation. Reports
// an error, not a time, if either eviction kind did not happen.
void BM_StreamServeChurn(benchmark::State& state) {
  constexpr int kPhaseItems = 100000;
  constexpr int kHotKeys = 1024;
  constexpr int kBatch = 64;
  KvecModel model = MakeServingModel();
  std::vector<Item> stream;
  stream.reserve(2 * kPhaseItems);
  for (int i = 0; i < 2 * kPhaseItems; ++i) {
    Item item;
    item.key = i < kPhaseItems ? i : (1 << 24) + i % kHotKeys;
    item.value.push_back(i % 8);
    item.time = i;
    stream.push_back(item);
  }
  StreamServerConfig config;
  config.max_window_items = 1 << 30;
  config.max_open_keys = 65536;
  config.idle_timeout = 80000;

  int64_t capacity_evictions = 0;
  int64_t idle_timeouts = 0;
  for (auto _ : state) {
    StreamServer server(model, config);
    for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
      const size_t end = std::min(stream.size(), begin + kBatch);
      std::vector<Item> batch(stream.begin() + begin, stream.begin() + end);
      benchmark::DoNotOptimize(server.ObserveBatch(batch));
    }
    capacity_evictions = server.stats().capacity_evictions;
    idle_timeouts = server.stats().idle_timeouts;
  }
  if (capacity_evictions == 0 || idle_timeouts == 0) {
    state.SkipWithError("the churn stream no longer evicts by both causes");
  }
  state.counters["capacity_evictions"] =
      static_cast<double>(capacity_evictions);
  state.counters["idle_timeouts"] = static_cast<double>(idle_timeouts);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_StreamServeChurn)->Unit(benchmark::kMillisecond);

// Steady-state per-item cost of CorrelationTracker::ObserveItem with
// `open_keys` open sessions. The inverted index walks only the sessions
// inside the recency window, so the cost must stay flat from 1k to 100k
// open keys (the pre-index tracker scanned every open session per item —
// linear). Sessions rotate every round (two alternating session values) so
// matched sessions stay short and the measurement isolates the lookup.
// Every round visits the keys in `order`.
void RunCorrelationObserve(benchmark::State& state,
                           const std::vector<int>& order) {
  const int open_keys = static_cast<int>(order.size());
  CorrelationOptions options;
  options.use_key_correlation = false;  // isolate the value-matching path
  options.use_value_correlation = true;
  options.value_correlation_window = 64;
  options.max_value_correlations = 8;
  options.session_field = 0;
  CorrelationTracker tracker(options);

  Item item;
  item.value = {0};
  for (int key : order) {
    item.key = key;
    tracker.ObserveItem(item);
  }
  int next = 0;
  for (auto _ : state) {
    item.key = order[next % open_keys];
    item.value[0] = (next / open_keys) % 2;  // rotate sessions every round
    next = next + 1 == 2 * open_keys ? 0 : next + 1;
    benchmark::DoNotOptimize(tracker.ObserveItem(item));
  }
  state.SetItemsProcessed(state.iterations());
}

// Keys in ascending order.
void BM_CorrelationObserve(benchmark::State& state) {
  std::vector<int> order(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  RunCorrelationObserve(state, order);
}
BENCHMARK(BM_CorrelationObserve)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The same keys in one fixed random order. Ascending keys flatter a
// node-based map: libstdc++ hashes an int to itself and its nodes sit in
// insertion order, so an ascending walk reads memory sequentially, which
// no served stream does.
void BM_CorrelationObserveShuffled(benchmark::State& state) {
  std::vector<int> order(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Rng rng(29);
  rng.Shuffle(order);
  RunCorrelationObserve(state, order);
}
BENCHMARK(BM_CorrelationObserveShuffled)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The state-churn shape (kvbench's state-churn workload): keys drawn
// uniformly at random over `open_keys` keys, key correlation on, a session
// vocabulary of 8 values, and a fresh session one item in five. The tracker
// starts over every 262,144 items, as a serving engine does at a window
// rotation, so per-key item lists keep their serving length and most keys
// miss the cache. This is where the per-key lookups, not the value walk,
// decide the cost.
void BM_CorrelationObserveChurn(benchmark::State& state) {
  const int open_keys = static_cast<int>(state.range(0));
  constexpr size_t kWindowItems = 262144;
  constexpr int kSessionValues = 8;
  CorrelationOptions options;
  options.use_key_correlation = true;
  options.use_value_correlation = true;
  options.value_correlation_window = 16;
  options.max_value_correlations = 4;
  options.session_field = 0;

  Rng rng(17);
  std::vector<int> session(open_keys);
  for (int& value : session) value = rng.NextInt(kSessionValues);
  std::vector<Item> window(kWindowItems);
  for (Item& item : window) {
    item.key = rng.NextInt(open_keys);
    if (rng.NextBernoulli(0.2)) {
      session[item.key] = rng.NextInt(kSessionValues);
    }
    item.value = {session[item.key]};
  }

  ShardPool pool;
  auto tracker = std::make_unique<CorrelationTracker>(options, pool.resource());
  std::vector<int> visible;
  size_t next = 0;
  for (auto _ : state) {
    if (next == kWindowItems) {
      state.PauseTiming();
      tracker = std::make_unique<CorrelationTracker>(options, pool.resource());
      next = 0;
      state.ResumeTiming();
    }
    tracker->ObserveItem(window[next++], &visible);
    benchmark::DoNotOptimize(visible.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelationObserveChurn)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace kvec
