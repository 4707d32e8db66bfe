#include "core/sharded_stream_server.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kvec {

namespace {

// Wellons' lowbias32 integer mixer: adjacent key ids must land on
// different shards, so the trivial key % num_shards is not enough once
// callers assign keys in blocks (episode offsets, per-tenant ranges).
uint32_t MixKey(uint32_t key) {
  key ^= key >> 16;
  key *= 0x7feb352dU;
  key ^= key >> 15;
  key *= 0x846ca68bU;
  key ^= key >> 16;
  return key;
}

// Completion count for a fan-out of control tasks: the posting thread
// waits until every shard's worker ran its task. The count is fixed at
// construction (before any task can see the barrier), so only the
// decrement and the wait need the mutex.
class Barrier {
 public:
  explicit Barrier(int count) : remaining_(count) {}

  void Arrive() {
    MutexLock lock(mutex_);
    if (--remaining_ == 0) done_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(mutex_);
    while (remaining_ != 0) done_.Wait(mutex_);
  }

 private:
  Mutex mutex_;
  CondVar done_;
  int remaining_ KVEC_GUARDED_BY(mutex_);
};

// Shard 0's events first, then shard 1's, ...
std::vector<StreamEvent> Concat(
    const std::vector<std::vector<StreamEvent>>& shard_events) {
  size_t total = 0;
  for (const auto& events : shard_events) total += events.size();
  std::vector<StreamEvent> merged;
  merged.reserve(total);
  for (const auto& events : shard_events) {
    merged.insert(merged.end(), events.begin(), events.end());
  }
  return merged;
}

}  // namespace

ShardedStreamServer::ShardedStreamServer(
    const KvecModel& model, const ShardedStreamServerConfig& config)
    : model_(model), config_(config) {
  KVEC_CHECK_GT(config.num_shards, 0);
  KVEC_CHECK(config.worker_threads == 0 ||
             config.worker_threads == config.num_shards)
      << "worker_threads must be 0 (synchronous) or num_shards (one owned "
         "worker per shard), got "
      << config.worker_threads << " for " << config.num_shards << " shards";
  if (asynchronous()) {
    KVEC_CHECK_GT(config.queue_depth, 0);
  }
  shards_.reserve(config.num_shards);
  all_shards_.reserve(config.num_shards);
  for (int s = 0; s < config.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->server = std::make_unique<StreamServer>(model, config.shard);
    if (asynchronous()) {
      shard->queue =
          std::make_unique<BoundedQueue<ShardTask>>(config.queue_depth);
    }
    shards_.push_back(std::move(shard));
    all_shards_.push_back(s);
  }
  // Workers start only after every shard is constructed: a worker may
  // never touch another shard, but the loop captures `this`.
  if (asynchronous()) {
    for (int s = 0; s < config.num_shards; ++s) {
      Shard* shard = shards_[s].get();
      shard->worker = std::thread([this, shard, s]() { WorkerLoop(shard, s); });
    }
  }
}

ShardedStreamServer::~ShardedStreamServer() {
  if (!asynchronous()) return;
  // Close-then-join is the graceful quiesce: Pop keeps handing out already
  // accepted tasks until the queue is empty, so no accepted batch is lost.
  for (const auto& shard : shards_) shard->queue->Close();
  for (const auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedStreamServer::WorkerLoop(Shard* shard, int shard_index) {
  // Only this worker takes the shard's mutex in worker mode, so every lock
  // is uncontended; holding it lets clang check each access to the slot.
  // A restore task swaps the server inside the slot, so each task
  // dereferences the slot afresh.
  ShardTask task;
  while (shard->queue->Pop(&task)) {
    if (task.fn) {
      MutexLock lock(shard->mutex);
      task.fn(shard->server);
      continue;
    }
    // Stall point: tests hold the worker here mid-stream to saturate its
    // queue deterministically (the verdict is irrelevant — not a failable
    // site).
    (void)KVEC_FAULT_POINT("shard_worker.batch");
    std::vector<StreamEvent> events;
    {
      MutexLock lock(shard->mutex);
      events = shard->server->ObserveBatch(task.items);
    }
    if (config_.on_events) config_.on_events(shard_index, events);
  }
}

void ShardedStreamServer::RunOnShards(const std::vector<int>& shards,
                                      const ShardFn& fn) const {
  if (shards.empty()) return;
  if (!asynchronous()) {
    // The caller's thread runs every listed shard in turn, so each shard's
    // memory stays with one thread; parallel shards are worker mode's job.
    for (int s : shards) {
      Shard& shard = *shards_[s];
      MutexLock lock(shard.mutex);
      fn(s, shard.server);
    }
    return;
  }
  Barrier barrier(static_cast<int>(shards.size()));
  for (int s : shards) {
    ShardTask task;
    task.fn = [&fn, &barrier, s](ServerSlot& server) {
      fn(s, server);
      barrier.Arrive();
    };
    // Control tasks always block for space and are never sheddable: a
    // saturated queue delays a query, it cannot lose one.
    const auto result = shards_[s]->queue->Push(
        std::move(task), OverloadPolicy::kBlock, /*sheddable=*/false,
        /*shed_out=*/nullptr);
    KVEC_CHECK(result == BoundedQueue<ShardTask>::PushResult::kAccepted)
        << "control task pushed into a closed shard queue";
  }
  barrier.Wait();
}

void ShardedStreamServer::CountShed(Shard* shard, int64_t batches,
                                    int64_t items) {
  shard->batches_shed.fetch_add(batches, std::memory_order_relaxed);
  shard->items_shed.fetch_add(items, std::memory_order_relaxed);
}

int ShardedStreamServer::ShardOf(int key) const {
  return ShardOf(key, static_cast<int>(shards_.size()));
}

int ShardedStreamServer::ShardOf(int key, int num_shards) {
  return static_cast<int>(MixKey(static_cast<uint32_t>(key)) %
                          static_cast<uint32_t>(num_shards));
}

std::vector<StreamEvent> ShardedStreamServer::Observe(const Item& item) {
  const int s = ShardOf(item.key);
  shards_[s]->items_submitted.fetch_add(1, std::memory_order_relaxed);
  std::vector<StreamEvent> events;
  RunOnShard(s, [&events, &item](int, ServerSlot& server) {
    events = server->Observe(item);
  });
  return events;
}

std::vector<std::vector<Item>> ShardedStreamServer::Route(
    const std::vector<Item>& items) {
  // Per-shard contiguous microbatches preserve arrival order within a
  // shard, which is all a shard's serving semantics depend on, and let
  // each shard drive its encoder through one GEMM per block
  // (StreamServer::ObserveBatch) instead of an item-at-a-time loop.
  std::vector<std::vector<Item>> routed(shards_.size());
  for (const Item& item : items) {
    routed[ShardOf(item.key)].push_back(item);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->items_submitted.fetch_add(
        static_cast<int64_t>(routed[s].size()), std::memory_order_relaxed);
  }
  return routed;
}

std::vector<std::vector<StreamEvent>> ShardedStreamServer::ServeRouted(
    const std::vector<std::vector<Item>>& routed) {
  std::vector<int> active;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (!routed[s].empty()) active.push_back(static_cast<int>(s));
  }
  std::vector<std::vector<StreamEvent>> shard_events(routed.size());
  RunOnShards(active, [&routed, &shard_events](int s, ServerSlot& server) {
    shard_events[s] = server->ObserveBatch(routed[s]);
  });
  return shard_events;
}

std::vector<StreamEvent> ShardedStreamServer::ObserveBatch(
    const std::vector<Item>& items) {
  if (shards_.size() == 1) {
    // One shard: no routing, no copies — hand the batch straight through.
    shards_[0]->items_submitted.fetch_add(static_cast<int64_t>(items.size()),
                                          std::memory_order_relaxed);
    std::vector<StreamEvent> events;
    RunOnShard(0, [&events, &items](int, ServerSlot& server) {
      events = server->ObserveBatch(items);
    });
    return events;
  }
  return Concat(ServeRouted(Route(items)));
}

int64_t ShardedStreamServer::Submit(const std::vector<Item>& items) {
  std::vector<std::vector<Item>> routed = Route(items);
  if (!asynchronous()) {
    // Nothing to shed: the batch is served before Submit returns, and its
    // events reach the sink on this thread.
    const std::vector<std::vector<StreamEvent>> shard_events =
        ServeRouted(routed);
    if (config_.on_events) {
      for (size_t s = 0; s < routed.size(); ++s) {
        if (!routed[s].empty()) {
          config_.on_events(static_cast<int>(s), shard_events[s]);
        }
      }
    }
    return 0;
  }
  int64_t shed_by_call = 0;
  for (size_t s = 0; s < routed.size(); ++s) {
    if (routed[s].empty()) continue;
    Shard& shard = *shards_[s];
    const int64_t count = static_cast<int64_t>(routed[s].size());
    ShardTask task;
    task.items = std::move(routed[s]);
    std::vector<ShardTask> shed;
    const auto result = shard.queue->Push(std::move(task),
                                          config_.overload_policy,
                                          /*sheddable=*/true, &shed);
    switch (result) {
      case BoundedQueue<ShardTask>::PushResult::kAccepted:
        break;
      case BoundedQueue<ShardTask>::PushResult::kShedNewest:
        CountShed(&shard, 1, count);
        shed_by_call += count;
        break;
      case BoundedQueue<ShardTask>::PushResult::kClosed:
        // Shutdown raced the producer; the batch was never accepted, so
        // account for it as shed rather than leaving it untracked.
        CountShed(&shard, 1, count);
        shed_by_call += count;
        break;
    }
    for (const ShardTask& evicted : shed) {
      const int64_t evicted_items =
          static_cast<int64_t>(evicted.items.size());
      CountShed(&shard, 1, evicted_items);
      shed_by_call += evicted_items;
    }
  }
  return shed_by_call;
}

void ShardedStreamServer::Drain() {
  // An empty task per shard: once it ran, everything that entered the
  // shard before it — queued batches and queries alike, or a concurrent
  // sync-mode call holding the shard — has been processed.
  RunOnAllShards([](int, ServerSlot&) {});
}

std::vector<StreamEvent> ShardedStreamServer::Flush() {
  std::vector<std::vector<StreamEvent>> shard_events(shards_.size());
  RunOnAllShards([&shard_events](int s, ServerSlot& server) {
    shard_events[s] = server->Flush();
  });
  return Concat(shard_events);
}

StreamServerStats ShardedStreamServer::MergeTransportCounters(
    const Shard& shard, StreamServerStats stats) {
  stats.items_submitted =
      shard.items_submitted.load(std::memory_order_relaxed);
  stats.batches_shed = shard.batches_shed.load(std::memory_order_relaxed);
  stats.items_shed = shard.items_shed.load(std::memory_order_relaxed);
  return stats;
}

StreamServerStats ShardedStreamServer::stats() const {
  // Each shard answers between two of its own batches, so a shard's
  // counters always partition; shards are copied independently.
  std::vector<StreamServerStats> per_shard(shards_.size());
  RunOnAllShards([this, &per_shard](int s, ServerSlot& server) {
    per_shard[s] = MergeTransportCounters(*shards_[s], server->stats());
  });
  StreamServerStats merged;
  merged.windows_started = 0;
  for (const StreamServerStats& stats : per_shard) merged.Merge(stats);
  return merged;
}

StreamServerStats ShardedStreamServer::shard_stats(int shard) const {
  KVEC_CHECK_GE(shard, 0);
  KVEC_CHECK_LT(shard, static_cast<int>(shards_.size()));
  StreamServerStats stats;
  RunOnShard(shard, [this, &stats](int s, ServerSlot& server) {
    stats = MergeTransportCounters(*shards_[s], server->stats());
  });
  return stats;
}

int ShardedStreamServer::open_keys() const {
  std::vector<int> per_shard(shards_.size());
  RunOnAllShards([&per_shard](int s, ServerSlot& server) {
    per_shard[s] = server->open_keys();
  });
  int total = 0;
  for (int keys : per_shard) total += keys;
  return total;
}

namespace {

// Unlinks the chain links on disk after `base_path` (.delta.1 up to the
// first missing one, however many an earlier writer left): newest first,
// so a crash part-way leaves the base plus a consecutive delta prefix.
void RemoveChainTail(const std::string& base_path) {
  int64_t newest = 0;
  std::error_code ignored;
  while (std::filesystem::exists(
      ShardedStreamServer::DeltaPath(base_path, newest + 1), ignored)) {
    ++newest;
  }
  for (int64_t seq = newest; seq >= 1; --seq) {
    std::remove(ShardedStreamServer::DeltaPath(base_path, seq).c_str());
  }
}

// The fingerprint a delta link at `version` (2 or 3) carries of a file.
uint64_t LinkFingerprint(int32_t version, const std::string& bytes) {
  return version == kCheckpointFnvDeltaFormatVersion
             ? CheckpointFingerprintV2(bytes)
             : CheckpointFingerprint(bytes);
}

// Walks the `section_id` sections of `checkpoint`, one per shard, each
// opening with its shard number: hands `apply` the shard and a reader at
// the rest of its payload. Fails on an out-of-range, duplicate or missing
// shard, and when `apply` fails.
bool ForEachShardSection(
    const Checkpoint& checkpoint, int32_t section_id, int num_shards,
    const std::function<bool(int, BinaryReader*)>& apply) {
  std::vector<char> seen(num_shards, 0);
  for (const CheckpointSection& section : checkpoint.sections) {
    if (section.id != section_id) continue;
    BinaryReader reader(section.payload);
    const int32_t shard = reader.ReadInt32();
    if (!reader.ok() || shard < 0 || shard >= num_shards || seen[shard] != 0) {
      return false;
    }
    seen[shard] = 1;
    if (!apply(shard, &reader)) return false;
  }
  // Every shard needs its section.
  return std::find(seen.begin(), seen.end(), 0) == seen.end();
}

}  // namespace

void ShardedStreamServer::ImageWriters::Clear() {
  manifest.Clear();
  for (BinaryWriter& shard : shards) shard.Clear();
}

std::vector<CheckpointSectionView> ShardedStreamServer::ImageWriters::sections(
    int32_t manifest_id, int32_t shard_id) const {
  std::vector<CheckpointSectionView> views;
  views.reserve(1 + shards.size());
  views.push_back({manifest_id, manifest.view()});
  for (const BinaryWriter& shard : shards) {
    views.push_back({shard_id, shard.view()});
  }
  return views;
}

std::vector<CheckpointSectionView>
ShardedStreamServer::ImageWriters::full_sections() const {
  return sections(kCheckpointSectionShardManifest, kCheckpointSectionShard);
}

void ShardedStreamServer::SnapshotShards(
    std::vector<BinaryWriter>* shard_writers,
    const std::function<void(StreamServer&, BinaryWriter*)>& snapshot) const {
  shard_writers->resize(shards_.size());
  // ONE SHARD AT A TIME: while shard s serializes (worker mode: behind
  // everything already queued to it), every other shard keeps serving, so
  // the pause per shard is just its own snapshot. Cross-shard consistency
  // is the caller's quiesce protocol, as documented.
  for (int s : all_shards_) {
    BinaryWriter& writer = (*shard_writers)[s];
    writer.WriteInt32(s);
    RunOnShard(s, [&snapshot, &writer](int, ServerSlot& server) {
      snapshot(*server, &writer);
    });
  }
}

void ShardedStreamServer::SnapshotFullImage(bool stage_baseline,
                                            ImageWriters* image) const {
  image->Clear();
  image->manifest.WriteInt32(num_shards());
  SnapshotShards(&image->shards,
                 [stage_baseline](StreamServer& server, BinaryWriter* writer) {
                   server.Snapshot(writer);
                   if (stage_baseline) server.StageDeltaBaseline();
                 });
}

bool ShardedStreamServer::WriteBase(const std::string& path,
                                    bool stage_baseline, ImageWriters* image,
                                    uint64_t* fingerprint) const {
  SnapshotFullImage(stage_baseline, image);
  // The new base ends the chain rooted at `path`: its deltas would not
  // link to it. Unlink them BEFORE replacing the base, so every crash
  // point leaves a loadable chain on disk (old base plus a consecutive
  // delta prefix, then the old base alone, then — after the atomic
  // rename — the new base alone).
  RemoveChainTail(path);
  // Tests force the disk-full / yanked-volume shape here: a failed write
  // leaves the old base (now without its deltas) at `path`.
  return !KVEC_FAULT_POINT("checkpoint.save") &&
         CheckpointWrite(path, kCheckpointFormatVersion,
                         image->full_sections(), fingerprint);
}

bool ShardedStreamServer::StageFromCheckpoint(
    const Checkpoint& checkpoint,
    std::vector<std::unique_ptr<StreamServer>>* staged) {
  // Delta containers (versions 2 and 3) never reach here; the chain loader
  // decodes them itself. A full restore must refuse them outright.
  if (checkpoint.version != kCheckpointFormatVersion) return false;
  // Stage every shard before swapping any in. Staging touches no live
  // shard state, so it runs on the calling thread in both modes.
  staged->clear();
  staged->resize(shards_.size());
  auto fresh = [this, staged](int shard) -> StreamServer& {
    (*staged)[shard] = std::make_unique<StreamServer>(model_, config_.shard);
    return *(*staged)[shard];
  };
  const CheckpointSection* manifest =
      checkpoint.Find(kCheckpointSectionShardManifest);
  if (manifest == nullptr) {
    // The plain layout (the v1 golden, and files written before every
    // writer wrote the manifest layout) holds one StreamServer: the state
    // of one shard. Nothing writes it any more.
    const CheckpointSection* plain =
        checkpoint.Find(kCheckpointSectionStreamServer);
    if (plain == nullptr || shards_.size() != 1) return false;
    BinaryReader reader(plain->payload);
    return fresh(0).Restore(&reader);
  }
  BinaryReader manifest_reader(manifest->payload);
  const int32_t num_shards = manifest_reader.ReadInt32();
  if (!manifest_reader.ok() ||
      num_shards != static_cast<int32_t>(shards_.size())) {
    return false;
  }
  return ForEachShardSection(
      checkpoint, kCheckpointSectionShard, num_shards,
      [&fresh](int shard, BinaryReader* reader) {
        return fresh(shard).Restore(reader);
      });
}

void ShardedStreamServer::CommitStaged(
    std::vector<std::unique_ptr<StreamServer>>* staged) {
  // All-or-nothing commit. Re-baseline the transport counters to the
  // restored items_processed so the overload invariant (submitted ==
  // processed + shed) holds for the life of the restored server, and keep
  // each live shard's process-local counters, as StreamServer::Restore
  // does.
  std::vector<int64_t> processed(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    processed[s] = (*staged)[s]->stats().items_processed;
  }
  RunOnAllShards([this, staged, &processed](int s, ServerSlot& server) {
    (*staged)[s]->KeepProcessLocalCounters(*server);
    server = std::move((*staged)[s]);
    shards_[s]->items_submitted.store(processed[s], std::memory_order_relaxed);
    shards_[s]->batches_shed.store(0, std::memory_order_relaxed);
    shards_[s]->items_shed.store(0, std::memory_order_relaxed);
  });
}

std::string ShardedStreamServer::EncodeCheckpoint() const {
  ImageWriters image;
  SnapshotFullImage(/*stage_baseline=*/false, &image);
  return CheckpointEncode(kCheckpointFormatVersion, image.full_sections());
}

bool ShardedStreamServer::RestoreCheckpoint(const std::string& bytes) {
  Checkpoint checkpoint;
  std::vector<std::unique_ptr<StreamServer>> staged;
  if (!CheckpointDecode(bytes, &checkpoint) ||
      !StageFromCheckpoint(checkpoint, &staged)) {
    return false;
  }
  CommitStaged(&staged);
  return true;
}

bool ShardedStreamServer::SaveCheckpoint(const std::string& path) const {
  ImageWriters image;
  return WriteBase(path, /*stage_baseline=*/false, &image,
                   /*fingerprint=*/nullptr);
}

std::string ShardedStreamServer::DeltaPath(const std::string& base_path,
                                           int64_t seq) {
  return base_path + ".delta." + std::to_string(seq);
}

bool ShardedStreamServer::CheckpointIncremental(
    const std::string& base_path, int rebase_every,
    IncrementalCheckpointState* state) {
  const bool rebase =
      state->base_fingerprint == 0 ||
      (rebase_every > 0 && state->deltas_written >= rebase_every);
  if (rebase) {
    // Full base, staging each shard's delta baseline in the same control
    // task as its snapshot. A failed base write leaves the old base on
    // disk (loadable) but its deltas already unlinked — zeroing the
    // fingerprint forces the next call back into this branch instead of
    // appending deltas to a chain whose middle links are gone. The dirty
    // baseline stays staged-only, so no churn is lost either way.
    uint64_t fingerprint = 0;
    if (!WriteBase(base_path, /*stage_baseline=*/true, &link_writers_,
                   &fingerprint)) {
      state->base_fingerprint = 0;
      return false;
    }
    state->base_fingerprint = fingerprint;
    state->prev_fingerprint = fingerprint;
    state->deltas_written = 0;
    RunOnAllShards(
        [](int, ServerSlot& server) { server->CommitDeltaBaseline(); });
    return true;
  }

  // Delta link. SnapshotDelta stages each shard's dirty-clear itself.
  // Every section stays in its own writer until CheckpointWrite frames it
  // to disk; the writers stay for the next link.
  link_writers_.Clear();
  BinaryWriter& manifest = link_writers_.manifest;
  const int64_t seq = state->deltas_written + 1;
  manifest.WriteInt64(static_cast<int64_t>(state->base_fingerprint));
  manifest.WriteInt64(static_cast<int64_t>(state->prev_fingerprint));
  manifest.WriteInt64(seq);
  manifest.WriteInt32(num_shards());
  SnapshotShards(&link_writers_.shards,
                 [](StreamServer& server, BinaryWriter* writer) {
                   server.SnapshotDelta(writer);
                 });
  // Failed delta write: no baseline commit, so every dirty bit survives
  // and the next delta re-carries this one's churn; the chain on disk is
  // untouched and stays loadable. Tests force this path here.
  if (KVEC_FAULT_POINT("checkpoint.delta")) return false;
  uint64_t fingerprint = 0;
  if (!CheckpointWrite(DeltaPath(base_path, seq),
                       kCheckpointDeltaFormatVersion,
                       link_writers_.sections(kCheckpointSectionDeltaManifest,
                                              kCheckpointSectionShardDelta),
                       &fingerprint)) {
    return false;
  }
  state->prev_fingerprint = fingerprint;
  state->deltas_written = seq;
  RunOnAllShards(
      [](int, ServerSlot& server) { server->CommitDeltaBaseline(); });
  return true;
}

bool ShardedStreamServer::RestoreFromCheckpointChain(
    const std::string& base_path, IncrementalCheckpointState* state) {
  std::string base_bytes;
  if (!ReadFileBytes(base_path, &base_bytes)) return false;
  Checkpoint base;
  if (!CheckpointDecode(base_bytes, &base)) return false;
  // The chain root must be a full checkpoint; a delta file at the base
  // path is a mix-up, not a base.
  if (base.version != kCheckpointFormatVersion) return false;
  std::vector<std::unique_ptr<StreamServer>> staged;
  if (!StageFromCheckpoint(base, &staged)) return false;

  // Link 1 sets the chain's version and every later link must match it:
  // v3 links are linked by XXH64, v2 links by FNV-1a, and a chain that
  // mixes them fails. The base is hashed once that version is known.
  int32_t chain_version = kCheckpointDeltaFormatVersion;
  uint64_t base_fp = 0;
  uint64_t prev_fp = 0;
  int64_t seq = 1;
  for (;; ++seq) {
    std::string delta_bytes;
    if (!ReadFileBytes(DeltaPath(base_path, seq), &delta_bytes)) {
      break;  // end of chain
    }
    Checkpoint delta;
    if (!CheckpointDecode(delta_bytes, &delta)) return false;
    if (seq == 1) {
      if (delta.version != kCheckpointDeltaFormatVersion &&
          delta.version != kCheckpointFnvDeltaFormatVersion) {
        return false;
      }
      chain_version = delta.version;
      base_fp = LinkFingerprint(chain_version, base_bytes);
      prev_fp = base_fp;
    } else if (delta.version != chain_version) {
      return false;
    }
    const CheckpointSection* manifest =
        delta.Find(kCheckpointSectionDeltaManifest);
    if (manifest == nullptr) return false;
    BinaryReader manifest_reader(manifest->payload);
    const uint64_t stored_base =
        static_cast<uint64_t>(manifest_reader.ReadInt64());
    const uint64_t stored_prev =
        static_cast<uint64_t>(manifest_reader.ReadInt64());
    const int64_t stored_seq = manifest_reader.ReadInt64();
    const int32_t num_shards = manifest_reader.ReadInt32();
    // Linkage: cut against THIS base, directly after THIS link, at THIS
    // position. Anything else — a delta from another chain, a reordered
    // or re-used link — fails the whole load.
    if (!manifest_reader.ok() || stored_base != base_fp ||
        stored_prev != prev_fp || stored_seq != seq ||
        num_shards != static_cast<int32_t>(shards_.size())) {
      return false;
    }
    if (!ForEachShardSection(delta, kCheckpointSectionShardDelta, num_shards,
                             [&staged](int shard, BinaryReader* reader) {
                               return staged[shard]->ApplyDelta(reader);
                             })) {
      return false;
    }
    prev_fp = LinkFingerprint(chain_version, delta_bytes);
  }

  CommitStaged(&staged);
  if (state != nullptr) {
    // The caller intends to keep appending to this chain: re-arm dirty
    // tracking at the restored state (stage+commit in one control task
    // per shard = empty dirty set, baselines = now). Without `state` the
    // load is a plain warm restart and tracking stays disarmed — a dirty
    // map on a server that never checkpoints again would only grow.
    RunOnAllShards([](int, ServerSlot& server) {
      server->StageDeltaBaseline();
      server->CommitDeltaBaseline();
    });
    // A v2 chain is never extended with v3 links: a zero base fingerprint
    // makes the next CheckpointIncremental write a fresh base, and that
    // write removes the v2 deltas.
    *state = {};
    if (chain_version == kCheckpointDeltaFormatVersion) {
      if (seq == 1) base_fp = prev_fp = CheckpointFingerprint(base_bytes);
      state->base_fingerprint = base_fp;
      state->prev_fingerprint = prev_fp;
      state->deltas_written = seq - 1;
    }
  }
  return true;
}

}  // namespace kvec
