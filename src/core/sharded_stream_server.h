// Concurrent stream serving: N StreamServer shards behind a key hash.
//
// One StreamServer is inherently serial — every item mutates one engine,
// one serving index, one stats block. ShardedStreamServer partitions the
// key space across `num_shards` independent shards, each owning a full
// StreamServer (engine + open-key state + stats).
//
// Every operation reaches the shards through ONE private seam,
// RunOnShards(shards, fn): run fn on each listed shard, with that shard
// to itself, and return once all ran. The seam has two executors:
//
//   * synchronous (worker_threads = 0, the default) — the calling thread
//     runs fn under each listed shard's mutex in turn, so a call that
//     touches several shards runs them one after another, and each shard's
//     memory stays with one thread. Deterministic: the replay/golden/
//     equivalence tests run this mode. Shards in parallel are the worker
//     mode's job.
//   * shard-owned workers (worker_threads = num_shards) — each shard owns
//     one worker thread plus a bounded MPSC task queue
//     (util/bounded_queue.h), and fn rides that queue as a waited-on
//     control task. ALL shard-state mutation happens on the owning
//     worker, which takes the shard's mutex only to let clang check the
//     ownership (nothing else takes it in this mode, so it is never
//     contended), and every query is answered at a batch boundary, never
//     mid-batch.
//
// Either way the exclusion is per shard: no operation holds two shards at
// once, so a cross-shard read (stats, checkpoint) can land between two
// shards' halves of a concurrent batch. Quiescing is the caller's protocol.
//
// Ingest has one extra shape, `Submit`: fire-and-forget in worker
// mode — it routes the batch, enqueues per-shard sub-batches under the
// overload policy, and returns; events surface through `config.on_events`
// on the worker threads. Overload is a first-class condition there: when a
// shard's queue is full, `overload_policy` decides whether the producer
// blocks (backpressure), the new batch is dropped, or the oldest queued
// batch is dropped — every dropped batch/item is counted in the
// batches_shed/items_shed stats, never lost silently. In sync mode Submit
// serves the batch inline. `Observe`/`ObserveBatch`/`Flush` return their
// events in both modes and bypass the overload policy (only Submit sheds),
// so their event sequences are the same in both modes.
//
// The trade-off, stated once here and assumed everywhere: cross-shard
// value correlations are cut. Two keys that hash to different shards never
// see each other's sessions, exactly as if they had been served by
// separate processes. Keys whose correlations matter should hash together
// (the partitioning is by key only, so this matches the paper's deployment
// where a flow's items always carry the same key). Within a shard the
// semantics are identical to StreamServer: feed the same sub-stream to a
// standalone StreamServer and you get the same verdicts (covered by
// core_sharded_stream_server_test.cc).
//
// Bounds are per shard: global capacity is num_shards * max_open_keys and
// idle timeouts / window rotations are measured in per-shard stream
// positions (a shard's clock only advances when it receives an item).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/stream_server.h"
#include "util/bounded_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kvec {

struct ShardedStreamServerConfig {
  int num_shards = 8;
  // 0 = synchronous mode; num_shards = one owned worker thread per shard.
  // Other values are rejected (the model is one worker per shard — scale
  // workers by scaling shards).
  int worker_threads = 0;
  // Per-shard bounded task-queue capacity, in tasks (worker mode only).
  int queue_depth = 256;
  // What a full shard queue does to a Submit batch (worker mode only).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  // Event sink for Submit-ingested batches. Worker mode: invoked on the
  // owning worker thread after each processed batch, concurrently across
  // shards — the sink must be thread-safe. Sync mode: invoked inline from
  // Submit. Events returned by Observe/ObserveBatch/Flush do NOT pass
  // through the sink (the caller already holds them).
  std::function<void(int shard, const std::vector<StreamEvent>& events)>
      on_events;
  // Per-shard bounds, applied to each shard's StreamServer independently.
  StreamServerConfig shard;
};

class ShardedStreamServer {
 public:
  // `model` must be trained and outlive the server. Builds `num_shards`
  // independent engines and, in worker mode, starts the shard workers.
  ShardedStreamServer(const KvecModel& model,
                      const ShardedStreamServerConfig& config);

  // Graceful shutdown: closes the queues, drains every already-accepted
  // task, then joins the workers. Accepted work is never dropped.
  ~ShardedStreamServer();

  ShardedStreamServer(const ShardedStreamServer&) = delete;
  ShardedStreamServer& operator=(const ShardedStreamServer&) = delete;

  // The shard an item with this key is routed to (deterministic hash);
  // the static form routes for a server of `num_shards` shards.
  int ShardOf(int key) const;
  static int ShardOf(int key, int num_shards);

  // Synchronous-semantics ingest: returns the item's events. Thread-safe
  // in both modes; never shed.
  std::vector<StreamEvent> Observe(const Item& item);

  // Batched ingest with synchronous semantics: fans `items` out to their
  // shards (sync mode: one after another on the caller's thread; worker
  // mode: in parallel on the shard workers),
  // handing each shard its sub-batch as one contiguous microbatch
  // (StreamServer::ObserveBatch — arrival order within the shard
  // preserved, encoder projections batched through GEMM). Returned events
  // are grouped by shard (shard 0's events first), in emission order
  // within a shard. With one shard the batch is handed through uncopied.
  // Thread-safe; never shed.
  std::vector<StreamEvent> ObserveBatch(const std::vector<Item>& items);

  // Fire-and-forget ingest, the overload-policy path. Routes `items` and
  // enqueues one sub-batch per shard under `overload_policy`:
  //   kBlock      — waits for queue space (backpressure);
  //   kShedNewest — a full queue drops the incoming sub-batch;
  //   kShedOldest — a full queue drops its oldest queued batch instead.
  // Every accepted item is eventually processed (visible via on_events and
  // stats); every dropped one is counted. After Drain() the overload
  // invariant holds: items_submitted == items_processed + items_shed.
  // Sync mode: serves the batch before returning (nothing to shed) and
  // hands each shard's events to on_events on the calling thread.
  // Returns how many items this call caused to be shed (0 = nothing
  // dropped): the incoming sub-batches under kShedNewest, older queued
  // batches under kShedOldest. This is what lets the TCP front end answer
  // OVERLOADED per batch instead of discovering drops later in aggregate
  // stats.
  int64_t Submit(const std::vector<Item>& items);

  // Blocks until every task enqueued before this call has been processed
  // (sync mode: until no earlier call still holds a shard). Does not stop
  // concurrent producers — quiescing is the caller's protocol (stop
  // submitting, then Drain).
  void Drain();

  // Force-classifies all still-open keys on every shard (worker mode: after
  // everything already queued to the shard, by FIFO order).
  std::vector<StreamEvent> Flush();

  // Merged view across shards: counters and class_counts are summed;
  // windows_started is the total across shards (each shard starts at 1);
  // items_submitted/batches_shed/items_shed aggregate the transport-layer
  // counters. Each shard is copied between two of its own batches, so
  // its counters partition; shards are copied one by one through the seam,
  // so under concurrent ingest the merged view is not a single instant.
  StreamServerStats stats() const;

  // One shard's own stats (same snapshot discipline as stats()).
  StreamServerStats shard_stats(int shard) const;

  int open_keys() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The model every shard serves; the TCP front end checks items against
  // its spec before they reach a shard.
  const KvecModel& model() const { return model_; }
  bool asynchronous() const { return config_.worker_threads > 0; }

  // ---- Checkpoint / warm restart (docs/SERVING.md). ----
  //
  // This class is the only checkpoint writer and reader; StreamServer
  // supplies the per-shard record codec (Snapshot/Restore,
  // SnapshotDelta/ApplyDelta). A full checkpoint is a manifest section
  // (shard count — restore fails on a mismatch, since the key hash routes
  // by shard count) plus one section per shard holding that shard's full
  // StreamServer snapshot, taken one shard at a time through the seam
  // (worker mode: behind everything already queued to the shard). For a
  // cross-shard-consistent checkpoint, stop submitting first (concurrent
  // ingest would land in some shards' snapshots and not others).
  //
  // Restore stages every shard in a fresh StreamServer and swaps all of
  // them in only when the whole checkpoint parsed — a corrupt byte in any
  // shard leaves the server untouched. Restore also re-baselines the
  // transport counters (items_submitted := restored items_processed, shed
  // counters zeroed) so the overload invariant keeps holding after a warm
  // restart. A 1-shard server also restores the plain layout (one
  // kCheckpointSectionStreamServer section: the v1 golden and older
  // saves), which nothing writes any more; more shards reject it. Files
  // are loaded through RestoreFromCheckpointChain: a lone full checkpoint
  // is a chain without deltas.
  //
  // Every full write to a file — SaveCheckpoint and CheckpointIncremental's
  // rebase — is one base write: atomic (a failed write leaves the previous
  // base at `path`), and it ends any chain rooted at `path`, unlinking the
  // deltas on disk newest-first before the rename, however many an earlier
  // writer (this process or another) left. So the chain loader never
  // meets deltas cut against an older base.
  std::string EncodeCheckpoint() const;
  bool RestoreCheckpoint(const std::string& bytes);
  bool SaveCheckpoint(const std::string& path) const;

  // ---- Incremental checkpoints: delta chains (docs/SERVING.md). ----
  //
  // On-disk layout: a full version-1 base at `base_path` plus consecutive
  // version-3 delta files at `base_path + ".delta.1"`, ".delta.2", ...
  // Each delta's manifest stores the base's fingerprint, the previous
  // link's fingerprint, and its own sequence number, so the loader can
  // reject a delta cut against a different base, a reordered chain, or a
  // gap — any non-linking file fails the whole load, target untouched.
  // Version-2 chains (FNV-1a fingerprints) still load; a chain mixing v2
  // and v3 links does not.
  // A chain is written by one server at a time: a second writer on the
  // same path starts its own chain with a base write, which clears the
  // first writer's deltas.
  struct IncrementalCheckpointState {
    int64_t deltas_written = 0;     // links currently after the base
    uint64_t base_fingerprint = 0;  // 0 = no base written/loaded yet
    uint64_t prev_fingerprint = 0;  // newest link (the base, initially)
  };

  // The on-disk name of chain link `seq` (1-based) for `base_path`.
  static std::string DeltaPath(const std::string& base_path, int64_t seq);

  // Appends one link to the chain at `base_path`: a delta carrying only
  // the keys mutated since the previous link, or — when no base exists
  // yet, or `rebase_every` > 0 deltas have accumulated — a fresh full
  // base (the rebase bounds both restore time and on-disk chain length).
  // Shards are serialized ONE AT A TIME through the shard seam, so the
  // rest of the fleet keeps serving during a snapshot; dirty bits are
  // cleared only after the bytes are durably on disk (a failed write —
  // see the `checkpoint.delta` fault point — leaves the server serving,
  // every dirty bit intact, and the previous chain loadable). A rebase is
  // the base write described above, so every crash point leaves a
  // loadable chain on disk. The server keeps the writers its links are
  // framed from between calls, bounded by the largest link written
  // (docs/SERVING.md, "Retained writer memory").
  bool CheckpointIncremental(const std::string& base_path, int rebase_every,
                             IncrementalCheckpointState* state);

  // Restores base + every consecutive delta, staged per shard and
  // committed all-or-nothing (same discipline as RestoreCheckpoint); any
  // undecodable or non-linking delta fails the load with the server
  // untouched. Passing `state` declares the intent to keep appending to
  // the chain: dirty tracking is re-armed at the restored state and
  // `state` is filled; a null `state` is a plain warm restart (tracking
  // stays disarmed so the dirty map cannot grow on a server that never
  // checkpoints again). A restored v2 chain leaves `state` zeroed, so the
  // next CheckpointIncremental rebases instead of appending v3 links to
  // it.
  bool RestoreFromCheckpointChain(const std::string& base_path,
                                  IncrementalCheckpointState* state = nullptr);

 private:
  // A shard's StreamServer slot. Tasks get the slot, not the server, so a
  // checkpoint restore swaps a staged server in like any other task.
  using ServerSlot = std::unique_ptr<StreamServer>;
  using ShardFn = std::function<void(int shard, ServerSlot& server)>;

  // One queue entry: an item batch (fn empty) or a control task.
  struct ShardTask {
    std::vector<Item> items;
    std::function<void(ServerSlot&)> fn;
  };

  struct Shard {
    // Every access to `server` holds this mutex, and the KVEC_GUARDED_BY
    // below makes clang -Wthread-safety reject any that does not. Sync
    // mode: it serialises callers (TCP handler threads call Submit
    // concurrently). Worker mode: only the shard's worker takes it, so it
    // is never contended.
    mutable Mutex mutex;
    ServerSlot server KVEC_GUARDED_BY(mutex);
    std::unique_ptr<BoundedQueue<ShardTask>> queue;  // worker mode only
    std::thread worker;                              // worker mode only
    // Transport-layer counters. Producers bump submitted/shed (Submit may
    // shed on the producer thread); stats snapshots read them. Atomics:
    // deliberately outside the mutex so the Submit hot path never locks.
    std::atomic<int64_t> items_submitted{0};
    std::atomic<int64_t> batches_shed{0};
    std::atomic<int64_t> items_shed{0};
  };

  void WorkerLoop(Shard* shard, int shard_index);

  // The one shard-dispatch seam: runs fn(s, slot) on every listed shard
  // and returns once all of them ran. Apart from start-up and shutdown,
  // only this function and Submit know the execution mode:
  //   * sync — the caller's thread runs each listed shard in turn, under
  //     its mutex;
  //   * workers — each shard gets a non-sheddable control task, FIFO
  //     behind everything already queued to it, and a Barrier collects
  //     them.
  // Either way a task has its shard to itself, and nothing more: no two
  // shards are ever held at once.
  void RunOnShards(const std::vector<int>& shards, const ShardFn& fn) const;
  void RunOnShard(int shard, const ShardFn& fn) const {
    RunOnShards({shard}, fn);
  }
  void RunOnAllShards(const ShardFn& fn) const { RunOnShards(all_shards_, fn); }
  // Charges `count` dropped items against `shard`'s shed counters.
  static void CountShed(Shard* shard, int64_t batches, int64_t items);

  // Splits `items` into one arrival-ordered microbatch per shard and
  // counts them as submitted.
  std::vector<std::vector<Item>> Route(const std::vector<Item>& items);
  // Serves each non-empty routed microbatch on its shard through the seam;
  // returns the events per shard.
  std::vector<std::vector<StreamEvent>> ServeRouted(
      const std::vector<std::vector<Item>>& routed);

  // Copies the transport atomics into an engine-stats snapshot the caller
  // already owns (no lock needed: the counters are atomics by design).
  static StreamServerStats MergeTransportCounters(const Shard& shard,
                                                  StreamServerStats stats);

  // The writers a checkpoint file is framed from without a copy: the
  // manifest, then one section per shard holding its index and that
  // shard's snapshot.
  struct ImageWriters {
    BinaryWriter manifest;
    std::vector<BinaryWriter> shards;
    // Empties every writer and keeps its pages.
    void Clear();
    // The file's sections, each borrowing its writer's bytes.
    std::vector<CheckpointSectionView> sections(int32_t manifest_id,
                                                int32_t shard_id) const;
    // sections() under the full layout's ids, the one place that names
    // them for a write.
    std::vector<CheckpointSectionView> full_sections() const;
  };

  // Fills one writer per shard with its index and then `snapshot`, run as
  // one task on that shard.
  void SnapshotShards(
      std::vector<BinaryWriter>* shard_writers,
      const std::function<void(StreamServer&, BinaryWriter*)>& snapshot) const;
  // The one builder of a full image, behind EncodeCheckpoint and
  // WriteBase: clears `image`, then writes the manifest (the shard count)
  // and every shard's StreamServer::Snapshot. With `stage_baseline`, each
  // shard stages its delta baseline in the same task as its snapshot, so a
  // chain base's staged dirty-clear is atomic with its bytes.
  void SnapshotFullImage(bool stage_baseline, ImageWriters* image) const;
  // The one base write, behind SaveCheckpoint and the rebase: builds a
  // full image in `image`, unlinks the chain's deltas on disk
  // newest-first, then atomically writes the image to `path`
  // (`checkpoint.save` fault point). `fingerprint` (if non-null) receives
  // the file's fingerprint.
  bool WriteBase(const std::string& path, bool stage_baseline,
                 ImageWriters* image, uint64_t* fingerprint) const;
  // Restore split in two so the chain loader can apply deltas between the
  // staging and the commit: Stage parses a full checkpoint (either
  // layout, see RestoreCheckpoint) into fresh per-shard servers (no live
  // state touched), Commit swaps them all in and re-baselines the
  // transport counters.
  bool StageFromCheckpoint(const Checkpoint& checkpoint,
                           std::vector<std::unique_ptr<StreamServer>>* staged);
  void CommitStaged(std::vector<std::unique_ptr<StreamServer>>* staged);

  const KvecModel& model_;
  ShardedStreamServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> all_shards_;  // 0 .. num_shards-1, for RunOnAllShards
  // CheckpointIncremental's writers, kept from one link to the next:
  // rebases and deltas alike write into pages an earlier link already
  // faulted in. They keep as many bytes mapped as the largest link written
  // so far, per section (docs/SERVING.md "Incremental checkpoints").
  ImageWriters link_writers_;
};

}  // namespace kvec
