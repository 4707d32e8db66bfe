// Concurrent stream serving: N StreamServer shards behind a key hash.
//
// One StreamServer is inherently serial — every item mutates one engine,
// one open-key map, one stats block. ShardedStreamServer partitions the
// key space across `num_shards` independent shards, each owning a full
// StreamServer (engine + open-key state + stats), in one of two execution
// modes:
//
//   * synchronous (worker_threads = 0, the default) — callers run the
//     shard engines in place, serialized on a per-shard mutex;
//     ObserveBatch fans a batch out across shards on the global
//     ThreadPool. Deterministic and byte-identical to the historical
//     behavior: the replay/golden/equivalence tests run this mode.
//   * shard-owned workers (worker_threads = num_shards) — each shard owns
//     one worker thread plus a bounded MPSC task queue
//     (util/bounded_queue.h). ALL shard-state mutation happens on the
//     owning worker, so the hot update path takes no shard lock; queries
//     (stats, flush, checkpoint snapshot) route to the owning shard as
//     control tasks and are answered at a batch boundary, never mid-batch.
//     Overload is a first-class condition: when a shard's queue is full,
//     `overload_policy` decides whether the producer blocks
//     (backpressure), the new batch is dropped, or the oldest queued batch
//     is dropped — every dropped batch/item is counted in the
//     batches_shed/items_shed stats, never lost silently.
//
// Async ingest has two shapes. `Submit` is fire-and-forget: it routes the
// batch, enqueues per-shard sub-batches under the overload policy, and
// returns immediately; events surface through `config.on_events` on the
// worker threads. `Observe`/`ObserveBatch`/`Flush` keep their synchronous
// signatures in both modes — in async mode they run as control tasks the
// caller waits on, so their event sequences match the synchronous mode
// exactly (they bypass the overload policy; only Submit can shed).
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
  // Per-shard bounded task-queue capacity, in tasks (async mode only).
  int queue_depth = 256;
  // What a full shard queue does to a Submit batch (async mode only).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  // Event sink for Submit-ingested batches. Async mode: invoked on the
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
  // independent engines and, in async mode, starts the shard workers.
  ShardedStreamServer(const KvecModel& model,
                      const ShardedStreamServerConfig& config);

  // Graceful shutdown: closes the queues, drains every already-accepted
  // task, then joins the workers. Accepted work is never dropped.
  ~ShardedStreamServer();

  ShardedStreamServer(const ShardedStreamServer&) = delete;
  ShardedStreamServer& operator=(const ShardedStreamServer&) = delete;

  // The shard an item with this key is routed to (deterministic hash).
  int ShardOf(int key) const;

  // Synchronous-semantics ingest: returns the item's events. Thread-safe
  // in both modes; in async mode it rides the task queue as a waited-on
  // control task (never shed).
  std::vector<StreamEvent> Observe(const Item& item);

  // Batched ingest with synchronous semantics: fans `items` out to their
  // shards (sync mode: global ThreadPool; async mode: the shard workers),
  // handing each shard its sub-batch as one contiguous microbatch
  // (StreamServer::ObserveBatch — arrival order within the shard
  // preserved, encoder projections batched through GEMM). Returned events
  // are grouped by shard (shard 0's events first), in emission order
  // within a shard. Thread-safe; never shed.
  std::vector<StreamEvent> ObserveBatch(const std::vector<Item>& items);

  // Fire-and-forget ingest, the overload-policy path. Routes `items` and
  // enqueues one sub-batch per shard under `overload_policy`:
  //   kBlock      — waits for queue space (backpressure);
  //   kShedNewest — a full queue drops the incoming sub-batch;
  //   kShedOldest — a full queue drops its oldest queued batch instead.
  // Every accepted item is eventually processed (visible via on_events and
  // stats); every dropped one is counted. After Drain() the overload
  // invariant holds: items_submitted == items_processed + items_shed.
  // Sync mode: runs inline (nothing to shed) with events to on_events.
  // Returns how many items this call caused to be shed (0 = nothing
  // dropped): the incoming sub-batches under kShedNewest, older queued
  // batches under kShedOldest. This is what lets the TCP front end answer
  // OVERLOADED per batch instead of discovering drops later in aggregate
  // stats.
  int64_t Submit(const std::vector<Item>& items);

  // Blocks until every task enqueued before this call has been processed.
  // Sync mode: no-op. Does not stop concurrent producers — quiescing is
  // the caller's protocol (stop submitting, then Drain).
  void Drain();

  // Force-classifies all still-open keys on every shard (waited-on control
  // task in async mode; drains each shard's queue first by FIFO order).
  std::vector<StreamEvent> Flush();

  // Merged view across shards: counters and class_counts are summed;
  // windows_started is the total across shards (each shard starts at 1);
  // items_submitted/batches_shed/items_shed aggregate the transport-layer
  // counters. The snapshot is coherent: sync mode holds ALL shard mutexes
  // while copying (no shard can be mid-batch); async mode answers through
  // each shard's task queue at a batch boundary.
  StreamServerStats stats() const;

  // One shard's own stats (same snapshot discipline as stats()).
  StreamServerStats shard_stats(int shard) const;

  // Forces a pool compaction on every shard (StreamServer::Compact), one
  // shard at a time through the owner seam — shard s rebuilds its pool
  // while every other shard keeps serving, so it composes with the
  // overload policies the same way checkpoint encode does. Returns how
  // many shards actually compacted (the `compaction.run` fault point can
  // suppress individual shards). The heuristic pass needs no call here:
  // each shard's own serving loop triggers it.
  int CompactAll();

  int open_keys() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool asynchronous() const { return config_.worker_threads > 0; }

  // ---- Checkpoint / warm restart (docs/SERVING.md). ----
  //
  // The checkpoint is a manifest section (shard count — restore fails on a
  // mismatch, since the key hash routes by shard count) plus one section
  // per shard holding that shard's full StreamServer snapshot. Sync mode
  // snapshots each shard under its mutex; async mode snapshots on the
  // owning worker behind everything already queued (quiesce =
  // drain-then-snapshot per shard). For a cross-shard-consistent
  // checkpoint, stop submitting first (concurrent ingest would land in
  // some shards' snapshots and not others).
  //
  // Restore stages every shard in a fresh StreamServer and swaps all of
  // them in only when the whole checkpoint parsed — a corrupt byte in any
  // shard leaves the server untouched. Restore also re-baselines the
  // transport counters (items_submitted := restored items_processed, shed
  // counters zeroed) so the overload invariant keeps holding after a warm
  // restart. SaveCheckpoint is atomic, as StreamServer's is.
  std::string EncodeCheckpoint() const;
  bool RestoreCheckpoint(const std::string& bytes);
  bool SaveCheckpoint(const std::string& path) const;
  bool LoadCheckpoint(const std::string& path);

  // ---- Incremental checkpoints: delta chains (docs/SERVING.md). ----
  //
  // On-disk layout: a full version-1 base at `base_path` plus consecutive
  // version-2 delta files at `base_path + ".delta.1"`, ".delta.2", ...
  // Each delta's manifest stores the base's fingerprint, the previous
  // link's fingerprint, and its own sequence number, so the loader can
  // reject a delta cut against a different base, a reordered chain, or a
  // gap — any non-linking file fails the whole load, target untouched.
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
  // Shards are serialized ONE AT A TIME through the worker seam, so the
  // rest of the fleet keeps serving during a snapshot; dirty bits are
  // cleared only after the bytes are durably on disk (a failed write —
  // see the `checkpoint.delta` fault point — leaves the server serving,
  // every dirty bit intact, and the previous chain loadable). A rebase
  // unlinks old deltas newest-first before atomically replacing the base,
  // so every crash point leaves a loadable chain on disk.
  bool CheckpointIncremental(const std::string& base_path, int rebase_every,
                             IncrementalCheckpointState* state);

  // Restores base + every consecutive delta, staged per shard and
  // committed all-or-nothing (same discipline as RestoreCheckpoint); any
  // undecodable or non-linking delta fails the load with the server
  // untouched. Passing `state` declares the intent to keep appending to
  // the chain: dirty tracking is re-armed at the restored state and
  // `state` is filled; a null `state` is a plain warm restart (tracking
  // stays disarmed so the dirty map cannot grow on a server that never
  // checkpoints again).
  bool RestoreFromCheckpointChain(const std::string& base_path,
                                  IncrementalCheckpointState* state = nullptr);

 private:
  // One queue entry: an item batch (fn empty) or a control task.
  struct ShardTask {
    std::vector<Item> items;
    std::function<void(StreamServer&)> fn;
  };

  struct Shard {
    // Sync mode: every access to `server` holds this mutex, and the
    // KVEC_GUARDED_BY below makes clang -Wthread-safety reject any that
    // does not. Async mode: the mutex is idle — `server` is owned by the
    // shard's worker thread and reached only through WorkerOwnedServer /
    // InstallServer, the two audited ownership-transfer points.
    mutable Mutex mutex;
    std::unique_ptr<StreamServer> server KVEC_GUARDED_BY(mutex);
    std::unique_ptr<BoundedQueue<ShardTask>> queue;  // async mode only
    std::thread worker;                              // async mode only
    // Transport-layer counters. Producers bump submitted/shed (Submit may
    // shed on the producer thread); stats snapshots read them. Atomics:
    // deliberately outside the mutex so the Submit hot path never locks.
    std::atomic<int64_t> items_submitted{0};
    std::atomic<int64_t> batches_shed{0};
    std::atomic<int64_t> items_shed{0};
  };

  void WorkerLoop(Shard* shard, int shard_index);
  // Posts `fn` to every shard (async: non-sheddable control task; sync:
  // runs under the shard mutex) and blocks until all shards ran it.
  void RunOnAllShards(const std::function<void(int, StreamServer&)>& fn) const;
  // Same seam for ONE shard: runs `fn` on the owning worker (async) or
  // under the shard mutex (sync) and blocks until it ran. Per-item Observe
  // goes through it; checkpoint encode and CompactAll iterate it so only
  // one shard is paused at a time while the rest of the fleet keeps
  // serving.
  void RunOnShard(int shard,
                  const std::function<void(StreamServer&)>& fn) const;
  // Charges `count` dropped items against `shard`'s shed counters.
  static void CountShed(Shard* shard, int64_t batches, int64_t items);

  // The synchronous-mode ingest body: requires the shard mutex, which is
  // what pins "callers run the shard engines in place, serialized on a
  // per-shard mutex" at compile time — delete the KVEC_REQUIRES and the
  // clang -Wthread-safety build fails on the guarded access inside.
  static std::vector<StreamEvent> ObserveBatchLocked(
      Shard& shard, const std::vector<Item>& items) KVEC_REQUIRES(shard.mutex);

  // Ownership-transfer point 1 (async mode): the worker's view of its own
  // shard. Safe without the mutex because (a) `server` is written before
  // the worker thread is spawned (constructor) or through InstallServer on
  // this same worker (restore), and (b) the queue's internal mutex gives
  // the worker a happens-before edge with every producer. Justification
  // for the escape hatch: TSA has no notion of thread ownership.
  static StreamServer& WorkerOwnedServer(Shard& shard)
      KVEC_NO_THREAD_SAFETY_ANALYSIS;

  // Ownership-transfer point 2 (checkpoint restore commit): swaps a staged
  // server in. Runs either under the shard mutex (sync mode, via
  // RunOnAllShards) or on the owning worker (async mode) — both exclusive,
  // but expressed as "lock OR ownership", which TSA cannot state.
  static void InstallServer(Shard& shard,
                            std::unique_ptr<StreamServer> server)
      KVEC_NO_THREAD_SAFETY_ANALYSIS;

  // Copies the transport atomics into an engine-stats snapshot the caller
  // already owns (no lock needed: the counters are atomics by design).
  static StreamServerStats MergeTransportCounters(const Shard& shard,
                                                  StreamServerStats stats);

  // The sync-mode coherent stats snapshot: acquires EVERY shard mutex in
  // index order, copies, releases. A dynamically-sized, loop-acquired lock
  // set is outside what TSA can model, so this one function opts out;
  // safety argument: index order is the only multi-mutex order in this
  // class, so no cycle is possible, and the loop releases exactly what it
  // acquired.
  std::vector<StreamServerStats> SnapshotAllShardsLocked() const
      KVEC_NO_THREAD_SAFETY_ANALYSIS;

  // A full checkpoint's sections, kept in their writers so Encode/Save
  // frame them without a copy: the manifest (the shard count), then one
  // writer per shard holding its index and StreamServer::Snapshot.
  void SnapshotSections(BinaryWriter* manifest,
                        std::vector<BinaryWriter>* shard_writers) const;
  // Shared body of the two restoring checkpoint entry points.
  bool RestoreFromCheckpoint(const Checkpoint& checkpoint);
  // Restore split in two so the chain loader can apply deltas between the
  // staging and the commit: Stage parses a full checkpoint into fresh
  // per-shard servers (no live state touched), Commit swaps them all in
  // and re-baselines the transport counters.
  bool StageFromCheckpoint(const Checkpoint& checkpoint,
                           std::vector<std::unique_ptr<StreamServer>>* staged);
  void CommitStaged(std::vector<std::unique_ptr<StreamServer>>* staged);

  const KvecModel& model_;
  ShardedStreamServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace kvec
