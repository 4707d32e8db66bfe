// Bounded-memory stream serving on top of OnlineClassifier.
//
// OnlineClassifier is exact but unbounded: its incremental-encoder caches
// grow with every stream item and its per-key states are never evicted. A
// long-running deployment (a router classifying flows for days) needs
// bounds. StreamServer adds three:
//
//   * window rotation — after `max_window_items` items the whole engine is
//     rebuilt, discarding the encoder caches. Keys still open are
//     force-classified first. Cross-window value correlations are lost;
//     that is the price of O(window) memory and it is measured by the
//     stream-server tests (the window should comfortably exceed the
//     value-correlation window, after which nothing is lost).
//   * idle timeout — a key that has not produced an item for
//     `idle_timeout` stream positions is force-classified and evicted
//     (flow ended without a FIN, user went away).
//   * capacity eviction — when more than `max_open_keys` keys are open,
//     the least recently active one is force-classified.
//
// Both evictions are driven by the serving index: one slot per engine key,
// indexed by the key's id (the engine's correlation tracker numbers its
// keys densely, see CorrelationTracker "Key ids"), whose open slots form
// an intrusive recency list, least recently active first. The engine
// hands each decided item's id to the bookkeeping, so the index looks no
// key up. Stream positions only grow, so a touched key always moves to
// the tail and the list stays ordered by (last_seen, key) without any
// search: touching a key, closing it, popping the LRU key and each step of
// an idle sweep are O(1), and a sweep never scans the open set. Only the
// callers that need key order pay a sort: Snapshot, and the close-all of a
// window rotation or Flush, which classify keys in ascending key order.
//
// Every classification (policy halt or forced) is emitted as a
// StreamEvent, with the cause recorded, so downstream consumers see one
// verdict per key-value sequence.
//
// Threading: NOT thread-safe — one server serves one stream from one
// thread. For concurrent ingest wrap shards in ShardedStreamServer,
// which serialises same-shard callers on a per-shard mutex.
//
// Memory: all long-lived per-key state — the serving index's slots, the
// engine's key states and fusion rows, and the correlation tracker's key
// table and records — allocates from a per-server ShardPool
// (std::pmr::unsynchronized_pool_resource), so session churn recycles
// pool blocks instead of hitting the global allocator. The tracker's key
// table is the shard's one key -> per-window state map; the engine's and
// the index's arrays are indexed by its ids. A pool never returns chunks
// while it lives, so the window rotation is where one is released: once
// every key is closed, a pool holding at least 4 MiB is dropped whole and
// the next window starts on a fresh one. docs/SERVING.md "Memory
// management" covers the lifecycle.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "core/online.h"
#include "util/arena.h"
#include "util/flat_int_map.h"
#include "util/serialize.h"

namespace kvec {

// Checkpoint-container section ids (kCheckpointSection*) live in the
// registry in util/serialize.h.

struct StreamServerConfig {
  // Engine rebuild period, in stream items. Should be much larger than the
  // model's value-correlation window so rotations rarely cut correlations.
  int max_window_items = 4096;
  // Evict a key once `idle_timeout` stream positions have passed since its
  // last item, i.e. when position - last_seen >= idle_timeout. A key last
  // seen at position p survives items p+1 .. p+idle_timeout-1 and is
  // evicted by the check at position p+idle_timeout.
  int idle_timeout = 512;
  // Idle keys are swept every `idle_check_interval` items, so eviction can
  // lag the deadline by up to idle_check_interval-1 positions. The sweep
  // walks the last-seen index oldest-first and is O(evicted), so 1 is an
  // acceptable setting; the default stays coarse for deployments that want
  // evictions batched.
  int idle_check_interval = 32;
  // Maximum concurrently open keys before LRU eviction.
  int max_open_keys = 1024;
};

struct StreamEvent {
  enum class Cause {
    kPolicyHalt,         // the ECTL policy halted the key
    kIdleTimeout,        // evicted after idle_timeout
    kCapacityEviction,   // evicted to respect max_open_keys
    kWindowRotation,     // force-classified at an engine rebuild
    kFlush,              // force-classified by Flush()
  };

  int key = 0;
  int predicted_label = -1;
  int observed_items = 0;
  double confidence = 0.0;
  Cause cause = Cause::kPolicyHalt;
};

struct StreamServerStats {
  int64_t items_processed = 0;
  int64_t sequences_classified = 0;
  // Per-cause verdict counters; they partition sequences_classified.
  int64_t policy_halts = 0;
  int64_t idle_timeouts = 0;
  int64_t capacity_evictions = 0;
  int64_t rotation_classifications = 0;
  int64_t flush_classifications = 0;
  int windows_started = 1;
  std::vector<int64_t> class_counts;  // predictions per class

  // ---- Transport-layer (submission/overload) counters. ----
  //
  // Maintained by ShardedStreamServer's ingest layer, not by the serving
  // loop: a bare StreamServer leaves them 0, and they are deliberately NOT
  // part of the checkpoint snapshot (they describe the life of a process,
  // not serving state — and the v1 golden layout stays byte-identical).
  // Within one server lifetime the overload invariant holds:
  //   items_submitted == items_processed + items_shed.
  int64_t items_submitted = 0;  // items offered to Observe/ObserveBatch/Submit
  int64_t batches_shed = 0;     // batches dropped by a shed overload policy
  int64_t items_shed = 0;       // items inside those dropped batches

  // ---- Memory counters. ----
  //
  // Gauges refreshed from the shard pool / encoder on every stats() read,
  // plus a lifetime count of released pools. Like the transport counters they
  // are NOT serialized (process-lifetime observability, and the v1
  // checkpoint layout stays byte-identical). Merge() sums them, so a
  // sharded server's view reports fleet-total resident bytes.
  // Shard pool + encoder arena + scratch.
  int64_t bytes_resident = 0;
  int64_t pool_blocks = 0;         // chunks the pool holds from the OS
  int64_t scratch_high_water = 0;  // batch scratch arena high-water bytes
  int64_t compactions = 0;         // pools released at a window rotation

  // Items whose key already had a verdict when they arrived: the engine
  // keeps them only as context for other keys, and skips their final-block
  // row when the verdict predates their microbatch. Process-local like the
  // memory counters (never serialized; Restore keeps the live value) and
  // summed by Merge().
  int64_t items_after_verdict = 0;

  // Accumulates `other` into this view: counters and class_counts are
  // summed (class_counts widened as needed); windows_started adds up, so
  // start a merged view from windows_started = 0.
  void Merge(const StreamServerStats& other);
};

class StreamServer {
 public:
  // `model` must be trained and outlive the server.
  StreamServer(const KvecModel& model, const StreamServerConfig& config);

  // Feeds the next stream item; returns every classification event it
  // triggered (the item's own policy halt, plus any evictions/rotation).
  // Runs entirely under InferenceMode: no autograd tape is built.
  std::vector<StreamEvent> Observe(const Item& item);

  // Batched ingest: processes `items` in stream order and returns the
  // concatenation of the per-item event lists — the same StreamEvent
  // sequence (keys, labels, causes, order) that len(items) Observe calls
  // would have produced (pinned by core_batch_equivalence_test.cc). The
  // encoder runs each microbatch through blocked GEMMs, splitting only at
  // window-rotation boundaries; eviction bookkeeping stays per item.
  std::vector<StreamEvent> ObserveBatch(const std::vector<Item>& items);

  // Force-classifies all still-open keys (end of stream).
  std::vector<StreamEvent> Flush();

  // Refreshes the memory gauges before returning (compactions/counters are
  // maintained incrementally; the gauges mirror live pool state).
  const StreamServerStats& stats() const;
  int open_keys() const { return index_->num_open; }

  // ---- Checkpoint / warm restart (docs/SERVING.md). ----
  //
  // StreamServer owns the record codec only. ShardedStreamServer frames,
  // writes and reads every checkpoint file, one Snapshot per shard
  // section, and it alone still reads the plain layout (one
  // kCheckpointSectionStreamServer section, the v1 golden's).
  //
  // Snapshot captures everything the serving loop owns — config, stream
  // clocks, stats, the open-key map — plus the engine (correlation index,
  // encoder K/V arena, per-key fusion states). Restoring into a server
  // built over the same model yields a server whose subsequent StreamEvent
  // sequence is identical to an uninterrupted run on the same input
  // (pinned by tests/core_checkpoint_replay_test.cc).
  //
  // Restore fails closed: on truncated, corrupted, or model-mismatched
  // bytes it returns false and the server is untouched (pinned by the
  // corruption-fuzz test). So does an open-key set that disagrees with the
  // engine: every open key must be an engine key with observed items and
  // no verdict, and every such engine key must be open (and inside the
  // engine, its key states and correlation records must be one key set).
  // The snapshot stores (key, last_seen) pairs in strictly ascending key
  // order; the recency list is rebuilt from them, ordered by (last_seen,
  // key). The snapshot must be the reader's final content (it always is in
  // a checkpoint section); trailing bytes are treated as corruption.
  void Snapshot(BinaryWriter* writer) const;
  bool Restore(BinaryReader* reader);
  // Takes over `live`'s process-local counters (the released-pool count,
  // items_after_verdict, the scratch high-water), which no snapshot
  // carries: a server restored beside `live` to replace it then keeps the
  // live values, as Restore into `live` itself would.
  void KeepProcessLocalCounters(const StreamServer& live);

  // ---- Incremental (delta) checkpointing (docs/SERVING.md). ----
  //
  // The server tracks which keys were mutated since the last committed
  // snapshot (observe, policy halt, eviction, rotation — every path that
  // touches a key's serving or engine state marks it dirty), and
  // SnapshotDelta serialises only those keys: the serving-index upserts
  // for dirty keys still open, tombstones for dirty keys no longer open,
  // the engine-side per-key deltas, and the encoder K/V rows appended
  // since the base. Cost is proportional to churn, not population.
  //
  // The snapshot/commit pair is two-phase so a failed delta write cannot
  // lose dirty bits: SnapshotDelta *stages* a clear (remembering the
  // current dirty epoch); CommitDeltaBaseline applies it once the bytes
  // are durable, erasing only entries at or below the staged epoch — a
  // key re-dirtied between the two calls carries a later epoch and stays
  // dirty. If the write fails, simply never commit: the next delta
  // re-carries everything. Tracking is armed by the first
  // StageDeltaBaseline + CommitDeltaBaseline pair (a full-checkpoint
  // baseline); until then MarkDirty is a no-op, so servers that never
  // checkpoint incrementally pay nothing and the dirty map cannot grow.
  //
  // ApplyDelta expects *this to hold exactly the predecessor state of the
  // chain (validated via the engine's item-clock echo); it fails closed
  // on corrupt bytes, and on an open-key set that disagrees with the
  // engine (the same check as Restore), but may leave *this partially
  // updated, so callers stage into fresh servers and commit all-or-nothing
  // (ShardedStreamServer::RestoreFromCheckpointChain). A full Restore
  // disarms dirty tracking; the chain loader re-arms it after commit.
  void SnapshotDelta(BinaryWriter* writer);
  bool ApplyDelta(BinaryReader* reader);
  // Stages the dirty-clear + baselines matching the state being snapshot
  // right now. SnapshotDelta stages implicitly; full-checkpoint callers
  // (the rebase path) call this next to Snapshot() in the same control
  // task so the baseline is atomic with the bytes.
  void StageDeltaBaseline();
  void CommitDeltaBaseline();

 private:
  // Emits a forced classification for the open key with id `id` and
  // drops it from the open set.
  void ForceClose(int32_t id, StreamEvent::Cause cause,
                  std::vector<StreamEvent>* events);
  // Force-closes every open key, in ascending key order (window rotation
  // and Flush).
  void CloseAllInKeyOrder(StreamEvent::Cause cause,
                          std::vector<StreamEvent>* events);
  // Closes every open key, then starts the next window: on a fresh pool
  // when the live pool holds at least kReleasePoolBytes, else over the
  // live one.
  void RotateWindow(std::vector<StreamEvent>* events);
  // Replaces the engine with a fresh one over `pool` that inherits the
  // retiring engine's K/V arena, and the index with an empty one over
  // `pool`: the fresh engine numbers its keys from 0 (RotateWindow, and
  // ApplyDelta across a rotation).
  void RebuildEngine(ShardPool* pool);
  void EvictIdle(std::vector<StreamEvent>* events);
  void RecordEvent(const StreamEvent& event);
  // The one ingest body behind Observe (count = 1) and ObserveBatch:
  // rotate → EncodeBatch → per-item DecideObserved + Bookkeep → scratch
  // reset, one microbatch per window segment.
  std::vector<StreamEvent> ObserveItems(const Item* items, int count);
  // Post-decision bookkeeping for one observed item: advances the clocks,
  // emits/halts/evicts.
  void Bookkeep(const Item& item, const OnlineDecision& decision,
                std::vector<StreamEvent>* events);

  // An open key's (key, last_seen), as checkpoints carry it.
  using OpenKeyRecord = std::pair<int, int64_t>;

  // The pool-backed serving index: one slot per engine key id, grown as
  // the engine adds keys, whose open slots are linked into a recency list,
  // head = least recently active. The list is ordered by (last_seen,
  // key): Touch appends at the tail, which is correct because every touch
  // carries a position later than any in the list, and the paths that can
  // set any last_seen (Restore, ApplyDelta) call Open. Ids restart with
  // every engine, and pmr allocators do not propagate on assignment, so a
  // new engine (a rotation, Restore's staged commit) comes with a new
  // index; owning it through a pointer makes that a swap.
  struct KeyIndex {
    static constexpr int32_t kNone = -1;
    struct Slot {
      int64_t last_seen = 0;  // global stream position of the latest item
      int32_t prev = kNone;   // next less recently active open key
      int32_t next = kNone;   // next more recently active open key
      int key = 0;            // set when the slot opens
      bool open = false;      // fed to the engine and not yet closed
    };

    // The slots start above the pool's largest pooled block (4 KB with
    // the default pool options), so they are always one upstream block:
    // growing through the small size classes would leave a cached chunk
    // in each (OnlineClassifier::GrowKeys reserves its arrays alike).
    explicit KeyIndex(std::pmr::memory_resource* memory) : slots(memory) {
      slots.reserve(256);
    }

    // Opens `id` (key `key`) if it is closed, sets its last_seen and moves
    // it to the tail of the list.
    void Touch(int32_t id, int key, int64_t last_seen);
    // Closes `id`; no-op when it is not open.
    void Close(int32_t id);
    // Opens (or re-stamps) each (key, last_seen) of `records` at
    // `engine`'s ids, then re-sorts the list by (last_seen, key). Returns
    // false unless every record names an engine key and the open slots
    // are then exactly the keys `engine` has observed and not yet
    // classified (Restore and ApplyDelta reject any other state).
    bool Open(const std::vector<OpenKeyRecord>& records,
              const OnlineClassifier& engine);

    std::pmr::vector<Slot> slots;
    int32_t head = kNone;  // least recently active: the LRU candidate
    int32_t tail = kNone;  // most recently active
    int num_open = 0;

   private:
    void Unlink(int32_t id);
    void Append(int32_t id);
  };

  // The record codecs Snapshot and SnapshotDelta share (one layout each,
  // so v1 and v2 cannot drift apart).
  // The header both layouts open with: the four serialized config knobs,
  // the stream clock, and the serialized stats. ReadHeader keeps the live
  // process-local fields (released-pool count, memory gauges) and checks what
  // any header must satisfy; Restore and ApplyDelta add their own checks.
  struct Header {
    StreamServerConfig config;
    int64_t position = 0;
    int window_items = 0;
    StreamServerStats stats;
  };
  void WriteHeader(BinaryWriter* writer) const;
  bool ReadHeader(BinaryReader* reader, Header* header) const;
  // Copies the process-local fields of `from` into *to.
  static void CopyProcessLocal(const StreamServerStats& from,
                               StreamServerStats* to);
  // A (key, last_seen) list of open keys, written in the given order.
  // ReadOpenKeys rejects a last_seen outside [0, position] and keys that
  // are not strictly ascending.
  static void WriteOpenKeys(BinaryWriter* writer,
                            const std::vector<OpenKeyRecord>& records);
  static bool ReadOpenKeys(BinaryReader* reader, int64_t position,
                           std::vector<OpenKeyRecord>* records);


  // Records `key` as mutated since the last committed delta baseline.
  // No-op until dirty tracking is armed (see SnapshotDelta above).
  void MarkDirty(int key) {
    if (dirty_tracking_) dirty_keys_[key] = dirty_epoch_;
  }

  // Copies live pool/encoder gauges into stats_ (const via mutable: the
  // gauges are observability, not serving state).
  void RefreshMemoryStats() const;

  const KvecModel& model_;
  StreamServerConfig config_;
  // Declared before the members that allocate from it so it outlives them
  // (destruction runs bottom-up).
  std::unique_ptr<ShardPool> pool_;
  std::unique_ptr<OnlineClassifier> engine_;
  std::unique_ptr<KeyIndex> index_;
  int64_t position_ = 0;  // global items processed
  int window_items_ = 0;  // items in the current engine window
  mutable StreamServerStats stats_;
  std::vector<float> rows_;  // EncodeBatch output, reused across calls

  // ---- Dirty-key tracking (incremental checkpoints). ----
  // On the default heap, deliberately NOT pool-backed: the dirty map is
  // checkpoint bookkeeping, not serving state — it outlives every pool a
  // rotation releases and a snapshot of it is never taken.
  using DirtyKeyMap = FlatIntMap<int64_t>;  // key -> epoch of mutation
  bool dirty_tracking_ = false;
  int64_t dirty_epoch_ = 0;
  DirtyKeyMap dirty_keys_;
  // Baselines of the last committed snapshot: the engine item clock the
  // encoder tail starts from, and the window generation (a mismatch means
  // the engine was rebuilt since the base, so the delta carries the whole
  // young window from item 0).
  int base_engine_items_ = 0;
  int base_windows_started_ = 1;
  // Staged by StageDeltaBaseline, applied by CommitDeltaBaseline.
  bool pending_baseline_ = false;
  int64_t pending_epoch_ = 0;
  int pending_engine_items_ = 0;
  int pending_windows_started_ = 1;
  // SnapshotDelta's key lists, kept between deltas: a churning shard's
  // lists run to hundreds of KB, which a fresh allocation faults in anew.
  std::vector<int> delta_dirty_;
  std::vector<OpenKeyRecord> delta_open_;
  std::vector<int> delta_tombstones_;
};

}  // namespace kvec

