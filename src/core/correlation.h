// Item-correlation tracking and the dynamic mask matrix M(t) (paper §IV-B).
//
// Two items of a tangled sequence are correlated when
//   * key correlation:   e.k == e'.k, or
//   * value correlation: there is a key k such that ⟨k, e.v⟩ and ⟨k, e'.v⟩
//     would fall in the same *session* of S_k (a maximal, uninterrupted run
//     of items agreeing on the session field).
//
// `CorrelationTracker` implements the streaming interpretation: when item i
// arrives it is correlated (a) with all earlier items of its own key and
// (b) with the items of any key's currently *open* session whose session-
// field value matches item i's and whose last item arrived at most
// `value_correlation_window` stream positions ago ("uninterrupted in time").
//
// Value matching is served by an inverted index: for each session value the
// tracker keeps the open sessions currently carrying that value in an
// intrusive recency list, newest first. An arriving item always holds the
// largest stream position, so moving its session to the front of its
// value's list is an O(1) relink. The item then walks its value's list
// newest-first and stops at the first session outside the recency window.
// The matched sessions' item lists are merged through a reused bitmap over
// [lowest matched position, index), read out in ascending order with
// count-trailing-zeros, so the per-item cost is O(own-key items + matches +
// span/64) — independent of the total number of open sessions. When the
// span is wide relative to the match count the merge sorts the matches
// instead. The pre-index implementation scanned every open session per
// item, which is exactly what a busy server with 10⁵ open keys cannot
// afford (see bench/micro_pipeline.cc, BM_CorrelationObserve).
//
// The same tracker drives both the batch mask builder used in training and
// the online inference engine, so the two cannot drift apart:
// BuildEpisodeMask is a loop over ObserveItem and therefore exercises the
// identical index.
//
// Threading: NOT thread-safe; a tracker belongs to exactly one engine
// (OnlineClassifier) and is mutated on every ObserveItem. Independent
// trackers on different threads never share state.
//
// Memory: one record per key holds both the key's item list and its open
// session (including the session's index vector), so an item costs one
// per-key lookup plus one in the inverted index. The lookup is a flat
// key -> record-index table (util/flat_int_map.h, 8-byte slots); the
// records live in an append-only store of fixed chunks that never move,
// filled in first-observation order. A tracker never drops a key during
// its life (one engine window), so the store never erases, and destroying
// the tracker walks the records chunk by chunk in address order. A
// record's index is its key's id (see "Key ids" below): the engine and
// the serving index keep their per-key state in arrays indexed by it, so
// this table is the only key -> per-window state map in a serving shard.
// The table, the chunks, the records' vectors and the inverted index
// allocate from the memory_resource passed at construction; only the
// per-item merge scratch uses the default heap. Serving hands in the
// shard's ShardPool so session churn recycles pool blocks; training and
// tests use the default resource.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "data/types.h"
#include "tensor/tensor.h"
#include "util/flat_int_map.h"
#include "util/serialize.h"

namespace kvec {

class CorrelationTracker {
 public:
  explicit CorrelationTracker(
      const CorrelationOptions& options,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  // Registers the next stream item and returns the indices of *earlier*
  // items visible to it (its own index is always implicitly visible).
  // Indices are global stream positions, strictly increasing calls.
  // Same-key indices come first (ascending); cross-key value-correlated
  // indices follow, also ascending — a canonical order, so batched and
  // item-at-a-time consumers see identical sets in identical order.
  std::vector<int> ObserveItem(const Item& item);
  // The same state update, writing the visible set into *visible (its
  // capacity is reused). A null `visible` skips building the set — the
  // value-match walk and merge — for a consumer that will not attend for
  // this item; the tracker's state, and so every later visible set and
  // every snapshot byte, is the same either way.
  void ObserveItem(const Item& item, std::vector<int>* visible) {
    ObserveItem(item, AddKey(item.key), visible);
  }
  // The same, for an item whose key has id `id` (from AddKey).
  void ObserveItem(const Item& item, int32_t id, std::vector<int>* visible);

  int num_observed() const { return next_index_; }

  // ---- Key ids. ----
  // A key's id is the index of its record: ids are dense from 0, assigned
  // in the order keys first reach the tracker (ObserveItem, AddKey,
  // Restore, ApplyDelta), and a key keeps its id for the tracker's life.
  // A fresh or restored tracker numbers its keys from 0 again.
  int32_t num_keys() const { return state_->records.size(); }
  // The id of `key`, or -1 when the tracker holds no record of it.
  int32_t FindKey(int key) const {
    const int32_t* id = state_->keys.Find(key);
    return id == nullptr ? -1 : *id;
  }
  // The id of `key`, appending an empty record when the key is new; the
  // caller observes the key's item next, with ObserveItem(item, id, ...).
  int32_t AddKey(int key) { return state_->Upsert(key); }

  // Serving-state checkpointing. Snapshot writes a canonical (key-sorted)
  // byte stream; Restore parses it into a tracker constructed with the
  // same options and rebuilds the inverted index from the open sessions.
  // Restore fails closed: on truncated/corrupt bytes, an options mismatch,
  // or structurally impossible indices (out of range, session items out of
  // order, two sessions at one stream position) it returns false and
  // leaves *this untouched.
  // When `by_key` is non-null, it receives every (key, id) pair in
  // ascending key order, the order the records were written, so an owner
  // snapshotting per-key state beside the tracker shares the one sort.
  using KeyOrder = std::vector<std::pair<int, int32_t>>;
  void Snapshot(BinaryWriter* writer, KeyOrder* by_key = nullptr) const;
  bool Restore(BinaryReader* reader);

  // Delta checkpointing (docs/SERVING.md "Incremental checkpoints").
  // Per-key state only ever changes when that key's item is observed, so a
  // delta carries the *current* state of exactly the keys in
  // `dirty_sorted` (strictly ascending): the item-index list and the open
  // session, each behind a presence flag. ApplyDelta upserts those keys
  // into a tracker already holding the base state — replacing their lists
  // and sessions, then relinking the inverted index from the result — and
  // adopts the delta's stream clock. `expected_next_index`, when
  // non-negative, must match the delta's clock (the caller cross-checks
  // against the engine's item count). ApplyDelta fails closed on corrupt
  // bytes (the same session checks as Restore) but may leave *this
  // partially updated, inverted index included, so it must not observe
  // again — callers stage into a scratch tracker (the chain loader's
  // staged-servers pattern) and discard on failure.
  void SnapshotDelta(BinaryWriter* writer,
                     const std::vector<int>& dirty_sorted) const;
  bool ApplyDelta(BinaryReader* reader, int expected_next_index = -1);

 private:
  // An open session (the key's current run of one session value) and its
  // link in that value's recency list (RebuildValueIndex sets them from
  // scratch after a restore).
  struct OpenSession {
    using allocator_type = std::pmr::polymorphic_allocator<int>;
    explicit OpenSession(const allocator_type& alloc) : item_indices(alloc) {}

    int key = -1;  // the owning record's key, set when the record is made
    int session_value = -1;
    std::pmr::vector<int> item_indices;  // members of the open session
    int last_index = -1;                 // -1: not in any recency list
    // Neighbours in the session value's recency list (null at the ends).
    OpenSession* newer = nullptr;
    OpenSession* older = nullptr;
  };

  // Everything the tracker keeps for one key, so an item costs one lookup:
  // every item of the key in this tracker's lifetime, and the open session.
  // An observed key has both. A checkpoint may carry either alone (the two
  // are separate lists in the byte stream), so each has a presence flag and
  // a restored record re-snapshots exactly what it was given.
  // Allocator-aware so the store's uses-allocator construction hands its
  // resource to both vectors.
  struct KeyRecord {
    using allocator_type = std::pmr::polymorphic_allocator<int>;
    explicit KeyRecord(const allocator_type& alloc)
        : items(alloc), session(alloc) {}

    std::pmr::vector<int> items;
    OpenSession session;
    bool has_items = false;
    bool has_session = false;
  };

  // Append-only storage for the key records: fixed chunks of kChunkRecords
  // records, allocated from the tracker's resource as they fill. A record
  // never moves, so the recency links can point into the records' sessions
  // and an index into the store stays valid for the store's life. Indices
  // run in address order within a chunk, and destruction frees the records
  // chunk by chunk in that order.
  class RecordStore {
   public:
    explicit RecordStore(std::pmr::memory_resource* memory)
        : alloc_(memory), chunks_(memory) {}
    RecordStore(const RecordStore&) = delete;
    RecordStore& operator=(const RecordStore&) = delete;
    ~RecordStore();

    int32_t size() const { return size_; }
    KeyRecord& operator[](int32_t i) {
      return chunks_[i >> kChunkShift][i & kChunkMask];
    }
    const KeyRecord& operator[](int32_t i) const {
      return chunks_[i >> kChunkShift][i & kChunkMask];
    }
    // Builds an empty record for `key` at the end and returns its index.
    int32_t Append(int key);

   private:
    // 256 records of 104 bytes: a chunk (26 KB) is far above the largest
    // block a ShardPool pools, so each one is its own upstream block.
    static constexpr int kChunkShift = 8;
    static constexpr int32_t kChunkRecords = int32_t{1} << kChunkShift;
    static constexpr int32_t kChunkMask = kChunkRecords - 1;

    std::pmr::polymorphic_allocator<KeyRecord> alloc_;
    std::pmr::vector<KeyRecord*> chunks_;
    int32_t size_ = 0;
  };

  // All pool-backed containers live behind one pointer: pmr allocators do
  // not propagate on assignment, so Restore stages a new State in the
  // tracker's resource and commits it by swapping the pointer.
  struct State {
    explicit State(std::pmr::memory_resource* memory)
        : keys(memory), records(memory), by_value(memory) {}
    // The id of `key`, with an empty record appended when the key is new.
    int32_t Upsert(int key);

    // The hot per-item lookup: key -> index of its record in `records`.
    FlatIntMap<int32_t> keys;
    RecordStore records;
    // Inverted index: session value -> newest open session carrying it,
    // the head of a list ordered by strictly decreasing last_index, so the
    // window cutoff is a newest-first walk stopping at the first stale
    // session. Values with no open session have no entry.
    std::pmr::unordered_map<int, OpenSession*> by_value;
  };

  // Writes the visible set of the item at stream position `index` of
  // `key` (own-key items `own_items`, value list head `head`) to *visible,
  // before the item updates any state.
  void CollectVisible(int index, int key,
                      const std::pmr::vector<int>& own_items,
                      const OpenSession* head, std::vector<int>* visible);

  // Appends the union of runs_ (the matched sessions' item lists, each
  // ascending, pairwise disjoint, all below `index`) to `visible` in
  // ascending order, keeping only the most recent max_value_correlations.
  void AppendValueMatches(int index, int num_matches,
                          std::vector<int>* visible);

  // Recency-list edits. Unlink finds the list's by_value entry through the
  // session_value the session is listed under, and drops the entry when
  // the list empties.
  static void PushNewest(OpenSession** head, OpenSession* session);
  static void Unlink(State* state, OpenSession* session);

  // The per-key record codecs Snapshot and SnapshotDelta share: a key's
  // item list, and an open session (value, last index, item indices). The
  // readers reject stream positions outside [0, next_index) and leave
  // their target untouched on failure.
  static void WriteItems(BinaryWriter* writer,
                         const std::pmr::vector<int>& items);
  static bool ReadItems(BinaryReader* reader, int next_index,
                        std::pmr::vector<int>* items);
  static void WriteSession(BinaryWriter* writer, const OpenSession& session);
  static bool ReadSession(BinaryReader* reader, int next_index,
                          OpenSession* session);

  // Links every open session with a stream position into its value's
  // recency list, from scratch. Returns false when two sessions claim one
  // stream position (impossible in a real stream: a corrupt checkpoint).
  static bool RebuildValueIndex(State* state);

  CorrelationOptions options_;
  int next_index_ = 0;
  std::pmr::memory_resource* memory_;
  std::unique_ptr<State> state_;
  // Per-item scratch, reused so ObserveItem allocates only its result: the
  // matched sessions' item runs and the merge bitmap (all-zero between
  // calls; at most two words per match, since wider spans sort instead).
  // Both live on the default heap: their size follows the largest match
  // set, not the number of keys.
  struct Run {
    const int* begin;
    const int* end;
  };
  std::vector<Run> runs_;
  std::vector<uint64_t> union_bits_;
};

// The dynamic mask matrix over a whole episode.
struct EpisodeMask {
  // [T,T] tensor with 0 where item j is visible to item i (j <= i) and
  // ops::kNegInf elsewhere; constant (no gradient).
  Tensor mask;
  // For attention instrumentation (Fig. 10): visible[i] lists the stream
  // positions j < i visible to i.
  std::vector<std::vector<int>> visible;
};

// Builds M(T) for `episode` under `options`.
EpisodeMask BuildEpisodeMask(const TangledSequence& episode,
                             const CorrelationOptions& options);

}  // namespace kvec

