// Streaming inference engine: classify key-value sequences of a live
// tangled stream, one item — or one microbatch — at a time.
//
// This is the deployment-shaped API of the library (e.g., a router deciding
// per-flow application types as packets arrive). It combines
//  * a CorrelationTracker (streaming visibility sets),
//  * an IncrementalEncoder (O(t·d) per item instead of re-encoding), and
//  * the frozen fusion / policy / classifier heads of a trained KvecModel.
// Deterministic halting (Halt iff π(s) > 0.5). This engine is the only
// place a trained model reaches a decision: KvecTrainer::Evaluate serves
// each episode through it, and tests compare it against the Tensor
// reference rollout in tests/reference_rollout.h.
//
// Observation is split into two stages so callers can microbatch:
//  * EncodeBatch — correlation tracking + incremental encoding for B
//    consecutive stream items, driving the encoder's projections through
//    one GEMM per block (B = 1 for Observe). Every item reaches the
//    correlation tracker and every block's K/V cache (halted keys
//    included: their items shape the visibility sets and attention context
//    of live keys), but only an item whose key has no verdict when the
//    batch starts gets a final-block row; with one encoder block, such an
//    item's visible set is not built either.
//  * DecideObserved — per item, folds the encoded row into its key's
//    fusion state and runs the halting policy / classifier. This stage is
//    tensor-free: the frozen heads' row entry points (EmbeddingFusion::
//    StepRow, EctlPolicy::HaltProbabilityRow, SequenceClassifier::
//    LogitsRow) work on raw float rows, bit-equal to their Tensor forms,
//    and make no heap allocation once a key has its state slot.
// Observe == EncodeBatch of one item + DecideObserved, and ObserveBatch is
// stream-order equivalent to B Observe calls (pinned by
// core_batch_equivalence_test.cc). StreamServer interleaves the two stages
// with its own bookkeeping to keep eviction semantics identical.
//
// Threading: NOT thread-safe — every call mutates the stream clock, the
// correlation index, and the encoder caches. Run one engine per serving
// thread; ShardedStreamServer does exactly that (one engine per shard
// behind a per-shard mutex) while all engines share one frozen model.
// Complexity: O(t_visible · d) per item for encoding (incremental, never
// re-encodes history) plus O(matches + log) correlation tracking — see
// core/correlation.h. Memory grows with every observed item until the
// owner rotates the engine (StreamServer's max_window_items bound).
// Per-key state has no table of its own: a key's id is its record index in
// the correlation tracker (CorrelationTracker "Key ids"), and the engine
// keeps one array of small fixed-size records and one float slab of fusion
// states, both indexed by that id and both from the engine's memory
// resource. EncodeBatch looks each item's key up once, in the tracker's
// table, and records the id for DecideObserved, so deciding an item looks
// nothing up. A key keeps its id and its row for the engine's lifetime
// (keys are never erased within a window), and the engine's keys and the
// tracker's records are always the same set: Restore and ApplyDelta
// reject any checkpoint where they differ.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "core/correlation.h"
#include "core/encoder.h"
#include "core/model.h"

namespace kvec {

// The engine's verdict on one observed item.
struct OnlineDecision {
  int key = 0;
  bool halted_now = false;       // this item triggered the halt of its key
  bool already_halted = false;   // key was halted earlier; item ignored
  int predicted_label = -1;      // valid once halted
  double halt_probability = 0.0;
  double confidence = 0.0;  // classifier max-softmax, set on halt
  int observed_items = 0;   // n_k so far
  int32_t id = -1;          // the key's id in the engine (num_keys)
};

class OnlineClassifier {
 public:
  // `model` must outlive the classifier and should be trained; the engine
  // never updates parameters. `memory` backs the long-lived per-key state
  // (the key states, the fusion-state slab and the correlation tracker's
  // containers); StreamServer passes its shard's ShardPool, standalone
  // users get the default resource. The resource must outlive the
  // classifier.
  explicit OnlineClassifier(
      const KvecModel& model,
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());

  // Feeds the next item of the tangled stream (chronological order).
  OnlineDecision Observe(const Item& item);

  // Batched ingest: equivalent to calling Observe on each item in order
  // (items must be in stream order), but the encoder runs the whole batch
  // through blocked GEMMs. Returns one decision per item, in order.
  std::vector<OnlineDecision> ObserveBatch(const std::vector<Item>& items);

  // ---- Two-stage API (used by StreamServer; see file comment). ----

  // Stage 1: tracks + encodes `count` consecutive stream items, writing
  // their final-block embedding rows to `rows` ([count, embed_dim],
  // row-major). Advances per-key positions and the stream clock. The row
  // of an item whose key was already halted when the call began is zero:
  // DecideObserved ignores it.
  void EncodeBatch(const Item* items, int count, std::vector<float>* rows);

  // Stage 2: folds `row` (length embed_dim, from EncodeBatch) into `key`'s
  // fusion state and evaluates halting, exactly as Observe does. Must be
  // called once per encoded item, in stream order.
  OnlineDecision DecideObserved(int key, const float* row);

  // Forces classification of a still-open key from its current state
  // (e.g., when the flow terminates). Returns -1 if the key was never seen.
  // When `confidence` is non-null it receives the classifier's max-softmax
  // probability (0 if the key was never seen), and when `observed_items` is
  // non-null the key's observed-item count (0 if never seen).
  int ForceClassify(int key, double* confidence = nullptr,
                    int* observed_items = nullptr) {
    return ForceClassifyById(FindKey(key), confidence, observed_items);
  }

  bool IsHalted(int key) const {
    const int32_t id = FindKey(key);
    return id >= 0 && keys_->states[id].halted;
  }
  int num_items_observed() const { return num_items_; }

  // ---- Key ids (the tracker's; see the file comment). ----
  // Ids run over [0, num_keys()); StreamServer indexes its serving index
  // with them. A restored engine numbers its keys anew.
  int32_t num_keys() const { return tracker_.num_keys(); }
  // The id of `key`, or -1 when the engine has never seen it.
  int32_t FindKey(int key) const { return tracker_.FindKey(key); }
  // ForceClassify of the key with id `id` (-1: a key never seen).
  int ForceClassifyById(int32_t id, double* confidence, int* observed_items);
  // True when the key with id `id` has observed items and no verdict yet:
  // exactly the keys StreamServer keeps open.
  bool IsUndecidedById(int32_t id) const {
    return keys_->states[id].observed > 0 && !keys_->states[id].halted;
  }
  int embed_dim() const { return model_.config().embed_dim; }

  // Serving-state checkpointing: the stream clock, the correlation
  // tracker, the encoder's K/V caches, and every per-key fusion state.
  // Restore must be given an engine built over the same model (dimensions
  // and correlation options are validated; weights are the caller's
  // responsibility, exactly as with Module::LoadParameters). Fails closed:
  // returns false with *this untouched on corrupt or mismatched bytes, and
  // on key states whose keys are not exactly the tracker's (ApplyDelta
  // checks the same of the keys it adds).
  void Snapshot(BinaryWriter* writer) const;
  bool Restore(BinaryReader* reader);

  // Delta checkpointing (docs/SERVING.md "Incremental checkpoints"): the
  // engine-side state of exactly the keys in `dirty_sorted` (strictly
  // ascending stream keys mutated since the base snapshot), the correlation
  // tracker's delta for the same keys, and the encoder's appended K/V rows
  // since `base_items`. The caller passes base_items = 0 after a window
  // rotation (the delta then carries the whole young window). ApplyDelta
  // expects *this to hold exactly the base state (its item clock must equal
  // the delta's base_items echo) and upserts on top; it fails closed on
  // corrupt bytes but may leave *this partially updated — callers stage
  // into a scratch engine and discard on failure, exactly like the chain
  // loader's staged-servers pattern.
  void SnapshotDelta(BinaryWriter* writer, const std::vector<int>& dirty_sorted,
                     int base_items) const;
  bool ApplyDelta(BinaryReader* reader);

  // Takes `retiring`'s encoder K/V arena at full capacity (see
  // IncrementalEncoder::AdoptArena); *this must not have observed an item
  // yet. A window rotation builds the next engine this way, so the new
  // window does not regrow the arena from empty.
  void AdoptEncoderArena(OnlineClassifier* retiring);

  // Returns the encoder's batch scratch arena to its reset point; the
  // serving loop calls this after each drained microbatch.
  void ResetEncodeScratch();

  // ---- Memory accounting (see StreamServerStats) ----
  size_t encoder_resident_bytes() const;  // K/V arena + scratch reserved
  size_t scratch_high_water() const;

 private:
  struct KeyState {
    int fused = 0;  // items folded into the fusion state (FusionState::count)
    int observed = 0;
    int position_in_key = 0;
    int predicted = -1;
    bool halted = false;
    // The key's fusion state is set (its slab row is all-zero until then,
    // EmbeddingFusion::InitialState); false until the first fused item.
    bool has_rows = false;
  };
  // Everything per key, indexed by the key's id, all in the engine's
  // memory resource. pmr allocators do not propagate on assignment, so
  // Restore builds a new table; owning it through a pointer makes the
  // commit a swap.
  struct KeyTable {
    explicit KeyTable(std::pmr::memory_resource* memory)
        : states(memory), slab(memory) {}
    std::pmr::vector<KeyState> states;
    // slot_width_ floats per id: the hidden row, then the cell row.
    std::pmr::vector<float> slab;
  };

  // Grows `table` to `size` ids; the new ones get an empty state.
  void GrowKeys(KeyTable* table, int32_t size) const;
  float* SlotRows(int32_t id) {
    return keys_->slab.data() + static_cast<size_t>(id) * slot_width_;
  }
  const float* SlotRows(int32_t id) const {
    return keys_->slab.data() + static_cast<size_t>(id) * slot_width_;
  }
  // Runs the classifier on `hidden`, returning its argmax; the max-softmax
  // confidence goes to *confidence when it is non-null.
  int Classify(const float* hidden, double* confidence);

  // The per-key records of the snapshot byte stream (shared by the full
  // and delta paths so the two formats cannot drift). ReadKeyStates reads
  // a list of them (strictly ascending keys) into `table` at the ids of
  // `tracker`, which holds exactly the keys the list must cover: every
  // record's key has a tracker record, and every id at or past
  // `num_base_keys` (the ids `table` held before) gets a record. Restore
  // passes 0; ApplyDelta, whose tracker delta appended the new ids, the
  // engine's key count before it.
  void WriteKeyState(BinaryWriter* writer, int key, int32_t id) const;
  bool ReadKeyStates(BinaryReader* reader, const CorrelationTracker& tracker,
                     int32_t num_base_keys, KeyTable* table) const;

  const KvecModel& model_;
  std::pmr::memory_resource* memory_;
  const int hidden_dim_;  // EmbeddingFusion::output_dim()
  const int cell_dim_;    // EmbeddingFusion::cell_dim(); 0 for kSum/kLast
  const int slot_width_;  // hidden_dim_ + cell_dim_
  IncrementalEncoder incremental_;
  CorrelationTracker tracker_;
  std::unique_ptr<KeyTable> keys_;
  int num_items_ = 0;
  // EncodeBatch scratch, reused across calls.
  std::vector<std::vector<int>> visible_scratch_;
  std::vector<int> position_scratch_;
  std::vector<uint8_t> needed_scratch_;  // 1: the item's key has no verdict
  // The last EncodeBatch's (key, id) pairs, in stream order, and the next
  // one DecideObserved expects: a caller keeping to its contract decides
  // without a lookup.
  std::vector<std::pair<int, int32_t>> encoded_;
  size_t next_decide_ = 0;
  // DecideObserved / ForceClassify scratch, sized once at construction:
  // the fusion step's rows, then the classifier's logits.
  std::vector<float> decide_scratch_;
};

}  // namespace kvec

