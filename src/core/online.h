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
// Per-key state is one flat open-addressing table (util/flat_int_map.h)
// of small fixed-size records, so a lookup usually reads one cache line,
// next to one append-only float slab of fusion states; both come from the
// engine's memory resource. A key takes a slot on its first fused item and
// keeps it for the engine's lifetime (keys are never erased within a
// window, so slots are never freed and the table needs no erase).
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "core/correlation.h"
#include "core/encoder.h"
#include "core/model.h"
#include "util/flat_int_map.h"

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
};

class OnlineClassifier {
 public:
  // `model` must outlive the classifier and should be trained; the engine
  // never updates parameters. `memory` backs the long-lived per-key state
  // (the key-state table, the fusion-state slab and the correlation
  // tracker's containers);
  // StreamServer passes its shard's ShardPool, standalone users get the
  // default resource. The resource must outlive the classifier.
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
                    int* observed_items = nullptr);

  bool IsHalted(int key) const;
  // True when `key` has observed items and no verdict yet: exactly the
  // keys StreamServer keeps open. CountUndecided is O(keys).
  bool IsUndecided(int key) const;
  int CountUndecided() const;
  int num_items_observed() const { return num_items_; }
  int embed_dim() const { return model_.config().embed_dim; }

  // Serving-state checkpointing: the stream clock, the correlation
  // tracker, the encoder's K/V caches, and every per-key fusion state.
  // Restore must be given an engine built over the same model (dimensions
  // and correlation options are validated; weights are the caller's
  // responsibility, exactly as with Module::LoadParameters). Fails closed:
  // returns false with *this untouched on corrupt or mismatched bytes.
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
    // This key's fusion state: slot `slot` of KeyTable::slab holds the
    // hidden row then the cell row. -1 until the first fused item (the
    // state is then all-zero, EmbeddingFusion::InitialState).
    int slot = -1;
    int fused = 0;  // items folded into the fusion state (FusionState::count)
    bool halted = false;
    int observed = 0;
    int position_in_key = 0;
    int predicted = -1;
  };
  // Everything per key, all in the engine's memory resource. pmr
  // allocators do not propagate on assignment, so Restore builds a new
  // table; owning it through a pointer makes the commit a swap.
  struct KeyTable {
    explicit KeyTable(std::pmr::memory_resource* memory)
        : states(memory), slab(memory) {}
    FlatIntMap<KeyState> states;
    std::pmr::vector<float> slab;  // append-only, slot_width_ per slot
  };

  // Appends an all-zero slot to `table` and returns its index.
  int AddSlot(KeyTable* table) const;
  // Copies a restored record's rows (ReadKeyState) into `slot` of `table`,
  // or into a new slot when `slot` is -1, and points *state at it.
  void PlaceRows(KeyTable* table, int slot, const std::vector<float>& rows,
                 KeyState* state) const;
  float* SlotRows(int slot) {
    return keys_->slab.data() + static_cast<size_t>(slot) * slot_width_;
  }
  const float* SlotRows(int slot) const {
    return keys_->slab.data() + static_cast<size_t>(slot) * slot_width_;
  }
  // Runs the classifier on `hidden`, returning its argmax; the max-softmax
  // confidence goes to *confidence when it is non-null.
  int Classify(const float* hidden, double* confidence);

  // One per-key record of the snapshot byte stream (shared by the full and
  // delta paths so the two formats cannot drift). ReadKeyState leaves the
  // record's fusion rows (hidden then cell) in *rows, or clears it when the
  // record has none; state->slot is left -1 for the caller to place them.
  void WriteKeyState(BinaryWriter* writer, int key,
                     const KeyState& state) const;
  bool ReadKeyState(BinaryReader* reader, int* key, KeyState* state,
                    std::vector<float>* rows) const;

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
  // DecideObserved / ForceClassify scratch, sized once at construction:
  // the fusion step's rows, then the classifier's logits.
  std::vector<float> decide_scratch_;
};

}  // namespace kvec

