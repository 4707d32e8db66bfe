// The KVRL encoder (paper §IV-B): input embedding followed by stacked
// correlation-masked attention blocks, producing the per-item embeddings
// E(t)_e that the fusion cell consumes.
//
// Because the dynamic mask matrix is causal (item i only attends to j ≤ i),
// encoding a whole episode once is equivalent to re-encoding after every
// arrival; see DESIGN.md §4.1. `IncrementalEncoder` exploits this at
// inference time: it appends one row per arriving item in O(t·d) instead of
// recomputing the full O(t²·d) pass, and is verified to match the batch
// encoder bit-for-bit-ish (1e-4) in tests.
//
// Threading: KvrlEncoder::Forward is a const read — concurrent calls over
// a frozen encoder are safe (each gets its own tape). IncrementalEncoder
// is stateful and NOT thread-safe: one instance per serving engine, which
// is how OnlineClassifier and each ShardedStreamServer shard use it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/correlation.h"
#include "core/input_embedding.h"
#include "nn/attention.h"
#include "nn/module.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace kvec {

struct EncodeResult {
  Tensor embeddings;                      // E(T): [T, d]
  std::vector<Tensor> attention_weights;  // one [T,T] per block
  EpisodeMask mask;
};

class KvrlEncoder : public Module {
 public:
  KvrlEncoder(const KvecConfig& config, Rng& rng);

  EncodeResult Forward(const TangledSequence& episode,
                       const EpisodeIndex& index, Rng& rng,
                       bool training) const;

  void CollectParameters(std::vector<Tensor>* out) override;

  const InputEmbedding& input_embedding() const { return input_; }
  const std::vector<AttentionBlock>& blocks() const { return blocks_; }
  const KvecConfig& config() const { return config_; }

 private:
  KvecConfig config_;
  InputEmbedding input_;
  std::vector<AttentionBlock> blocks_;
};

// Streaming forward pass over a frozen KvrlEncoder. No gradients, no
// dropout; caches per-block keys/values and computes only the new row(s)
// for each arriving item or microbatch.
//
// Memory layout: all cached K/V panels live in ONE contiguous arena,
// grown geometrically, laid out SoA head-major —
// for block b and head h the keys of items 0..t form one contiguous
// [t, head_dim] panel. The attention score loop over an item's visible set
// therefore gathers contiguous head_dim-long rows (kernels::GatherDots and
// kernels::GatherWeightedSum on sequential memory) instead of striding across a [t, d] row-major matrix,
// and a window rotation hands the whole arena to the next window's encoder
// (AdoptArena) at full capacity.
// (The seed implementation kept three std::vectors per block — including a
// block-outputs cache that nothing ever read — each reallocating
// independently as the window grew.)
class IncrementalEncoder {
 public:
  explicit IncrementalEncoder(const KvrlEncoder& encoder);

  IncrementalEncoder(const IncrementalEncoder&) = delete;
  IncrementalEncoder& operator=(const IncrementalEncoder&) = delete;

  // Appends the next stream item: a microbatch of one (AppendBatch with
  // batch = 1). `position_in_key` is its 0-based index within its key
  // sequence; `visible` lists the earlier stream positions it may attend to
  // (from CorrelationTracker::ObserveItem). Returns the final-block
  // embedding row E(t)_e (length d).
  std::vector<float> AppendItem(const Item& item, int position_in_key,
                                const std::vector<int>& visible);

  // Cross-item microbatch: appends `batch` consecutive stream items at
  // once. items[i] arrives at stream position num_items() + i with
  // visibility `visibles[i]` (which may reference earlier items of the
  // same batch — their K/V rows are cached before any attention runs).
  // The Q/K/V/FFN projections run as one [batch, d] GemmNN per weight;
  // only the attention gather and the layer norms stay per-row. Writes the
  // final-block rows to `rows` ([batch, d], row-major). Bit-identical to
  // `batch` single-item appends, because GemmNN computes each output row
  // independently of the others (pinned by core_batch_equivalence_test and
  // tensor_property_test).
  //
  // `needed` (length `batch`, or null for all rows) names the rows the
  // caller will read. Every item still gets its K/V rows in every block —
  // later items attend to it — but the final block's query projection,
  // attention, output projection, layer norms and FFN run only on the
  // needed rows, gathered into one compact panel. A needed row is
  // bit-identical to the unmasked call's; a row that is not needed comes
  // back zero. The visible set of an item that is not needed is read only
  // when the encoder has more than one block (the earlier blocks attend
  // for every item).
  void AppendBatch(const Item* items, const int* positions_in_key,
                   const std::vector<int>* visibles, int batch,
                   std::vector<float>* rows, const uint8_t* needed = nullptr);

  int num_items() const { return num_items_; }

  // Serving-state checkpointing. Snapshot re-serialises the arena as one
  // [num_items, head_dim] float vector per (block, head, K/V) panel — the
  // SoA layout is an implementation detail the byte stream does not
  // depend on. Restore validates the geometry against the frozen encoder,
  // stages every panel, and only then touches the arena, so a failed
  // restore (truncation, corruption, encoder mismatch) returns false with
  // *this untouched.
  // When `expected_items` is non-negative the stream's item count must
  // match it (callers cross-check against their own clock so a checkpoint
  // with internally inconsistent sections is rejected before commit).
  void Snapshot(BinaryWriter* writer) const;
  bool Restore(BinaryReader* reader, int expected_items = -1);

  // Delta checkpointing (docs/SERVING.md "Incremental checkpoints"). The
  // K/V cache is append-only within a window — row t is written once when
  // item t arrives and never rewritten — so the rows in [base_items,
  // num_items()) are exactly what changed since a snapshot taken at
  // base_items. SnapshotTail serialises only that suffix (plus the
  // geometry header, so corrupted deltas still fail closed on mismatch).
  // RestoreTail requires the receiver to sit exactly at base_items and,
  // when `expected_items` is non-negative, the restored count to match it;
  // panels are staged before the arena is touched, same contract as
  // Restore.
  void SnapshotTail(BinaryWriter* writer, int base_items) const;
  bool RestoreTail(BinaryReader* reader, int expected_items = -1);

  // Takes `retiring`'s K/V arena at its full capacity, leaving `retiring`
  // with none. *this must hold no items and share `retiring`'s frozen
  // encoder. The inherited rows are never read: only rows [0, num_items())
  // are, and each is written when its item arrives. The arena never
  // shrinks: every window fills to the owner's window bound before it
  // rotates, so the capacity one window reached is the next one's too.
  void AdoptArena(IncrementalEncoder* retiring);

  // Rewinds the batch scratch arena (called after a drained microbatch;
  // AppendBatch also resets defensively on entry).
  void ResetScratch() { scratch_.Reset(); }

  // ---- Memory accounting ----
  // Bytes of the K/V arena plus the batch scratch arena.
  size_t resident_bytes() const {
    return ArenaFloats(capacity_) * sizeof(float) + scratch_.reserved_bytes();
  }
  size_t scratch_high_water() const { return scratch_.high_water(); }

 private:
  static void LayerNormRow(const Tensor& gamma, const Tensor& beta,
                           float* x, int n);

  // Arena geometry. Panels are per (block, head) for K and V:
  //   K(b,h) = arena + b·2·C·d + h·C·head_dim
  //   V(b,h) = arena + b·2·C·d + C·d + h·C·head_dim
  // where C = capacity_ (items). head_dim·num_heads == d.
  // Floats of an arena that holds `capacity` items: K and V panels of
  // every block.
  size_t ArenaFloats(int capacity) const {
    return 2 * encoder_.blocks().size() * static_cast<size_t>(capacity) * dim_;
  }
  float* KeyPanel(int block, int head);
  float* ValuePanel(int block, int head);
  // Grows the arena (geometrically) to hold at least `min_items` cached
  // items, moving the live panels into the new layout.
  void EnsureCapacity(int min_items);
  // Scatters one item's k/v rows (length d each) into the head panels.
  void ScatterKv(int block, int t, const float* k, const float* v);
  // Masked attention for one query row against the cached panels of
  // `block`; writes the concatenated head outputs (length d) to `out`.
  void AttendRow(int block, const float* q, const std::vector<int>& targets,
                 float* out);

  // The record codecs the full and tail snapshots share. The geometry
  // echo (dim, head_dim, num_heads, blocks) must match the frozen encoder.
  // The panels are one float vector of the rows [from, to) per (block,
  // head, K/V); WritePanels writes to = num_items(). ReadPanels stages
  // every panel before it touches the arena, then commits them and sets
  // num_items() to `to`; on failure *this is untouched.
  void WriteGeometry(BinaryWriter* writer) const;
  bool ReadGeometry(BinaryReader* reader) const;
  void WritePanels(BinaryWriter* writer, int from) const;
  bool ReadPanels(BinaryReader* reader, int from, int to);

  const KvrlEncoder& encoder_;
  int dim_;
  int head_dim_;
  int num_heads_;
  int num_items_ = 0;
  int capacity_ = 0;           // cached items the arena can hold
  int max_ffn_dim_ = 1;        // widest FFN hidden layer over the blocks
  std::vector<float> arena_;   // see layout above

  // Batch scratch (AppendBatch): all [batch, ·] panels come from this
  // monotonic arena, reset at the top of every batch — per-microbatch
  // scratch costs one pointer bump per panel instead of nine allocations
  // (and plateaus at the largest batch seen).
  ScratchArena scratch_;
  std::vector<float> scores_;
  std::vector<int> targets_;
};

}  // namespace kvec

