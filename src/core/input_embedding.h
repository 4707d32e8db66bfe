// Input embedding of KVRL (paper §IV-B): the preliminary hidden vector of
// each item is the sum of
//   * value embeddings    — one learned table per value field, summed;
//   * membership embedding — which key-value sequence the item belongs to;
//   * relative position embedding — the item's index within its sequence;
//   * time embedding      — the item's arrival order in the tangled stream.
// The latter three can be disabled for the ablation study (Fig. 9).
#pragma once

#include <vector>

#include "core/config.h"
#include "data/types.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "util/rng.h"

namespace kvec {

// Precomputed per-item indices of one episode; shared by the embedding
// layer, the trainer, and the instrumentation.
struct EpisodeIndex {
  std::vector<int> keys;           // item -> key id
  std::vector<int> position_in_key;  // item -> 0-based index within S_k

  static EpisodeIndex Build(const TangledSequence& episode);
};

// True when AccumulateItemRow can embed `item` for a model over `spec`:
// one value per field, every token inside its field's vocabulary and,
// while the membership embedding is on, a key that clamps to a membership
// row (key >= 0). These are exactly the conditions the lookups abort on,
// so input from outside the process (TCP clients, hand-written CSV data)
// is checked with this before it reaches a model.
bool ItemFitsEmbedding(const Item& item, const DatasetSpec& spec,
                       bool membership_embedding);

class InputEmbedding : public Module {
 public:
  InputEmbedding(const KvecConfig& config, Rng& rng);

  // [T, embed_dim] matrix E(T)_0 for the whole episode.
  Tensor Forward(const TangledSequence& episode,
                 const EpisodeIndex& index) const;

  // Streaming variant: adds the input-embedding row of a single item (at
  // stream position `time_index`, `position_in_key` within its sequence)
  // into `row` (length embed_dim). Raw math, no autograd; used by
  // IncrementalEncoder and kept equivalent to Forward by tests.
  void AccumulateItemRow(const Item& item, int position_in_key,
                         int time_index, std::vector<float>* row) const;

  // Same, writing into a raw row of a caller-owned [B, embed_dim] matrix —
  // the batched streaming path fills its input panel without per-item
  // vectors.
  void AccumulateItemRow(const Item& item, int position_in_key,
                         int time_index, float* row) const;

  void CollectParameters(std::vector<Tensor>* out) override;

 private:
  KvecConfig config_;
  std::vector<Embedding> value_embeddings_;  // one per value field
  Embedding membership_embedding_;
  Embedding position_embedding_;
  Embedding time_embedding_;
};

}  // namespace kvec

