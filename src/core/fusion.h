// Embedding fusion (paper §IV-B, "Embedding Fusion"): folds the per-item
// attention embedding E(t)_e into the running sequence representation
// s(t)_k.
//
// The paper argues that parameter-free fusion (addition, averaging,
// concatenation) aggregates noise and proposes an LSTM-style multi-gate
// cell instead. This module implements the gated cell *and* the
// parameter-free alternatives so the claim is ablatable (ext_fusion bench):
//
//   kLstm  s_t = LstmFusionCell(s_{t-1}, E_t)        (the paper's choice)
//   kSum   s_t = s_{t-1} + E_t
//   kMean  s_t = (1/t) Σ_{i<=t} E_i
//   kLast  s_t = E_t                                 (no history at all)
//
// The parameter-free modes output embed_dim-wide representations; the
// gated mode outputs state_dim. KvecModel sizes its heads from
// `output_dim()`, so both work transparently.
#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/lstm_cell.h"
#include "nn/module.h"
#include "util/rng.h"

namespace kvec {

// Running fusion state of one key-value sequence on the Tensor path
// (training); every decision keeps the same rows in raw floats, see
// StepRow.
struct FusionState {
  Tensor hidden;  // s_t, the representation consumed by the heads
  Tensor cell;    // mode memory: LSTM cell (kLstm) / running sum (kMean)
  int count = 0;  // items fused so far

  bool defined() const { return hidden.defined(); }
};

class EmbeddingFusion : public Module {
 public:
  EmbeddingFusion(const KvecConfig& config, Rng& rng);

  // All-zero starting state.
  FusionState InitialState() const;

  // One fusion step; `item_embedding` is E(t)_e ([1, embed_dim]).
  FusionState Step(const FusionState& previous,
                   const Tensor& item_embedding) const;

  // Tensor-free serving step (OnlineClassifier): the state lives in
  // caller-owned rows, `hidden` (output_dim() floats) and `cell`
  // (cell_dim() floats; nullptr when that is 0), which start all-zero like
  // InitialState and are advanced in place. `count` is the number of items
  // fused including this one (Step's next.count). `scratch` holds
  // row_scratch_dim() floats. Bit-equal to Step (pinned by
  // core_fusion_test.cc); records no graph and allocates nothing.
  void StepRow(float* hidden, float* cell, int count, const float* embedding,
               float* scratch) const;

  // Width of `hidden`: state_dim for kLstm, embed_dim otherwise.
  int output_dim() const;
  // Width of `cell`: state_dim for kLstm, embed_dim for kMean, 0 otherwise.
  int cell_dim() const;
  int row_scratch_dim() const;

  KvecConfig::FusionKind kind() const { return kind_; }
  // The gated cell; nullptr unless kind() == kLstm.
  const LstmFusionCell* lstm() const { return lstm_.get(); }

  void CollectParameters(std::vector<Tensor>* out) override;

 private:
  KvecConfig::FusionKind kind_;
  int embed_dim_;
  int state_dim_;
  std::unique_ptr<LstmFusionCell> lstm_;
};

}  // namespace kvec

