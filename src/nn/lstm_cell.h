// The embedding-fusion cell of KVRL (paper §IV-B, "Embedding Fusion").
//
// An LSTM-style gated cell adapted to fuse the per-item attention embedding
// E(t)_e into the running sequence representation s(t)_k:
//
//   f_t = σ(W_f [s_{t-1}; E_t] + b_f)        forget gate
//   i_t = σ(W_i [s_{t-1}; E_t] + b_i)        input gate
//   o_t = σ(W_o [s_{t-1}; E_t] + b_o)        output gate
//   C_t = f_t ⊙ C_{t-1} + i_t ⊙ tanh(W_c [s_{t-1}; E_t] + b_c)
//   s_t = o_t ⊙ tanh(C_t)
#pragma once

#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {

// Hidden state of one key-value sequence: (s, C) pair, each [1, state_dim].
struct LstmState {
  Tensor hidden;  // s_t, the sequence representation
  Tensor cell;    // C_t

  bool defined() const { return hidden.defined(); }
};

class LstmFusionCell : public Module {
 public:
  LstmFusionCell(int input_dim, int state_dim, Rng& rng);

  // Initial all-zero state (a graph leaf).
  LstmState InitialState() const;

  // One fusion step; `input` is the item embedding E(t)_e ([1, input_dim]).
  LstmState Step(const LstmState& previous, const Tensor& input) const;

  // Tensor-free serving step: advances the caller-owned rows `hidden` and
  // `cell` (state_dim floats each) in place by one `input` row (input_dim
  // floats). `scratch` holds row_scratch_dim() floats. Bit-equal to Step;
  // records no graph and allocates nothing.
  void StepRow(float* hidden, float* cell, const float* input,
               float* scratch) const;
  // The joined [s; E] row plus the four gate rows.
  int row_scratch_dim() const { return input_dim_ + 5 * state_dim_; }

  void CollectParameters(std::vector<Tensor>* out) override;

  int input_dim() const { return input_dim_; }
  int state_dim() const { return state_dim_; }

 private:
  int input_dim_;
  int state_dim_;
  Linear forget_gate_;
  Linear input_gate_;
  Linear output_gate_;
  Linear candidate_;
};

}  // namespace kvec

