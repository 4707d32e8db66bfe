#include "nn/lstm_cell.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

LstmFusionCell::LstmFusionCell(int input_dim, int state_dim, Rng& rng)
    : input_dim_(input_dim),
      state_dim_(state_dim),
      forget_gate_(input_dim + state_dim, state_dim, rng),
      input_gate_(input_dim + state_dim, state_dim, rng),
      output_gate_(input_dim + state_dim, state_dim, rng),
      candidate_(input_dim + state_dim, state_dim, rng) {
  KVEC_CHECK_GT(input_dim, 0);
  KVEC_CHECK_GT(state_dim, 0);
  // Standard LSTM trick: bias the forget gate open so early training does
  // not erase the cell memory.
  for (float& v : forget_gate_.bias().impl()->data) v = 1.0f;
}

LstmState LstmFusionCell::InitialState() const {
  return {Tensor::Zeros(1, state_dim_), Tensor::Zeros(1, state_dim_)};
}

LstmState LstmFusionCell::Step(const LstmState& previous,
                               const Tensor& input) const {
  KVEC_CHECK(previous.defined());
  KVEC_CHECK_EQ(input.cols(), input_dim_);
  Tensor joined = ops::ConcatCols(previous.hidden, input);
  Tensor forget = ops::Sigmoid(forget_gate_.Forward(joined));
  Tensor in = ops::Sigmoid(input_gate_.Forward(joined));
  Tensor out = ops::Sigmoid(output_gate_.Forward(joined));
  Tensor candidate = ops::Tanh(candidate_.Forward(joined));
  // Fused update ops: 2 graph nodes for the state math instead of 5, which
  // matters on the serving path where Step runs once per stream item.
  Tensor cell = ops::FusedMulAdd(forget, previous.cell, in, candidate);
  Tensor hidden = ops::MulTanh(out, cell);
  return {hidden, cell};
}

void LstmFusionCell::StepRow(float* hidden, float* cell, const float* input,
                             float* scratch) const {
  // The same ops as Step in the same order, on rows: ConcatCols, four
  // Linear + Sigmoid/Tanh gates, FusedMulAdd, MulTanh.
  const int s = state_dim_;
  float* joined = scratch;
  float* forget = joined + s + input_dim_;
  float* in = forget + s;
  float* out = in + s;
  float* candidate = out + s;
  std::copy(hidden, hidden + s, joined);
  std::copy(input, input + input_dim_, joined + s);
  // The four gate products share the joined row: one fused RowGemv.
  const kernels::RowGemvTarget gates[] = {
      forget_gate_.RowTarget(forget), input_gate_.RowTarget(in),
      output_gate_.RowTarget(out), candidate_.RowTarget(candidate)};
  kernels::RowGemv(joined, s + input_dim_, s, gates, 4);
  for (int j = 0; j < s; ++j) {
    forget[j] = kernels::Sigmoid(forget[j]);
    in[j] = kernels::Sigmoid(in[j]);
    out[j] = kernels::Sigmoid(out[j]);
    candidate[j] = kernels::Tanh(candidate[j]);
  }
  for (int j = 0; j < s; ++j) {
    cell[j] = kernels::FusedMulAdd(forget[j], cell[j], in[j], candidate[j]);
    float tanh_cell;
    hidden[j] = kernels::MulTanh(out[j], cell[j], &tanh_cell);
  }
}

void LstmFusionCell::CollectParameters(std::vector<Tensor>* out) {
  forget_gate_.CollectParameters(out);
  input_gate_.CollectParameters(out);
  output_gate_.CollectParameters(out);
  candidate_.CollectParameters(out);
}

}  // namespace kvec
