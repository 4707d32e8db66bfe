// Differentiable operators over `Tensor`.
//
// Every function returns a new tensor whose backward function accumulates
// gradients into the inputs that require them. All gradients are verified
// against central finite differences in `tests/autograd_test.cc`.
#pragma once

#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {
namespace ops {

// The masking value standing in for -inf in attention masks. A large-but-
// finite value avoids NaNs from (-inf) - (-inf) in the softmax shift while
// still zeroing the masked weights.
inline constexpr float kNegInf = -1.0e9f;

// ---- Linear algebra ----

// [m,k] x [k,n] -> [m,n]
Tensor MatMul(const Tensor& a, const Tensor& b);

// a * b^T: [m,k] x [n,k] -> [m,n]. Used for Q K^T without materialising K^T.
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

// x W + bias in one graph node (one kernel pass, one output buffer). `bias`
// may be undefined for bias-free layers. This is Linear::Forward's backend.
Tensor LinearForward(const Tensor& x, const Tensor& weight,
                     const Tensor& bias);

Tensor Transpose(const Tensor& a);

// ---- Elementwise / shape ----

Tensor Add(const Tensor& a, const Tensor& b);  // same shape
Tensor Sub(const Tensor& a, const Tensor& b);  // same shape
Tensor Mul(const Tensor& a, const Tensor& b);  // Hadamard, same shape

// Broadcasts the [1,n] row `bias` over every row of `a` ([m,n]).
Tensor AddRow(const Tensor& a, const Tensor& bias);

// scale * a + shift, elementwise constants.
Tensor Affine(const Tensor& a, float scale, float shift);

// Sum of same-shaped tensors; flattens what would otherwise be a deep chain
// of Add nodes (used to accumulate per-step policy losses).
Tensor AddN(const std::vector<Tensor>& tensors);

// a.*b + c.*d in one node; the LSTM cell-state update without three
// intermediate tensors.
Tensor FusedMulAdd(const Tensor& a, const Tensor& b, const Tensor& c,
                   const Tensor& d);

// a .* tanh(b) in one node; the LSTM hidden-state update.
Tensor MulTanh(const Tensor& a, const Tensor& b);

// [m,na] ++ [m,nb] -> [m,na+nb]
Tensor ConcatCols(const Tensor& a, const Tensor& b);

// n-ary column concatenation in a single node; multi-head attention glues
// its head outputs with this instead of a chain of pairwise concats.
Tensor ConcatColsN(const std::vector<Tensor>& parts);

// Stacks n [1,d] rows into [n,d].
Tensor StackRows(const std::vector<Tensor>& rows);

// Copies row `row` of `a` into a [1,n] tensor (gradient routes back).
Tensor SliceRow(const Tensor& a, int row);

// Rows [begin, end) of `a`.
Tensor SliceRows(const Tensor& a, int begin, int end);

// Columns [begin, end) of `a` (gradient routes back). Used to split a
// projection into attention heads.
Tensor SliceCols(const Tensor& a, int begin, int end);

// ---- Nonlinearities ----

Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
// Natural log; inputs are clamped to >= eps to keep log finite.
Tensor Log(const Tensor& a, float eps = 1e-12f);

// Row-wise softmax.
Tensor Softmax(const Tensor& a);

// Row-wise softmax of (a + mask); `mask` is a constant (no gradient) matrix
// of {0, kNegInf} entries — the paper's dynamic mask matrix M(t).
Tensor MaskedSoftmax(const Tensor& a, const Tensor& mask);

// Row-wise log-softmax.
Tensor LogSoftmax(const Tensor& a);

// Inverted dropout: scales kept activations by 1/(1-p). Identity when
// `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training);

// Row-wise layer normalisation with learnable gain/bias ([1,d] each).
Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

// ---- Gather ----

// Rows of `table` ([vocab,d]) selected by `indices` -> [n,d]. Gradient
// scatter-adds into the table.
Tensor EmbeddingGather(const Tensor& table, const std::vector<int>& indices);

// ---- Reductions & losses ----

Tensor SumAll(const Tensor& a);   // -> [1,1]
Tensor MeanAll(const Tensor& a);  // -> [1,1]

// Sum over rows of -log softmax(logits)[label]: the paper's l1 term.
Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& labels);

// Mean of (pred_i - target_i)^2 over a [n,1] prediction column; targets are
// constants (the baseline regression of Algorithm 1, line 19).
Tensor MseLoss(const Tensor& pred, const std::vector<float>& targets);

// ---- Non-differentiable helpers ----

// argmax over row `row` of `a`; ties go to the lowest column.
int ArgMaxRow(const Tensor& a, int row);
// The same over a raw row of `cols` floats (the Tensor form forwards here).
int ArgMaxRow(const float* row, int cols);

}  // namespace ops
}  // namespace kvec

