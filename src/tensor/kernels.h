// Dense float32 GEMM kernels shared by the autograd operators.
//
// The three layouts cover every matmul in the library, forward and backward
// (MatMul, MatMulTransposeB, Linear, and their gradients):
//
//   GemmNN: C[m,n] (+)= A[m,k] · B[k,n]
//   GemmNT: C[m,n] (+)= A[m,k] · B[n,k]^T   (rows of B are the k-vectors)
//   GemmTN: C[m,n] (+)= A[k,m]^T · B[k,n]
//
// All matrices are dense row-major with no padding. `accumulate` selects
// C += (gradient accumulation) vs C = (forward outputs). Kernels are
// register-tiled, cache-blocked, `__restrict`-annotated, and FMA-friendly;
// on x86 they use AVX-512/FMA or AVX2/FMA intrinsics when the compiler
// targets them (-march=native), with a blocked scalar fallback otherwise.
// Work is split over ThreadPool::Global() row panels once the multiply is
// large enough to amortise the fork (see kParallelFlopThreshold).
//
// Aliasing contract: C must not overlap A or B. A and B may alias each
// other (e.g. Q·Qᵀ).
//
// Row contract: GemmNN computes every row of C with the same accumulation
// order whatever m, the row tile or the thread chunk, so row i of an
// [m, n] product equals the [1, n] product of row i alone, bit for bit.
// The incremental encoder's microbatches depend on this to match
// single-item appends exactly (pinned by tests/tensor_property_test.cc).
//
// Row kernels: RowGemv, GatherDots and GatherWeightedSum serve one input
// row (the serving decide and the incremental encoder's attention) with
// every output tile in its own register. Each output element is the same
// chain of operations, in the same order, as its reference, so it matches
// that reference bit for bit on every kernel build:
//
//   RowGemv            GemmNN (m = 1) followed by AddBiasRows. An element
//                      is a p-ordered FMA chain from +0 over x[p]·W[p, j];
//                      in the last n % W columns (W = the vector width:
//                      16 AVX-512, 8 AVX2), which GemmNN runs through its
//                      scalar remainder, terms with x[p] == 0 are skipped as
//                      that remainder skips them. The bias is one add.
//   GatherDots         Dot on every gathered row: the vector FMA chain,
//                      Dot's horizontal sum, then the scalar tail in order.
//   GatherWeightedSum  out[c] += w[s] · row_s[c] over s in order from +0,
//                      one FMA per term.
//
// RowGemv and GatherWeightedSum fuse every product explicitly, as does
// GemmNN's scalar remainder in SIMD builds, so their contract does not
// depend on the compiler contracting `c += a * b` (GCC does only from -O2).
// GatherDots shares Dot's body, scalar tail included, so the two agree at
// every optimisation level. The scalar fallback build runs the reference
// loops themselves. tests/tensor_test.cc compares the row kernels with
// their references bit for bit.
#pragma once

#include <cmath>
#include <cstddef>

namespace kvec {
namespace kernels {

// Multiplies below this many multiply-accumulates run on the calling thread;
// forking the pool costs ~a few microseconds, so small serving-path matmuls
// ([1,d] x [d,d]) stay inline.
inline constexpr long long kParallelFlopThreshold = 1LL << 18;

void GemmNN(const float* a, const float* b, float* c, int m, int k, int n,
            bool accumulate);
void GemmNT(const float* a, const float* b, float* c, int m, int k, int n,
            bool accumulate);
void GemmTN(const float* a, const float* b, float* c, int m, int k, int n,
            bool accumulate);

// dot(a, b) over n floats.
float Dot(const float* a, const float* b, int n);

// ---- Row kernels (see the row-kernel contract above) ------------------------

// One product of RowGemv: y[0, n) = x · weight[k, n] (+ bias[0, n)).
struct RowGemvTarget {
  const float* weight;  // [k, n], row-major
  const float* bias;    // n floats, or nullptr for no bias
  float* y;             // n floats; must not overlap x, weight or bias
};

// y_g = x · W_g (+ b_g) for `count` products that share the input row x
// (k floats) and the output width n. Bit-equal to GemmNN(x, W_g, y_g, 1, k,
// n, false) followed by AddBiasRows for each product.
void RowGemv(const float* x, int k, int n, const RowGemvTarget* targets,
             int count);

// out[s] = Dot(q, rows + index[s] · n, n) for s in [0, count): one query
// row against gathered rows of a row-major panel.
void GatherDots(const float* q, const float* rows, const int* index,
                int count, int n, float* out);

// out[0, n) = Σ_s weights[s] · (rows + index[s] · n)[0, n), summed in s
// order from zero: the weighted sum of gathered rows.
void GatherWeightedSum(const float* weights, const float* rows,
                       const int* index, int count, int n, float* out);

// C[i, :] += bias for every row i of C[m, n]; the broadcast epilogue of a
// batched linear (GemmNN on the weight followed by one bias sweep).
inline void AddBiasRows(float* c, const float* bias, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* row = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) row[j] += bias[j];
  }
}

// ---- Elementwise bodies ----------------------------------------------------
//
// The one definition of each formula, called by both the autograd ops
// (tensor/ops.cc) and the tensor-free serving rows (EmbeddingFusion::StepRow,
// the heads' *Row entry points), so the two paths cannot drift apart.
// core_fusion_test.cc pins them bit-equal.

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
inline float Tanh(float x) { return std::tanh(x); }
// a·b + c·d: the LSTM cell update f ⊙ C + i ⊙ C̃.
inline float FusedMulAdd(float a, float b, float c, float d) {
  return a * b + c * d;
}
// a · tanh(b): the LSTM hidden update o ⊙ tanh(C). tanh(b) also goes to
// *tanh_b, which the autograd op keeps for its backward pass.
inline float MulTanh(float a, float b, float* tanh_b) {
  *tanh_b = Tanh(b);
  return a * *tanh_b;
}
inline float Affine(float x, float scale, float shift) {
  return scale * x + shift;
}

}  // namespace kernels
}  // namespace kvec

