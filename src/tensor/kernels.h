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
#pragma once

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

// C[i, :] += bias for every row i of C[m, n]; the broadcast epilogue of a
// batched linear (GemmNN on the weight followed by one bias sweep).
void AddBiasRows(float* c, const float* bias, int m, int n);

}  // namespace kernels
}  // namespace kvec

