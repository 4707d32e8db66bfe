#include "tensor/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "util/thread_pool.h"

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace kvec {
namespace kernels {
namespace {

// ---- Portable SIMD shims ----------------------------------------------------
//
// One micro-kernel body is written against these; the register width and tile
// shape adapt to the best ISA the compiler targets. kMR x (kNV * kVecWidth)
// is the C tile held in registers across the whole k loop.

#if defined(__AVX512F__)

using VReg = __m512;
constexpr int kVecWidth = 16;
constexpr int kMR = 6;  // C-tile rows: 24 accumulators + 4 B regs < 32 zmm
constexpr int kNV = 4;  // C-tile width in vectors (64 floats)
inline VReg VLoad(const float* p) { return _mm512_loadu_ps(p); }
inline void VStore(float* p, VReg v) { _mm512_storeu_ps(p, v); }
inline VReg VBroadcast(float x) { return _mm512_set1_ps(x); }
inline VReg VZero() { return _mm512_setzero_ps(); }
inline VReg VFma(VReg a, VReg b, VReg acc) { return _mm512_fmadd_ps(a, b, acc); }
inline VReg VAdd(VReg a, VReg b) { return _mm512_add_ps(a, b); }
inline VReg VMul(VReg a, VReg b) { return _mm512_mul_ps(a, b); }
// Row kernels: tiles held in registers at once (16 accumulators leave
// room for the broadcast, the loads and the bias in 32 zmm).
constexpr int kRowTiles = 16;
// The first `lanes` (1..16) lanes of a vector; masked-off lanes neither
// load nor store.
using VMask = __mmask16;
inline VMask VFirstLanes(int lanes) {
  return static_cast<VMask>((1u << lanes) - 1u);
}
inline VReg VMaskLoad(const float* p, VMask m) {
  return _mm512_maskz_loadu_ps(m, p);
}
inline void VMaskStore(float* p, VMask m, VReg v) {
  _mm512_mask_storeu_ps(p, m, v);
}
// The sum in _mm512_reduce_add_ps's order (halves, quarters, pairs,
// then the last two lanes), so results stay bit-identical to it. GCC's
// version extracts through _mm256_undefined_pd and warns
// -Wuninitialized; vector-extension shuffles have no pass-through.
inline float VSum(VReg v) {
  const __m256 lo = __builtin_shufflevector(v, v, 0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 hi =
      __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m256 half = _mm256_add_ps(hi, lo);
  const __m128 quarter = _mm_add_ps(_mm256_extractf128_ps(half, 1),
                                    _mm256_castps256_ps128(half));
  const __m128 pairs = _mm_add_ps(
      quarter, _mm_shuffle_ps(quarter, quarter, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(pairs) +
         _mm_cvtss_f32(_mm_shuffle_ps(pairs, pairs, _MM_SHUFFLE(1, 1, 1, 1)));
}
#define KVEC_HAVE_SIMD 1

#elif defined(__AVX2__) && defined(__FMA__)

using VReg = __m256;
constexpr int kVecWidth = 8;
constexpr int kMR = 4;
constexpr int kNV = 2;  // 16 floats; 8 accumulators + loads fit 16 ymm regs
inline VReg VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, VReg v) { _mm256_storeu_ps(p, v); }
inline VReg VBroadcast(float x) { return _mm256_set1_ps(x); }
inline VReg VZero() { return _mm256_setzero_ps(); }
inline VReg VFma(VReg a, VReg b, VReg acc) { return _mm256_fmadd_ps(a, b, acc); }
inline VReg VAdd(VReg a, VReg b) { return _mm256_add_ps(a, b); }
inline VReg VMul(VReg a, VReg b) { return _mm256_mul_ps(a, b); }
constexpr int kRowTiles = 8;  // 8 accumulators + operands fit 16 ymm regs
using VMask = __m256i;
inline VMask VFirstLanes(int lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline VReg VMaskLoad(const float* p, VMask m) {
  return _mm256_maskload_ps(p, m);
}
inline void VMaskStore(float* p, VMask m, VReg v) {
  _mm256_maskstore_ps(p, m, v);
}
inline float VSum(VReg v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}
#define KVEC_HAVE_SIMD 1

#else
#define KVEC_HAVE_SIMD 0
#endif

#if KVEC_HAVE_SIMD

// ---- Broadcast micro-kernel (GemmNN / GemmTN) -------------------------------
//
// C tile [MR x NV*W] (+)= A-slab · B-panel. A is accessed through explicit
// row/column strides so the same body serves A (a_rs=k, a_cs=1) and A^T
// (a_rs=1, a_cs=m): the broadcast of one scalar per (row, p) hides the
// transposed layout entirely.
template <int MR, int NV>
inline void MicroBroadcast(const float* __restrict a, long a_rs, long a_cs,
                           const float* __restrict b, long ldb,
                           float* __restrict c, long ldc, int k,
                           bool accumulate) {
  VReg acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = accumulate ? VLoad(c + r * ldc + v * kVecWidth) : VZero();
    }
  }
  for (int p = 0; p < k; ++p) {
    VReg bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = VLoad(b + p * ldb + v * kVecWidth);
    for (int r = 0; r < MR; ++r) {
      const VReg av = VBroadcast(a[r * a_rs + p * a_cs]);
      for (int v = 0; v < NV; ++v) acc[r][v] = VFma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      VStore(c + r * ldc + v * kVecWidth, acc[r][v]);
    }
  }
}

// ---- Dot micro-kernel (GemmNT) ----------------------------------------------
//
// C tile [MR x NB] where every entry is a length-k dot product of an A row
// with a B row. Vector accumulators reduce horizontally once per tile.
template <int MR, int NB>
inline void MicroDot(const float* __restrict a, long lda,
                     const float* __restrict b, long ldb,
                     float* __restrict c, long ldc, int k, bool accumulate) {
  VReg acc[MR][NB];
  for (int r = 0; r < MR; ++r) {
    for (int s = 0; s < NB; ++s) acc[r][s] = VZero();
  }
  const int kv = k - k % kVecWidth;
  for (int p = 0; p < kv; p += kVecWidth) {
    VReg av[MR], bv[NB];
    for (int r = 0; r < MR; ++r) av[r] = VLoad(a + r * lda + p);
    for (int s = 0; s < NB; ++s) bv[s] = VLoad(b + s * ldb + p);
    for (int r = 0; r < MR; ++r) {
      for (int s = 0; s < NB; ++s) acc[r][s] = VFma(av[r], bv[s], acc[r][s]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int s = 0; s < NB; ++s) {
      float total = VSum(acc[r][s]);
      for (int p = kv; p < k; ++p) total += a[r * lda + p] * b[s * ldb + p];
      float* out = c + r * ldc + s;
      *out = accumulate ? *out + total : total;
    }
  }
}

// ---- Row micro-kernels ------------------------------------------------------
//
// Columns [j0, j0 + TC·W) of the output rows, one register per vector tile
// across the whole reduction. The last tile holds `lanes` columns (1..W)
// and loads and stores through a mask, so no tile reads past a row.

// G products of RowGemv at once: the G·TC accumulators are independent FMA
// chains, so the k loop runs at FMA throughput instead of one chain's
// latency. A partial last tile is GemmNN's scalar remainder, which skips
// x[p] == 0; full tiles are its vector tiles, which do not.
template <int G, int TC>
void RowGemvTiles(const float* __restrict x, int k, int n,
                  const RowGemvTarget* targets, int j0, int lanes) {
  const VMask last = VFirstLanes(lanes);
  const bool partial = lanes < kVecWidth;
  const float* w[G];
  VReg acc[G][TC];
  for (int g = 0; g < G; ++g) {
    w[g] = targets[g].weight + j0;
    for (int c = 0; c < TC; ++c) acc[g][c] = VZero();
  }
  for (int p = 0; p < k; ++p) {
    const VReg xv = VBroadcast(x[p]);
    for (int g = 0; g < G; ++g) {
      for (int c = 0; c + 1 < TC; ++c) {
        acc[g][c] = VFma(xv, VLoad(w[g] + c * kVecWidth), acc[g][c]);
      }
    }
    if (!partial || x[p] != 0.0f) {
      for (int g = 0; g < G; ++g) {
        acc[g][TC - 1] = VFma(
            xv, VMaskLoad(w[g] + (TC - 1) * kVecWidth, last), acc[g][TC - 1]);
      }
    }
    for (int g = 0; g < G; ++g) w[g] += n;
  }
  for (int g = 0; g < G; ++g) {
    const float* bias = targets[g].bias;
    float* y = targets[g].y + j0;
    for (int c = 0; c < TC; ++c) {
      const int j = c * kVecWidth;
      VReg out = acc[g][c];
      if (c + 1 < TC) {
        if (bias != nullptr) out = VAdd(out, VLoad(bias + j0 + j));
        VStore(y + j, out);
      } else {
        if (bias != nullptr) out = VAdd(out, VMaskLoad(bias + j0 + j, last));
        VMaskStore(y + j, last, out);
      }
    }
  }
}

// GatherWeightedSum over one column block: out += w[s] · row_s, s in order.
template <int TC>
void WeightedSumTiles(const float* __restrict weights,
                      const float* __restrict rows,
                      const int* __restrict index, int count, int n, int j0,
                      int lanes, float* __restrict out) {
  const VMask last = VFirstLanes(lanes);
  VReg acc[TC];
  for (int c = 0; c < TC; ++c) acc[c] = VZero();
  for (int s = 0; s < count; ++s) {
    const float* row = rows + static_cast<long>(index[s]) * n + j0;
    const VReg wv = VBroadcast(weights[s]);
    for (int c = 0; c + 1 < TC; ++c) {
      acc[c] = VFma(wv, VLoad(row + c * kVecWidth), acc[c]);
    }
    acc[TC - 1] =
        VFma(wv, VMaskLoad(row + (TC - 1) * kVecWidth, last), acc[TC - 1]);
  }
  for (int c = 0; c + 1 < TC; ++c) VStore(out + j0 + c * kVecWidth, acc[c]);
  VMaskStore(out + j0 + (TC - 1) * kVecWidth, last, acc[TC - 1]);
}

// Tables of the micro-kernels by tile count: entry TC - 1 runs TC tiles,
// a compile-time constant inside, so the accumulators stay in registers.
template <int G, int... TCs>
constexpr auto RowGemvTable(std::integer_sequence<int, TCs...>) {
  return std::array<decltype(&RowGemvTiles<G, 1>), sizeof...(TCs)>{
      &RowGemvTiles<G, TCs + 1>...};
}
template <int... TCs>
constexpr auto WeightedSumTable(std::integer_sequence<int, TCs...>) {
  return std::array<decltype(&WeightedSumTiles<1>), sizeof...(TCs)>{
      &WeightedSumTiles<TCs + 1>...};
}

#endif  // KVEC_HAVE_SIMD

// ---- Scalar fallbacks -------------------------------------------------------

// The seed's i-p-j ordering: unit-stride over B and C rows, auto-vectorisable.
// Also used for sub-vector-width column remainders of the SIMD path, where
// each product is fused explicitly as in the vector tiles: GCC contracts
// `c += a * b` into an FMA only from -O2, and RowGemv's masked tail must
// match this remainder at every optimisation level.
void ScalarBroadcastRange(const float* __restrict a, long a_rs, long a_cs,
                          const float* __restrict b, float* __restrict c,
                          int i0, int i1, int j0, int n, int k,
                          bool accumulate) {
  for (int i = i0; i < i1; ++i) {
    float* __restrict c_row = c + static_cast<long>(i) * n;
    if (!accumulate) {
      for (int j = j0; j < n; ++j) c_row[j] = 0.0f;
    }
    for (int p = 0; p < k; ++p) {
      const float aip = a[i * a_rs + p * a_cs];
      if (aip == 0.0f) continue;
      const float* __restrict b_row = b + static_cast<long>(p) * n;
#if KVEC_HAVE_SIMD
      for (int j = j0; j < n; ++j) {
        c_row[j] = std::fma(aip, b_row[j], c_row[j]);
      }
#else
      for (int j = j0; j < n; ++j) c_row[j] += aip * b_row[j];
#endif
    }
  }
}

#if !KVEC_HAVE_SIMD
// The portable dot product behind DotRows and Dot; SIMD builds use the
// vector micro-kernels instead.
float ScalarDot(const float* __restrict a, const float* __restrict b, int n) {
  float total = 0.0f;
  for (int i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}
#endif

// The one body of Dot and GatherDots, so the two reduce in the same order:
// the vector FMA chain, VSum, then the scalar tail. The tail stays the plain
// `total += a * b` whose products GCC rounds apart or fuses depending on how
// it vectorises the loop: Dot's results are pinned (tensor_test), and
// GatherDots inherits them by sharing this body.
inline float DotBody(const float* __restrict a, const float* __restrict b,
                     int n) {
#if KVEC_HAVE_SIMD
  VReg acc = VZero();
  const int nv = n - n % kVecWidth;
  for (int i = 0; i < nv; i += kVecWidth) {
    acc = VFma(VLoad(a + i), VLoad(b + i), acc);
  }
  float total = VSum(acc);
  for (int i = nv; i < n; ++i) total += a[i] * b[i];
  return total;
#else
  return ScalarDot(a, b, n);
#endif
}

// ---- Drivers ----------------------------------------------------------------

// Row-panel driver shared by GemmNN (a_rs=k, a_cs=1) and GemmTN (a_rs=1,
// a_cs=m). Processes C rows [i0, i1).
void BroadcastRows(const float* a, long a_rs, long a_cs, const float* b,
                   float* c, int i0, int i1, int k, int n, bool accumulate) {
#if KVEC_HAVE_SIMD
  // Row loop with a tile-size ladder: full kMR tiles, then 2-row, then
  // single-row tiles for the remainder.
  const auto row_ladder = [=](int j, auto&& tile) {
    int i = i0;
    for (; i + kMR <= i1; i += kMR) {
      tile(std::integral_constant<int, kMR>(), i, j);
    }
    for (; i + 2 <= i1; i += 2) tile(std::integral_constant<int, 2>(), i, j);
    for (; i < i1; ++i) tile(std::integral_constant<int, 1>(), i, j);
  };
  constexpr int kPanel = kNV * kVecWidth;
  int j = 0;
  for (; j + kPanel <= n; j += kPanel) {
    row_ladder(j, [=](auto mr, int i, int jj) {
      MicroBroadcast<decltype(mr)::value, kNV>(
          a + i * a_rs, a_rs, a_cs, b + jj, n,
          c + static_cast<long>(i) * n + jj, n, k, accumulate);
    });
  }
  for (; j + kVecWidth <= n; j += kVecWidth) {
    row_ladder(j, [=](auto mr, int i, int jj) {
      MicroBroadcast<decltype(mr)::value, 1>(
          a + i * a_rs, a_rs, a_cs, b + jj, n,
          c + static_cast<long>(i) * n + jj, n, k, accumulate);
    });
  }
  if (j < n) ScalarBroadcastRange(a, a_rs, a_cs, b, c, i0, i1, j, n, k,
                                  accumulate);
#else
  ScalarBroadcastRange(a, a_rs, a_cs, b, c, i0, i1, 0, n, k, accumulate);
#endif
}

void DotRows(const float* a, const float* b, float* c, int i0, int i1, int k,
             int n, bool accumulate) {
#if KVEC_HAVE_SIMD
  constexpr int kNB = 2;  // B rows per tile
  int i = i0;
  for (; i + kMR <= i1; i += kMR) {
    int j = 0;
    for (; j + kNB <= n; j += kNB) {
      MicroDot<kMR, kNB>(a + static_cast<long>(i) * k, k,
                         b + static_cast<long>(j) * k, k,
                         c + static_cast<long>(i) * n + j, n, k, accumulate);
    }
    for (; j < n; ++j) {
      MicroDot<kMR, 1>(a + static_cast<long>(i) * k, k,
                       b + static_cast<long>(j) * k, k,
                       c + static_cast<long>(i) * n + j, n, k, accumulate);
    }
  }
  for (; i < i1; ++i) {
    int j = 0;
    for (; j + kNB <= n; j += kNB) {
      MicroDot<1, kNB>(a + static_cast<long>(i) * k, k,
                       b + static_cast<long>(j) * k, k,
                       c + static_cast<long>(i) * n + j, n, k, accumulate);
    }
    for (; j < n; ++j) {
      MicroDot<1, 1>(a + static_cast<long>(i) * k, k,
                     b + static_cast<long>(j) * k, k,
                     c + static_cast<long>(i) * n + j, n, k, accumulate);
    }
  }
#else
  for (int i = i0; i < i1; ++i) {
    for (int j = 0; j < n; ++j) {
      const float total = ScalarDot(a + static_cast<long>(i) * k,
                                    b + static_cast<long>(j) * k, k);
      float* out = c + static_cast<long>(i) * n + j;
      *out = accumulate ? *out + total : total;
    }
  }
#endif
}

// Splits C rows over the pool when the multiply is big enough. The 8-row
// grain keeps chunk boundaries aligned to full SIMD row-tile ladders while
// staying fine-grained enough to balance uneven panels.
template <typename RowFn>
void ParallelOverRows(int m, long long flops, const RowFn& fn) {
  ParallelForThreshold(flops, kParallelFlopThreshold, m, /*grain=*/8, fn);
}

}  // namespace

void GemmNN(const float* a, const float* b, float* c, int m, int k, int n,
            bool accumulate) {
  ParallelOverRows(m, static_cast<long long>(m) * k * n,
                   [=](int i0, int i1) {
                     BroadcastRows(a, /*a_rs=*/k, /*a_cs=*/1, b, c, i0, i1, k,
                                   n, accumulate);
                   });
}

void GemmTN(const float* a, const float* b, float* c, int m, int k, int n,
            bool accumulate) {
  ParallelOverRows(m, static_cast<long long>(m) * k * n,
                   [=](int i0, int i1) {
                     BroadcastRows(a, /*a_rs=*/1, /*a_cs=*/m, b, c, i0, i1, k,
                                   n, accumulate);
                   });
}

void GemmNT(const float* a, const float* b, float* c, int m, int k, int n,
            bool accumulate) {
  ParallelOverRows(m, static_cast<long long>(m) * k * n,
                   [=](int i0, int i1) {
                     DotRows(a, b, c, i0, i1, k, n, accumulate);
                   });
}

float Dot(const float* a, const float* b, int n) { return DotBody(a, b, n); }

void RowGemv(const float* x, int k, int n, const RowGemvTarget* targets,
             int count) {
#if KVEC_HAVE_SIMD
  static constexpr auto kFour =
      RowGemvTable<4>(std::make_integer_sequence<int, kRowTiles / 4>());
  static constexpr auto kOne =
      RowGemvTable<1>(std::make_integer_sequence<int, kRowTiles>());
  const int tiles = (n + kVecWidth - 1) / kVecWidth;
  for (int g = 0; g < count;) {
    const bool four = count - g >= 4;
    const int max_tiles = four ? kRowTiles / 4 : kRowTiles;
    for (int t = 0; t < tiles; t += max_tiles) {
      const int tc = std::min(max_tiles, tiles - t);
      const int lanes = n - (t + tc - 1) * kVecWidth;
      const auto kernel = four ? kFour[tc - 1] : kOne[tc - 1];
      kernel(x, k, n, targets + g, t * kVecWidth, std::min(lanes, kVecWidth));
    }
    g += four ? 4 : 1;
  }
#else
  for (int g = 0; g < count; ++g) {
    ScalarBroadcastRange(x, /*a_rs=*/k, /*a_cs=*/1, targets[g].weight,
                         targets[g].y, 0, 1, 0, n, k, /*accumulate=*/false);
    if (targets[g].bias != nullptr) {
      AddBiasRows(targets[g].y, targets[g].bias, 1, n);
    }
  }
#endif
}

void GatherDots(const float* __restrict q, const float* __restrict rows,
                const int* __restrict index, int count, int n,
                float* __restrict out) {
  for (int s = 0; s < count; ++s) {
    out[s] = DotBody(q, rows + static_cast<long>(index[s]) * n, n);
  }
}

void GatherWeightedSum(const float* weights, const float* rows,
                       const int* index, int count, int n, float* out) {
#if KVEC_HAVE_SIMD
  static constexpr auto kTable =
      WeightedSumTable(std::make_integer_sequence<int, kRowTiles>());
  const int tiles = (n + kVecWidth - 1) / kVecWidth;
  for (int t = 0; t < tiles; t += kRowTiles) {
    const int tc = std::min(kRowTiles, tiles - t);
    const int lanes = n - (t + tc - 1) * kVecWidth;
    kTable[tc - 1](weights, rows, index, count, n, t * kVecWidth,
                   std::min(lanes, kVecWidth), out);
  }
#else
  std::fill(out, out + n, 0.0f);
  for (int s = 0; s < count; ++s) {
    const float w = weights[s];
    const float* row = rows + static_cast<long>(index[s]) * n;
    for (int c = 0; c < n; ++c) out[c] += w * row[c];
  }
#endif
}

}  // namespace kernels
}  // namespace kvec
