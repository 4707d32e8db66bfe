#include "tensor/tensor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace kvec {
namespace {

TEST(TensorTest, FactoryShapes) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.size(), 6);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::Full(3, 1, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor s = Tensor::Scalar(7.0f);
  EXPECT_EQ(s.rows(), 1);
  EXPECT_EQ(s.cols(), 1);
  EXPECT_EQ(s.ScalarValue(), 7.0f);
}

TEST(TensorTest, FromDataRowMajorLayout) {
  Tensor t = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 2), 3.0f);
  EXPECT_EQ(t.At(1, 0), 4.0f);
  EXPECT_EQ(t.At(1, 2), 6.0f);
}

TEST(TensorTest, SetAndAt) {
  Tensor t = Tensor::Zeros(2, 2);
  t.Set(1, 0, 3.5f);
  EXPECT_EQ(t.At(1, 0), 3.5f);
  EXPECT_EQ(t.At(0, 0), 0.0f);
}

TEST(TensorTest, CopyAliasesStorage) {
  Tensor a = Tensor::Zeros(1, 2);
  Tensor b = a;
  b.Set(0, 0, 9.0f);
  EXPECT_EQ(a.At(0, 0), 9.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Zeros(1, 2);
  Tensor b = a.Clone();
  b.Set(0, 0, 9.0f);
  EXPECT_EQ(a.At(0, 0), 0.0f);
}

TEST(TensorTest, DetachDropsGraphAndGrad) {
  Tensor a = Tensor::Scalar(2.0f, /*requires_grad=*/true);
  Tensor b = ops::Affine(a, 3.0f, 0.0f);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.ScalarValue(), 6.0f);
  EXPECT_TRUE(d.impl()->parents.empty());
}

TEST(TensorTest, BackwardThroughSharedNodeAccumulates) {
  // y = x + x  =>  dy/dx = 2
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor y = ops::Add(x, x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(TensorTest, ZeroGradClears) {
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  ops::Affine(x, 2.0f, 0.0f).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(TensorTest, BackwardTwiceAccumulates) {
  Tensor x = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  ops::Affine(x, 5.0f, 0.0f).Backward();
  ops::Affine(x, 5.0f, 0.0f).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 10.0f);
}

TEST(TensorTest, DiamondGraphGradient) {
  // y = (x*x) + (x*x) computed through two distinct nodes sharing x.
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor a = ops::Mul(x, x);
  Tensor b = ops::Mul(x, x);
  Tensor y = ops::Add(a, b);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.0f);  // d(2x^2)/dx = 4x
}

TEST(TensorTest, GraphIsFreedWhenOutputsGoOutOfScope) {
  // Regression test: backward lambdas must not own their own node, or the
  // whole graph leaks (reference cycle). The leaf's use count must return
  // to its original value once all op outputs are gone.
  Tensor x = Tensor::Scalar(1.5f, /*requires_grad=*/true);
  const long baseline = x.impl().use_count();
  {
    Tensor y = ops::Mul(x, x);
    Tensor z = ops::SumAll(ops::Add(y, x));
    z.Backward();
    EXPECT_GT(x.impl().use_count(), baseline);  // graph alive
  }
  EXPECT_EQ(x.impl().use_count(), baseline);  // graph freed
}

TEST(TensorDeathTest, ScalarValueRejectsMatrix) {
  Tensor t = Tensor::Zeros(2, 2);
  EXPECT_DEATH(t.ScalarValue(), "non-scalar");
}

TEST(TensorDeathTest, AtBoundsChecked) {
  Tensor t = Tensor::Zeros(2, 2);
  EXPECT_DEATH(t.At(2, 0), "check failed");
  EXPECT_DEATH(t.At(0, -1), "check failed");
}

TEST(TensorDeathTest, BackwardRequiresScalar) {
  Tensor t = Tensor::Zeros(2, 2, /*requires_grad=*/true);
  EXPECT_DEATH(t.Backward(), "scalar");
}

// ---- Row kernels: bit-equal to their references on every kernel build ----

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<float> UniformFloats(Rng& rng, int n) {
  std::vector<float> values(n);
  for (float& v : values) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  return values;
}

// Compares `got` with `want` bit for bit, and the `guard` floats after the
// first n of `got` with the sentinel they were filled with.
void ExpectBitsEqual(const std::vector<float>& got,
                     const std::vector<float>& want, int n, const char* what) {
  for (int j = 0; j < n; ++j) {
    ASSERT_EQ(FloatBits(got[j]), FloatBits(want[j]))
        << what << "[" << j << "]: " << std::hexfloat << got[j] << " vs "
        << want[j];
  }
  for (size_t j = n; j < got.size(); ++j) {
    ASSERT_EQ(got[j], 7.0f) << what << " wrote past its row at " << j;
  }
}

// x rows for RowGemv: all random; with +0 and -0 entries (GemmNN's scalar
// remainder skips them, its vector tiles do not); and an entry whose
// product underflows to a -0 accumulator followed by zeros only, where
// skipping a term and adding 0·w differ in the sign of the result.
std::vector<std::vector<float>> RowInputs(Rng& rng, int k) {
  std::vector<std::vector<float>> inputs;
  inputs.push_back(UniformFloats(rng, k));
  std::vector<float> zeros = UniformFloats(rng, k);
  for (int p = 0; p < k; p += 3) zeros[p] = (p / 3) % 2 == 0 ? 0.0f : -0.0f;
  inputs.push_back(zeros);
  std::vector<float> underflow(k, 0.0f);
  underflow[0] = -1e-30f;
  inputs.push_back(underflow);
  return inputs;
}

TEST(RowKernelsTest, RowGemvMatchesGemmNNWithBias) {
  constexpr float kGuard = 7.0f;
  constexpr int kGuardFloats = 16;
  for (const int count : {1, 4, 5}) {
    for (const int k : {1, 16, 40}) {
      for (const int n : {1, 5, 8, 16, 24, 33, 70, 300}) {
        SCOPED_TRACE(testing::Message() << "count " << count << " k " << k
                                        << " n " << n);
        Rng rng(7000 + 100 * count + 10 * k + n);
        std::vector<std::vector<float>> weights, biases;
        for (int g = 0; g < count; ++g) {
          weights.push_back(UniformFloats(rng, k * n));
          // Row 0 is tiny so the underflow input makes a -0 accumulator.
          for (int j = 0; j < n; ++j) weights[g][j] = 1e-30f;
          biases.push_back(UniformFloats(rng, n));
        }
        for (const std::vector<float>& x : RowInputs(rng, k)) {
          for (const bool with_bias : {true, false}) {
            std::vector<std::vector<float>> got(
                count, std::vector<float>(n + kGuardFloats, kGuard));
            std::vector<kernels::RowGemvTarget> targets;
            for (int g = 0; g < count; ++g) {
              targets.push_back({weights[g].data(),
                                 with_bias ? biases[g].data() : nullptr,
                                 got[g].data()});
            }
            kernels::RowGemv(x.data(), k, n, targets.data(), count);
            for (int g = 0; g < count; ++g) {
              std::vector<float> want(n);
              kernels::GemmNN(x.data(), weights[g].data(), want.data(), 1, k,
                              n, /*accumulate=*/false);
              if (with_bias) {
                kernels::AddBiasRows(want.data(), biases[g].data(), 1, n);
              }
              ExpectBitsEqual(got[g], want, n, "y");
            }
          }
        }
      }
    }
  }
}

// The underflow input of RowInputs makes the two zero rules disagree: a
// full vector tile ends at +0 (0·w added to -0), a remainder column at -0
// (the zero term skipped). Fails if RowGemv applied one rule everywhere.
TEST(RowKernelsTest, RowGemvKeepsGemmNNsZeroRulePerColumn) {
  constexpr int k = 2;
  constexpr int n = 33;  // two 16-wide tiles and one remainder column
  std::vector<float> w(k * n, 0.5f);
  for (int j = 0; j < n; ++j) w[j] = 1e-30f;
  const std::vector<float> x = {-1e-30f, 0.0f};
  std::vector<float> want(n), got(n);
  kernels::GemmNN(x.data(), w.data(), want.data(), 1, k, n, false);
  const kernels::RowGemvTarget target = {w.data(), nullptr, got.data()};
  kernels::RowGemv(x.data(), k, n, &target, 1);
  int negative_zeros = 0;
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(FloatBits(got[j]), FloatBits(want[j])) << "column " << j;
    if (FloatBits(want[j]) == FloatBits(-0.0f)) ++negative_zeros;
  }
#if defined(__FMA__)
  // With fused products the -0 survives in the remainder columns only.
  EXPECT_GT(negative_zeros, 0);
  EXPECT_LT(negative_zeros, n);
#endif
}

TEST(RowKernelsTest, GatherDotsMatchDot) {
  constexpr int kRows = 40;
  for (const int n : {1, 4, 8, 15, 16, 17, 33, 64, 100}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    Rng rng(8000 + n);
    const std::vector<float> q = UniformFloats(rng, n);
    const std::vector<float> rows = UniformFloats(rng, kRows * n);
    std::vector<int> index;
    for (int s = 0; s < 57; ++s) index.push_back((s * 13 + 5) % kRows);
    std::vector<float> got(index.size() + 16, 7.0f);
    kernels::GatherDots(q.data(), rows.data(), index.data(),
                        static_cast<int>(index.size()), n, got.data());
    std::vector<float> want;
    for (int row : index) {
      want.push_back(kernels::Dot(q.data(), rows.data() + row * n, n));
    }
    ExpectBitsEqual(got, want, static_cast<int>(index.size()), "score");
  }
}

TEST(RowKernelsTest, GatherWeightedSumMatchesTheFusedLoop) {
  constexpr int kRows = 120;
  for (const int n : {1, 4, 8, 15, 16, 17, 33, 130, 300}) {
    for (const int count : {1, 17, 100}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " count " << count);
      Rng rng(9000 + n + count);
      const std::vector<float> rows = UniformFloats(rng, kRows * n);
      std::vector<float> weights = UniformFloats(rng, count);
      weights[0] = 0.0f;
      std::vector<int> index;
      for (int s = 0; s < count; ++s) index.push_back((s * 7 + 3) % kRows);
      std::vector<float> got(n + 16, 7.0f);
      kernels::GatherWeightedSum(weights.data(), rows.data(), index.data(),
                                 count, n, got.data());
      std::vector<float> want(n, 0.0f);
      for (int s = 0; s < count; ++s) {
        const float* row = rows.data() + index[s] * n;
        for (int c = 0; c < n; ++c) {
#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
          want[c] = std::fma(weights[s], row[c], want[c]);  // SIMD kernels
#else
          want[c] += weights[s] * row[c];
#endif
        }
      }
      ExpectBitsEqual(got, want, n, "out");
    }
  }
}

#if defined(__AVX512F__)
// The AVX-512 Dot reduces its accumulator in _mm512_reduce_add_ps's
// order. These values came from the build that called that intrinsic, so
// a reduction in any other order changes a bit. Lengths 17 and 100 add a
// scalar tail after the vector sum.
TEST(KernelsTest, Avx512DotKeepsTheReduceAddOrder) {
  const std::pair<int, float> cases[] = {{16, 0x1.314e1p+0f},
                                         {17, 0x1.e35cc4p+0f},
                                         {64, -0x1.0c0cd8p-1f},
                                         {100, 0x1.40d5e8p+1f}};
  for (const auto& [n, expected] : cases) {
    Rng rng(1000 + n);
    std::vector<float> a(n);
    std::vector<float> b(n);
    for (int i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
      b[i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
    EXPECT_EQ(kernels::Dot(a.data(), b.data(), n), expected) << "n = " << n;
  }
}
#endif

}  // namespace
}  // namespace kvec
