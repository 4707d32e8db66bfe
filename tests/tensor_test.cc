#include "tensor/tensor.h"

#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/buffer_pool.h"
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

TEST(TensorTest, ToStringRendersValues) {
  Tensor t = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.ToString(), "[2x2][1 2; 3 4]");
  EXPECT_EQ(Tensor().ToString(), "[undefined]");
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

// Regression for the soak harness's RSS ratchet: a tensor that ADOPTS an
// externally built vector (FromData/Scalar/Clone) must free it normally on
// destruction, not deposit it into the BufferPool. Every adopted buffer
// released into the pool is a net gain the pool never handed out — with one
// FromData per served item the free list outgrew the live working set and
// climbed toward its cap instead of holding flat.
TEST(TensorTest, AdoptedBuffersDoNotDepositIntoThePool) {
  BufferPool& pool = BufferPool::Global();
  pool.SetEnabled(true);
  pool.Clear();
  const BufferPool::Stats before = pool.stats();

  {
    std::vector<float> values(16, 1.0f);
    Tensor adopted = Tensor::FromData(4, 4, std::move(values));
  }
  BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.returned, before.returned);
  EXPECT_EQ(after.cached_floats, 0u);

  // Pool-acquired storage still recycles: Zeros draws from the pool, so its
  // buffer is returned on destruction.
  { Tensor pooled = Tensor::Zeros(4, 4); }
  after = pool.stats();
  EXPECT_EQ(after.returned, before.returned + 1);
  EXPECT_EQ(after.cached_floats, 16u);
  pool.Clear();
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
