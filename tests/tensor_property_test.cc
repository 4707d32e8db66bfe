// Parameterized property tests of the tensor operators: algebraic
// identities that must hold for every shape, independent of the values.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {
namespace {

Tensor RandomTensor(int rows, int cols, Rng& rng, float scale = 1.0f) {
  Tensor t = Tensor::Zeros(rows, cols);
  for (float& v : t.data()) {
    v = scale * static_cast<float>(rng.NextGaussian());
  }
  return t;
}

Tensor Identity(int n) {
  Tensor eye = Tensor::Zeros(n, n);
  for (int i = 0; i < n; ++i) eye.Set(i, i, 1.0f);
  return eye;
}

void ExpectTensorsNear(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.At(i, j), b.At(i, j), tol) << "(" << i << "," << j << ")";
    }
  }
}

using Shape = std::tuple<int, int>;

class MatMulProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(MatMulProperty, IdentityIsNeutral) {
  auto [m, n] = GetParam();
  Rng rng(m * 31 + n);
  Tensor a = RandomTensor(m, n, rng);
  ExpectTensorsNear(ops::MatMul(a, Identity(n)), a);
  ExpectTensorsNear(ops::MatMul(Identity(m), a), a);
}

TEST_P(MatMulProperty, TransposeBMatchesExplicitTranspose) {
  auto [m, n] = GetParam();
  Rng rng(m * 37 + n);
  Tensor a = RandomTensor(m, 5, rng);
  Tensor b = RandomTensor(n, 5, rng);
  ExpectTensorsNear(ops::MatMulTransposeB(a, b),
                    ops::MatMul(a, ops::Transpose(b)));
}

TEST_P(MatMulProperty, DistributesOverAddition) {
  auto [m, n] = GetParam();
  Rng rng(m * 41 + n);
  Tensor a = RandomTensor(m, n, rng);
  Tensor b = RandomTensor(n, 3, rng);
  Tensor c = RandomTensor(n, 3, rng);
  ExpectTensorsNear(ops::MatMul(a, ops::Add(b, c)),
                    ops::Add(ops::MatMul(a, b), ops::MatMul(a, c)), 2e-4f);
}

TEST_P(MatMulProperty, DoubleTransposeIsIdentity) {
  auto [m, n] = GetParam();
  Rng rng(m * 43 + n);
  Tensor a = RandomTensor(m, n, rng);
  ExpectTensorsNear(ops::Transpose(ops::Transpose(a)), a, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulProperty,
                         ::testing::Values(Shape{1, 1}, Shape{1, 7},
                                           Shape{4, 4}, Shape{3, 8},
                                           Shape{9, 2}));

// GemmNN computes every output row independently of the others: row i of
// an [m, n] product equals the [1, n] product of row i alone, bit for bit,
// whatever row tile, column tile or thread chunk the row lands in. The
// incremental encoder relies on this for microbatches to be bit-identical
// to single-item appends. Parameters are (k, n): the widths cover the full
// SIMD panel, the single-vector tile and the scalar column remainder on
// both AVX-512 (64/16-float tiles) and AVX2 (16/8), and the last shape
// crosses kParallelFlopThreshold so the rows split over the thread pool.
class GemmRowIndependenceProperty : public ::testing::TestWithParam<Shape> {};

uint32_t FloatBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST_P(GemmRowIndependenceProperty, EachRowMatchesItsSingleRowProduct) {
  auto [k, n] = GetParam();
  Rng rng(k * 61 + n);
  std::vector<float> row(n);
  for (int m = 1; m <= 13; ++m) {
    Tensor a = RandomTensor(m, k, rng);
    Tensor b = RandomTensor(k, n, rng);
    std::vector<float> c(static_cast<size_t>(m) * n);
    kernels::GemmNN(a.data().data(), b.data().data(), c.data(), m, k, n,
                    /*accumulate=*/false);
    for (int i = 0; i < m; ++i) {
      kernels::GemmNN(a.data().data() + static_cast<size_t>(i) * k,
                      b.data().data(), row.data(), 1, k, n,
                      /*accumulate=*/false);
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(FloatBits(c[static_cast<size_t>(i) * n + j]),
                  FloatBits(row[j]))
            << "m " << m << " row " << i << " col " << j;
      }
    }
  }
}

static_assert(13LL * 160 * 160 > kernels::kParallelFlopThreshold,
              "the largest GemmRowIndependenceProperty shape must fork");

INSTANTIATE_TEST_SUITE_P(Widths, GemmRowIndependenceProperty,
                         ::testing::Values(Shape{12, 1}, Shape{12, 7},
                                           Shape{12, 12}, Shape{16, 16},
                                           Shape{19, 24}, Shape{12, 64},
                                           Shape{19, 85}, Shape{16, 93},
                                           Shape{160, 160}));

class SoftmaxShiftProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(SoftmaxShiftProperty, InvariantToRowShift) {
  // softmax(x + c) == softmax(x) for a constant shift c.
  auto [m, n] = GetParam();
  Rng rng(m * 47 + n);
  Tensor a = RandomTensor(m, n, rng, 2.0f);
  Tensor shifted = ops::Affine(a, 1.0f, 13.5f);
  ExpectTensorsNear(ops::Softmax(a), ops::Softmax(shifted), 1e-5f);
}

TEST_P(SoftmaxShiftProperty, LogSoftmaxConsistent) {
  auto [m, n] = GetParam();
  Rng rng(m * 53 + n);
  Tensor a = RandomTensor(m, n, rng, 2.0f);
  Tensor log_soft = ops::LogSoftmax(a);
  Tensor soft = ops::Softmax(a);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(std::exp(log_soft.At(i, j)), soft.At(i, j), 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxShiftProperty,
                         ::testing::Values(Shape{1, 2}, Shape{3, 5},
                                           Shape{6, 1}, Shape{2, 12}));

class SliceProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(SliceProperty, RowAndColSlicesTile) {
  auto [m, n] = GetParam();
  if (m < 2 || n < 2) GTEST_SKIP();
  Rng rng(m * 59 + n);
  Tensor a = RandomTensor(m, n, rng);
  // Stitch row slices back together.
  std::vector<Tensor> rows;
  for (int i = 0; i < m; ++i) rows.push_back(ops::SliceRow(a, i));
  ExpectTensorsNear(ops::StackRows(rows), a, 0.0f);
  // Stitch column slices back together.
  Tensor rebuilt = ops::ConcatCols(ops::SliceCols(a, 0, n / 2),
                                   ops::SliceCols(a, n / 2, n));
  ExpectTensorsNear(rebuilt, a, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SliceProperty,
                         ::testing::Values(Shape{2, 2}, Shape{5, 4},
                                           Shape{3, 9}));

class ReductionProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(ReductionProperty, SumAndMeanAgree) {
  auto [m, n] = GetParam();
  Rng rng(m * 61 + n);
  Tensor a = RandomTensor(m, n, rng);
  const float sum = ops::SumAll(a).ScalarValue();
  const float mean = ops::MeanAll(a).ScalarValue();
  EXPECT_NEAR(sum, mean * m * n, 1e-3f * (1.0f + std::fabs(sum)));
}

TEST_P(ReductionProperty, AddNMatchesRepeatedAdd) {
  auto [m, n] = GetParam();
  Rng rng(m * 67 + n);
  Tensor a = RandomTensor(m, n, rng);
  Tensor b = RandomTensor(m, n, rng);
  Tensor c = RandomTensor(m, n, rng);
  ExpectTensorsNear(ops::AddN({a, b, c}), ops::Add(ops::Add(a, b), c),
                    1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReductionProperty,
                         ::testing::Values(Shape{1, 1}, Shape{4, 7},
                                           Shape{8, 3}));

// ---- Nonlinearity bounds ----

class NonlinearityProperty : public ::testing::TestWithParam<int> {};

TEST_P(NonlinearityProperty, RangesHold) {
  Rng rng(GetParam());
  Tensor a = RandomTensor(4, 6, rng, 3.0f);
  Tensor sigmoid = ops::Sigmoid(a);
  Tensor tanh = ops::Tanh(a);
  Tensor relu = ops::Relu(a);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_GT(sigmoid.data()[i], 0.0f);
    EXPECT_LT(sigmoid.data()[i], 1.0f);
    EXPECT_GE(tanh.data()[i], -1.0f);
    EXPECT_LE(tanh.data()[i], 1.0f);
    EXPECT_GE(relu.data()[i], 0.0f);
  }
}

TEST_P(NonlinearityProperty, ReluIsIdempotent) {
  Rng rng(GetParam() + 100);
  Tensor a = RandomTensor(3, 5, rng, 2.0f);
  ExpectTensorsNear(ops::Relu(ops::Relu(a)), ops::Relu(a), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NonlinearityProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace kvec
