// Finite-difference validation of every differentiable operator, plus
// forward-value correctness checks.
#include <cmath>

#include "gradcheck.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {
namespace {

using testing::ExpectGradientsMatch;

Tensor RandomTensor(int rows, int cols, Rng& rng, float scale = 1.0f) {
  Tensor t = Tensor::Zeros(rows, cols, /*requires_grad=*/true);
  for (float& v : t.data()) {
    v = scale * static_cast<float>(rng.NextGaussian());
  }
  return t;
}

TEST(OpsForwardTest, MatMulValues) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsForwardTest, MatMulTransposeBMatchesMatMul) {
  Rng rng(1);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor b = RandomTensor(5, 4, rng);
  Tensor direct = ops::MatMulTransposeB(a, b);
  Tensor via_transpose = ops::MatMul(a, ops::Transpose(b));
  ASSERT_EQ(direct.rows(), via_transpose.rows());
  ASSERT_EQ(direct.cols(), via_transpose.cols());
  for (int i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], via_transpose.data()[i], 1e-5f);
  }
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Rng rng(2);
  Tensor x = RandomTensor(4, 6, rng, 2.0f);
  Tensor y = ops::Softmax(x);
  for (int r = 0; r < y.rows(); ++r) {
    float total = 0.0f;
    for (int c = 0; c < y.cols(); ++c) {
      EXPECT_GT(y.At(r, c), 0.0f);
      total += y.At(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsForwardTest, MaskedSoftmaxZeroesMaskedColumns) {
  Tensor x = Tensor::FromData(2, 3, {1, 2, 3, 1, 2, 3});
  Tensor mask = Tensor::FromData(
      2, 3, {0, ops::kNegInf, 0, 0, 0, ops::kNegInf});
  Tensor y = ops::MaskedSoftmax(x, mask);
  EXPECT_FLOAT_EQ(y.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.At(1, 2), 0.0f);
  EXPECT_NEAR(y.At(0, 0) + y.At(0, 2), 1.0f, 1e-5f);
  EXPECT_NEAR(y.At(1, 0) + y.At(1, 1), 1.0f, 1e-5f);
}

TEST(OpsForwardTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(3);
  Tensor x = RandomTensor(3, 5, rng, 2.0f);
  Tensor ls = ops::LogSoftmax(x);
  Tensor s = ops::Softmax(x);
  for (int i = 0; i < ls.size(); ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-4f);
  }
}

TEST(OpsForwardTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromData(2, 3, {1, 2, 3, 3, 2, 1});
  Tensor loss = ops::CrossEntropy(logits, {2, 2});
  Tensor ls = ops::LogSoftmax(logits);
  float expected = -(ls.At(0, 2) + ls.At(1, 2));
  EXPECT_NEAR(loss.ScalarValue(), expected, 1e-5f);
}

TEST(OpsForwardTest, EmbeddingGatherSelectsRows) {
  Tensor table = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor out = ops::EmbeddingGather(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(out.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.At(2, 1), 6.0f);
}

TEST(OpsForwardTest, ArgMaxRow) {
  Tensor t = Tensor::FromData(2, 3, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(ops::ArgMaxRow(t, 0), 1);
  EXPECT_EQ(ops::ArgMaxRow(t, 1), 0);
}

TEST(OpsForwardTest, DropoutInferenceIsIdentity) {
  Rng rng(4);
  Tensor x = RandomTensor(3, 3, rng);
  Tensor y = ops::Dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.impl().get(), x.impl().get());
}

TEST(OpsForwardTest, DropoutTrainingZeroesAndScales) {
  Rng rng(5);
  Tensor x = Tensor::Full(20, 20, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Dropout(x, 0.4f, rng, /*training=*/true);
  int zeros = 0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
  }
  EXPECT_GT(zeros, 80);   // ~160 expected
  EXPECT_LT(zeros, 240);
}

// ---- Gradient checks ----

TEST(GradCheckTest, MatMul) {
  Rng rng(10);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor b = RandomTensor(4, 2, rng);
  ExpectGradientsMatch({a, b},
                       [&]() { return ops::SumAll(ops::MatMul(a, b)); });
}

TEST(GradCheckTest, MatMulTransposeB) {
  Rng rng(11);
  Tensor a = RandomTensor(2, 3, rng);
  Tensor b = RandomTensor(4, 3, rng);
  ExpectGradientsMatch(
      {a, b}, [&]() { return ops::SumAll(ops::MatMulTransposeB(a, b)); });
}

// Regression guard for kernel rewrites: MatMulTransposeB must stay
// numerically equivalent to MatMul(a, Transpose(b)) — forward values AND
// gradients — even though the two run entirely different GEMM code paths.
TEST(GradCheckTest, MatMulTransposeBMatchesMatMulOfTranspose) {
  Rng rng(99);
  // Odd sizes on purpose: exercise the SIMD kernels' remainder ladders.
  const int m = 5, k = 19, n = 7;
  Tensor a1 = RandomTensor(m, k, rng);
  Tensor b1 = RandomTensor(n, k, rng);
  Tensor a2 = Tensor::FromData(m, k, a1.data(), /*requires_grad=*/true);
  Tensor b2 = Tensor::FromData(n, k, b1.data(), /*requires_grad=*/true);
  Tensor picker = RandomTensor(m, n, rng).Detach();

  Tensor direct = ops::MatMulTransposeB(a1, b1);
  Tensor via_transpose = ops::MatMul(a2, ops::Transpose(b2));
  ASSERT_EQ(direct.rows(), via_transpose.rows());
  ASSERT_EQ(direct.cols(), via_transpose.cols());
  for (int i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], via_transpose.data()[i], 1e-5f)
        << "forward element " << i;
  }

  ops::SumAll(ops::Mul(direct, picker)).Backward();
  ops::SumAll(ops::Mul(via_transpose, picker)).Backward();
  for (size_t i = 0; i < a1.grad().size(); ++i) {
    EXPECT_NEAR(a1.grad()[i], a2.grad()[i], 1e-4f) << "dA element " << i;
  }
  for (size_t i = 0; i < b1.grad().size(); ++i) {
    EXPECT_NEAR(b1.grad()[i], b2.grad()[i], 1e-4f) << "dB element " << i;
  }
}

TEST(GradCheckTest, LinearForwardFused) {
  Rng rng(98);
  Tensor x = RandomTensor(3, 5, rng);
  Tensor w = RandomTensor(5, 4, rng);
  Tensor bias = RandomTensor(1, 4, rng);
  ExpectGradientsMatch({x, w, bias}, [&]() {
    return ops::SumAll(ops::Tanh(ops::LinearForward(x, w, bias)));
  });
  // Bias-free variant.
  ExpectGradientsMatch({x, w}, [&]() {
    return ops::SumAll(ops::Tanh(ops::LinearForward(x, w, Tensor())));
  });
}

TEST(GradCheckTest, FusedMulAddAndMulTanh) {
  Rng rng(97);
  Tensor a = RandomTensor(2, 3, rng);
  Tensor b = RandomTensor(2, 3, rng);
  Tensor c = RandomTensor(2, 3, rng);
  Tensor d = RandomTensor(2, 3, rng);
  ExpectGradientsMatch({a, b, c, d}, [&]() {
    return ops::SumAll(ops::MulTanh(a, ops::FusedMulAdd(a, b, c, d)));
  });
}

TEST(GradCheckTest, ConcatColsNMatchesPairwise) {
  Rng rng(96);
  Tensor a = RandomTensor(3, 2, rng);
  Tensor b = RandomTensor(3, 3, rng);
  Tensor c = RandomTensor(3, 1, rng);
  ExpectGradientsMatch({a, b, c}, [&]() {
    return ops::SumAll(ops::Tanh(ops::ConcatColsN({a, b, c})));
  });
}

// Larger-shape gradcheck routed through the SIMD panel kernels (the other
// gradchecks are small enough to stay on remainder paths).
TEST(GradCheckTest, MatMulWideEnoughForSimdPanels) {
  Rng rng(95);
  Tensor a = RandomTensor(7, 33, rng, 0.3f);
  Tensor b = RandomTensor(33, 65, rng, 0.3f);
  ExpectGradientsMatch(
      {a, b}, [&]() { return ops::MeanAll(ops::MatMul(a, b)); },
      /*eps=*/5e-2f, /*tol=*/6e-2f);
}

TEST(GradCheckTest, AddSubMul) {
  Rng rng(12);
  Tensor a = RandomTensor(2, 3, rng);
  Tensor b = RandomTensor(2, 3, rng);
  ExpectGradientsMatch({a, b}, [&]() {
    return ops::SumAll(ops::Mul(ops::Add(a, b), ops::Sub(a, b)));
  });
}

TEST(GradCheckTest, AddRowBroadcast) {
  Rng rng(13);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor bias = RandomTensor(1, 4, rng);
  ExpectGradientsMatch({a, bias}, [&]() {
    return ops::SumAll(ops::Tanh(ops::AddRow(a, bias)));
  });
}

TEST(GradCheckTest, AffineAndAddN) {
  Rng rng(14);
  Tensor a = RandomTensor(2, 2, rng);
  Tensor b = RandomTensor(2, 2, rng);
  ExpectGradientsMatch({a, b}, [&]() {
    return ops::SumAll(
        ops::AddN({ops::Affine(a, 2.0f, 1.0f), b, ops::Affine(b, -0.5f, 0.0f)}));
  });
}

TEST(GradCheckTest, ConcatColsAndSlice) {
  Rng rng(15);
  Tensor a = RandomTensor(3, 2, rng);
  Tensor b = RandomTensor(3, 3, rng);
  ExpectGradientsMatch({a, b}, [&]() {
    Tensor joined = ops::ConcatCols(a, b);
    return ops::SumAll(ops::Mul(ops::SliceRows(joined, 1, 3),
                                ops::SliceRows(joined, 0, 2)));
  });
}

TEST(GradCheckTest, SliceCols) {
  Rng rng(42);
  Tensor a = RandomTensor(3, 6, rng);
  ExpectGradientsMatch({a}, [&]() {
    // Overlap-free head split and a use of both halves keeps every element
    // of `a` on some gradient path.
    Tensor left = ops::SliceCols(a, 0, 3);
    Tensor right = ops::SliceCols(a, 3, 6);
    return ops::SumAll(ops::Mul(left, right));
  });
}

TEST(OpsForwardTest, SliceColsValues) {
  Tensor a = Tensor::FromData(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor mid = ops::SliceCols(a, 1, 3);
  EXPECT_EQ(mid.rows(), 2);
  EXPECT_EQ(mid.cols(), 2);
  EXPECT_FLOAT_EQ(mid.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(mid.At(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(mid.At(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(mid.At(1, 1), 7.0f);
}

TEST(OpsForwardTest, SliceColsRoundTripsWithConcat) {
  Rng rng(43);
  Tensor a = RandomTensor(4, 6, rng);
  Tensor rebuilt =
      ops::ConcatCols(ops::SliceCols(a, 0, 2), ops::SliceCols(a, 2, 6));
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      EXPECT_FLOAT_EQ(rebuilt.At(i, j), a.At(i, j));
    }
  }
}

TEST(GradCheckTest, StackRows) {
  Rng rng(16);
  Tensor a = RandomTensor(1, 4, rng);
  Tensor b = RandomTensor(1, 4, rng);
  Tensor c = RandomTensor(1, 4, rng);
  ExpectGradientsMatch({a, b, c}, [&]() {
    return ops::SumAll(ops::Sigmoid(ops::StackRows({a, b, c})));
  });
}

TEST(GradCheckTest, Transpose) {
  Rng rng(17);
  Tensor a = RandomTensor(2, 3, rng);
  ExpectGradientsMatch(
      {a}, [&]() { return ops::SumAll(ops::Tanh(ops::Transpose(a))); });
}

TEST(GradCheckTest, Nonlinearities) {
  Rng rng(18);
  Tensor a = RandomTensor(2, 3, rng);
  ExpectGradientsMatch({a}, [&]() { return ops::SumAll(ops::Relu(a)); });
  ExpectGradientsMatch({a}, [&]() { return ops::SumAll(ops::Sigmoid(a)); });
  ExpectGradientsMatch({a}, [&]() { return ops::SumAll(ops::Tanh(a)); });
}

TEST(GradCheckTest, LogOfSigmoid) {
  Rng rng(19);
  Tensor a = RandomTensor(2, 2, rng);
  ExpectGradientsMatch(
      {a}, [&]() { return ops::SumAll(ops::Log(ops::Sigmoid(a))); });
}

TEST(GradCheckTest, Softmax) {
  Rng rng(20);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor picker = Tensor::FromData(3, 4, {0.3f, -1.0f, 0.7f, 0.1f,  //
                                          1.0f, 0.2f, -0.5f, 0.4f,  //
                                          -0.2f, 0.8f, 0.6f, -0.9f});
  ExpectGradientsMatch({a}, [&]() {
    return ops::SumAll(ops::Mul(ops::Softmax(a), picker));
  });
}

TEST(GradCheckTest, MaskedSoftmax) {
  Rng rng(21);
  Tensor a = RandomTensor(3, 3, rng);
  Tensor mask = Tensor::FromData(3, 3, {0, ops::kNegInf, ops::kNegInf,  //
                                        0, 0, ops::kNegInf,             //
                                        ops::kNegInf, 0, 0});
  Tensor picker = RandomTensor(3, 3, rng);
  Tensor picker_const = picker.Detach();
  ExpectGradientsMatch({a}, [&]() {
    return ops::SumAll(ops::Mul(ops::MaskedSoftmax(a, mask), picker_const));
  });
}

TEST(GradCheckTest, LogSoftmax) {
  Rng rng(22);
  Tensor a = RandomTensor(2, 5, rng);
  Tensor picker = RandomTensor(2, 5, rng);
  Tensor picker_const = picker.Detach();
  ExpectGradientsMatch({a}, [&]() {
    return ops::SumAll(ops::Mul(ops::LogSoftmax(a), picker_const));
  });
}

TEST(GradCheckTest, LayerNorm) {
  Rng rng(23);
  Tensor a = RandomTensor(3, 6, rng);
  Tensor gamma = RandomTensor(1, 6, rng);
  Tensor beta = RandomTensor(1, 6, rng);
  Tensor picker = RandomTensor(3, 6, rng).Detach();
  ExpectGradientsMatch({a, gamma, beta}, [&]() {
    return ops::SumAll(ops::Mul(ops::LayerNorm(a, gamma, beta), picker));
  });
}

TEST(GradCheckTest, EmbeddingGather) {
  Rng rng(24);
  Tensor table = RandomTensor(5, 3, rng);
  std::vector<int> indices = {0, 2, 2, 4};
  ExpectGradientsMatch({table}, [&]() {
    return ops::SumAll(ops::Tanh(ops::EmbeddingGather(table, indices)));
  });
}

TEST(GradCheckTest, CrossEntropy) {
  Rng rng(25);
  Tensor logits = RandomTensor(4, 3, rng);
  std::vector<int> labels = {0, 2, 1, 2};
  ExpectGradientsMatch(
      {logits}, [&]() { return ops::CrossEntropy(logits, labels); });
}

TEST(GradCheckTest, MseLoss) {
  Rng rng(26);
  Tensor pred = RandomTensor(5, 1, rng);
  std::vector<float> targets = {1.0f, -2.0f, 0.5f, 3.0f, 0.0f};
  ExpectGradientsMatch({pred},
                       [&]() { return ops::MseLoss(pred, targets); });
}

TEST(GradCheckTest, MeanAll) {
  Rng rng(27);
  Tensor a = RandomTensor(3, 3, rng);
  ExpectGradientsMatch({a},
                       [&]() { return ops::MeanAll(ops::Mul(a, a)); });
}

// Composite expression resembling one attention block.
TEST(GradCheckTest, AttentionLikeComposite) {
  Rng rng(28);
  Tensor x = RandomTensor(4, 3, rng, 0.5f);
  Tensor wq = RandomTensor(3, 3, rng, 0.5f);
  Tensor wk = RandomTensor(3, 3, rng, 0.5f);
  Tensor wv = RandomTensor(3, 3, rng, 0.5f);
  Tensor mask = Tensor::Full(4, 4, 0.0f);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) mask.Set(i, j, ops::kNegInf);
  }
  Tensor picker = RandomTensor(4, 3, rng).Detach();
  ExpectGradientsMatch({x, wq, wk, wv}, [&]() {
    Tensor q = ops::MatMul(x, wq);
    Tensor k = ops::MatMul(x, wk);
    Tensor v = ops::MatMul(x, wv);
    Tensor scores = ops::Affine(ops::MatMulTransposeB(q, k), 0.57735f, 0.0f);
    Tensor weights = ops::MaskedSoftmax(scores, mask);
    return ops::SumAll(ops::Mul(ops::MatMul(weights, v), picker));
  });
}

}  // namespace
}  // namespace kvec
