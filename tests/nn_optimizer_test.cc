#include "nn/optimizer.h"

#include <cmath>

#include "gtest/gtest.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace kvec {
namespace {

// Minimises f(x) = (x - target)^2 elementwise with the given optimizer.
double MinimizeQuadratic(Optimizer& optimizer, Tensor x,
                         const std::vector<float>& target, int steps) {
  for (int step = 0; step < steps; ++step) {
    optimizer.ZeroGrad();
    Tensor diff =
        ops::Sub(x, Tensor::FromData(1, static_cast<int>(target.size()),
                                     target));
    ops::SumAll(ops::Mul(diff, diff)).Backward();
    optimizer.Step();
  }
  double error = 0.0;
  for (size_t i = 0; i < target.size(); ++i) {
    error += std::fabs(x.data()[i] - target[i]);
  }
  return error;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor x = Tensor::FromData(1, 3, {5.0f, -4.0f, 0.5f},
                              /*requires_grad=*/true);
  Adam adam({x}, 0.1f);
  double error = MinimizeQuadratic(adam, x, {1.0f, 2.0f, -3.0f}, 300);
  EXPECT_LT(error, 1e-2);
}

TEST(AdamTest, SingleStepDirectionAndMagnitude) {
  // With bias correction the very first Adam step is ±lr per coordinate.
  Tensor x = Tensor::FromData(1, 2, {0.0f, 0.0f}, /*requires_grad=*/true);
  Adam adam({x}, 0.5f);
  x.ZeroGrad();
  x.impl()->grad = {3.0f, -7.0f};
  adam.Step();
  EXPECT_NEAR(x.data()[0], -0.5f, 1e-4f);
  EXPECT_NEAR(x.data()[1], 0.5f, 1e-4f);
}

TEST(AdamTest, ZeroGradientMeansNoUpdate) {
  Tensor x = Tensor::FromData(1, 2, {1.0f, 2.0f}, /*requires_grad=*/true);
  Adam adam({x}, 0.5f);
  x.ZeroGrad();
  adam.Step();
  EXPECT_FLOAT_EQ(x.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(x.data()[1], 2.0f);
}

TEST(OptimizerTest, ZeroGradClearsAllParams) {
  Tensor a = Tensor::FromData(1, 1, {1.0f}, /*requires_grad=*/true);
  Tensor b = Tensor::FromData(1, 1, {2.0f}, /*requires_grad=*/true);
  ops::SumAll(ops::Mul(a, b)).Backward();
  Adam adam({a, b}, 0.1f);
  adam.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0f);
  EXPECT_EQ(b.grad()[0], 0.0f);
}

TEST(OptimizerTest, TrainsLinearRegression) {
  // y = 2x - 1 from noisy-free data; a Linear layer must recover it.
  Rng rng(1);
  Linear layer(1, 1, rng);
  Adam adam(layer.Parameters(), 0.05f);
  for (int step = 0; step < 400; ++step) {
    float xv = static_cast<float>(rng.NextUniform(-2.0, 2.0));
    Tensor x = Tensor::FromData(1, 1, {xv});
    adam.ZeroGrad();
    Tensor prediction = layer.Forward(x);
    ops::MseLoss(prediction, {2.0f * xv - 1.0f}).Backward();
    adam.Step();
  }
  EXPECT_NEAR(layer.weight().At(0, 0), 2.0f, 0.1f);
  EXPECT_NEAR(layer.bias().At(0, 0), -1.0f, 0.1f);
}

TEST(OptimizerDeathTest, RejectsNonGradParameters) {
  Tensor x = Tensor::Zeros(1, 1);  // requires_grad = false
  EXPECT_DEATH(Adam({x}, 0.1f), "does not require grad");
}

TEST(OptimizerTest, LearningRateAccessors) {
  Tensor x = Tensor::FromData(1, 1, {1.0f}, /*requires_grad=*/true);
  Adam adam({x}, 0.25f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.25f);
  adam.set_learning_rate(0.125f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.125f);
}

}  // namespace
}  // namespace kvec
