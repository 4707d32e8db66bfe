#include "nn/scheduler.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace kvec {
namespace {

Tensor Param() { return Tensor::FromData(1, 1, {0.0f}, true); }

TEST(ConstantLrTest, NeverChangesRate) {
  Adam adam({Param()}, 0.3f);
  ConstantLr schedule(&adam);
  for (int i = 0; i < 10; ++i) schedule.Step();
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.3f);
  EXPECT_EQ(schedule.step_count(), 10);
}

TEST(CosineAnnealingLrTest, StartsAtBaseEndsAtMin) {
  Adam adam({Param()}, 1.0f);
  CosineAnnealingLr schedule(&adam, /*total_steps=*/10, /*min_lr=*/0.1f);
  EXPECT_FLOAT_EQ(schedule.current_lr(), 1.0f);  // step 0
  for (int i = 0; i < 10; ++i) schedule.Step();
  EXPECT_NEAR(adam.learning_rate(), 0.1f, 1e-6f);
}

TEST(CosineAnnealingLrTest, HalfwayIsMidpoint) {
  Adam adam({Param()}, 1.0f);
  CosineAnnealingLr schedule(&adam, /*total_steps=*/10, /*min_lr=*/0.0f);
  for (int i = 0; i < 5; ++i) schedule.Step();
  // cos(pi/2) = 0 -> exactly half of base at the midpoint.
  EXPECT_NEAR(adam.learning_rate(), 0.5f, 1e-6f);
}

TEST(CosineAnnealingLrTest, MonotoneNonIncreasing) {
  Adam adam({Param()}, 1.0f);
  CosineAnnealingLr schedule(&adam, 20);
  float previous = schedule.current_lr();
  for (int i = 0; i < 25; ++i) {
    schedule.Step();
    EXPECT_LE(adam.learning_rate(), previous + 1e-7f);
    previous = adam.learning_rate();
  }
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.0f);  // clamped past total_steps
}

TEST(WarmupCosineLrTest, RampsThenAnneals) {
  Adam adam({Param()}, 1.0f);
  WarmupCosineLr schedule(&adam, /*warmup_steps=*/4, /*total_steps=*/12,
                          /*min_lr=*/0.0f);
  std::vector<float> rates;
  for (int i = 0; i < 12; ++i) {
    schedule.Step();
    rates.push_back(adam.learning_rate());
  }
  // Warmup: linear ramp 1/4, 2/4, 3/4 then the peak region.
  EXPECT_NEAR(rates[0], 0.25f, 1e-6f);
  EXPECT_NEAR(rates[1], 0.50f, 1e-6f);
  EXPECT_NEAR(rates[2], 0.75f, 1e-6f);
  EXPECT_NEAR(rates[3], 1.0f, 1e-6f);  // step 4 = end of warmup = base
  // Annealing is non-increasing afterwards and hits min at total_steps.
  for (size_t i = 4; i < rates.size(); ++i) {
    EXPECT_LE(rates[i], rates[i - 1] + 1e-7f);
  }
  EXPECT_NEAR(rates.back(), 0.0f, 1e-6f);
}

TEST(WarmupCosineLrTest, ZeroWarmupEqualsCosine) {
  Adam a({Param()}, 1.0f);
  Adam b({Param()}, 1.0f);
  WarmupCosineLr warmup(&a, 0, 10, 0.05f);
  CosineAnnealingLr cosine(&b, 10, 0.05f);
  for (int i = 0; i < 10; ++i) {
    warmup.Step();
    cosine.Step();
    EXPECT_NEAR(a.learning_rate(), b.learning_rate(), 1e-6f);
  }
}

TEST(SchedulerDeathTest, RejectsBadParameters) {
  Adam adam({Param()}, 1.0f);
  EXPECT_DEATH(CosineAnnealingLr(&adam, 0), "total_steps");
  EXPECT_DEATH(WarmupCosineLr(&adam, 5, 5), "exceed warmup");
}

// Integration: training with a decaying schedule still converges, and the
// optimizer's final rate reflects the schedule.
TEST(SchedulerIntegrationTest, QuadraticWithCosineSchedule) {
  Tensor x = Tensor::FromData(1, 1, {5.0f}, /*requires_grad=*/true);
  Adam adam({x}, 0.2f);
  CosineAnnealingLr schedule(&adam, /*total_steps=*/200, /*min_lr=*/1e-3f);
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    x.impl()->EnsureGrad();
    x.impl()->grad = {2.0f * x.data()[0]};  // d/dx x^2
    adam.Step();
    schedule.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-2f);
  EXPECT_NEAR(adam.learning_rate(), 1e-3f, 1e-6f);
}

}  // namespace
}  // namespace kvec
