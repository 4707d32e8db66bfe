#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace kvec {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, NextIntWithinRangeAndCoversAll) {
  Rng rng(10);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    int v = rng.NextInt(5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 5);
    ++counts[v];
  }
  for (int count : counts) EXPECT_GT(count, 800);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(12);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 10000.0, 0.1, 0.03);
  EXPECT_NEAR(counts[1] / 10000.0, 0.3, 0.03);
  EXPECT_NEAR(counts[3] / 10000.0, 0.6, 0.03);
}

TEST(RngTest, PoissonMean) {
  Rng rng(13);
  double total = 0.0;
  for (int i = 0; i < 5000; ++i) total += rng.NextPoisson(4.0);
  EXPECT_NEAR(total / 5000.0, 4.0, 0.2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngDeathTest, CategoricalRejectsAllZeroWeights) {
  Rng rng(16);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_DEATH(rng.NextCategorical(weights), "check failed");
}

TEST(RngDeathTest, NextIntRejectsNonPositive) {
  Rng rng(17);
  EXPECT_DEATH(rng.NextInt(0), "check failed");
}

}  // namespace
}  // namespace kvec
