#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace kvec {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

int Rng::NextInt(int n) {
  KVEC_CHECK_GT(n, 0);
  return static_cast<int>(NextUint64() % static_cast<uint64_t>(n));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

int Rng::NextCategorical(const std::vector<double>& weights) {
  KVEC_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    KVEC_CHECK_GE(w, 0.0);
    total += w;
  }
  KVEC_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

int Rng::NextPoisson(double mean) {
  KVEC_CHECK_GE(mean, 0.0);
  // Knuth's algorithm; fine for the small means used by the generators.
  double limit = std::exp(-mean);
  double product = NextDouble();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

}  // namespace kvec
