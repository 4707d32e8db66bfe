// Deterministic pseudo-random number generation.
//
// All stochastic pieces of the library (parameter init, dropout, action
// sampling, data generation) draw from an explicitly threaded `Rng` so that
// every experiment is reproducible from a single seed. The generator is
// xoshiro256**, seeded through splitmix64.
#pragma once

#include <cstdint>
#include <vector>

namespace kvec {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextUint64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double NextUniform(double lo, double hi);

  // Standard normal (Box-Muller).
  double NextGaussian();

  // Uniform integer in [0, n). Requires n > 0.
  int NextInt(int n);

  // Bernoulli draw with success probability p.
  bool NextBernoulli(double p);

  // Index sampled proportionally to the (non-negative) weights.
  int NextCategorical(const std::vector<double>& weights);

  // Poisson-distributed count with the given mean (mean < ~50 expected).
  int NextPoisson(double mean);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (int i = static_cast<int>(values.size()) - 1; i > 0; --i) {
      int j = NextInt(i + 1);
      std::swap(values[i], values[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace kvec

