// On-disk cache of method sweeps.
//
// One method's sweep is |grid| trainings; `kvec sweep --cache DIR` and
// `kvec figure --cache DIR` store each finished sweep as one CSV and reload
// it on the next run. Figures 3–7 and the headline project the same five
// curve sweeps, so with a shared cache they train them once. A cache over
// an empty directory name is disabled: every Load misses, Store is a
// no-op, and LoadOrCompute always computes (a fresh run).
//
// Keys come from SweepCacheKey, which pins everything that shapes the
// numbers, so a changed recipe can never reuse stale points.
//
// Concurrency contract: one CSV file per key, written whole — concurrent
// Store calls for the SAME key are last-writer-wins (both writers hold a
// complete, valid result, so either outcome is correct); there is no
// cross-process locking. Load of a malformed/partial file fails cleanly
// and the caller recomputes. Keys are sanitised into filenames, so any
// printable key is safe.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace kvec {

// The key of one method's sweep on a generated preset dataset: preset,
// scale, dataset seed, episode override (0 = the preset's default), every
// MethodRunOptions field (model seed, epochs, dims, learning rate), the
// method's name and its grid size.
std::string SweepCacheKey(PresetId preset, ExperimentScale scale,
                          uint64_t dataset_seed, int episodes,
                          const MethodRunOptions& options,
                          const MethodSpec& method);

class SweepCache {
 public:
  // `directory` is created if missing; empty disables the cache.
  explicit SweepCache(std::string directory);

  bool Load(const std::string& key, std::vector<SweepPoint>* points) const;
  void Store(const std::string& key,
             const std::vector<SweepPoint>& points) const;

  // Loads from the cache or runs `compute` and stores the result.
  std::vector<SweepPoint> LoadOrCompute(
      const std::string& key,
      const std::function<std::vector<SweepPoint>()>& compute) const;

 private:
  std::string PathFor(const std::string& key) const;
  std::string directory_;
};

}  // namespace kvec
