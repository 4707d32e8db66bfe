// Hyper-parameter sweeps producing performance-vs-earliness curves
// (Figures 3–7) and their tabular (de)serialisation.
//
// Cost contract: RunMethodSweep trains one FRESH model per grid value —
// a full sweep is |grid| independent trainings, which at full scale is
// the expensive part of reproducing the figures. `kvec sweep --cache DIR`
// and `kvec figure --cache DIR` keep finished sweeps in one SweepCache
// (exp/cache.h) under SweepCacheKey. Deterministic for fixed
// MethodRunOptions. The functions share no mutable state, so concurrent
// sweeps of different methods/datasets from different threads are safe;
// a single sweep runs sequentially.
#pragma once

#include <string>
#include <vector>

#include "exp/method.h"
#include "util/table.h"

namespace kvec {

// One (method, hyper-parameter) evaluation on a dataset's test split.
struct SweepPoint {
  std::string method;
  double hyper = 0.0;
  double earliness = 0.0;
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double harmonic_mean = 0.0;
};

// Trains/evaluates `method` at every grid value. Points are sorted by
// earliness.
std::vector<SweepPoint> RunMethodSweep(const MethodSpec& method,
                                       const Dataset& dataset,
                                       const MethodRunOptions& options);

// The numeric fields of a SweepPoint, in column order after `method`:
// each one's name (the `kvec sweep --json` key and table label) and its
// sweep-cache CSV column. The columns keep `hm`, which existing cache
// directories carry.
struct SweepMetric {
  const char* key;
  const char* column;
  double SweepPoint::*value;
};
const std::vector<SweepMetric>& SweepMetrics();

// The sweep-cache table: `method`, then one column per SweepMetric.
Table SweepToTable(const std::vector<SweepPoint>& points);
bool SweepFromTable(const Table& table, std::vector<SweepPoint>* points);

// The points of one method, sorted by earliness.
std::vector<SweepPoint> PointsOfMethod(const std::vector<SweepPoint>& all,
                                       const std::string& method);

// Linear interpolation of `metric` at `earliness` along one method's curve
// (points must be sorted by earliness, e.g. from PointsOfMethod). Clamps to
// the endpoints outside the observed earliness range. This is how the
// paper's same-earliness comparisons ("KVEC improves accuracy by X% under
// the same prediction earliness") are computed from the sweeps.
double InterpolateMetric(const std::vector<SweepPoint>& method_points,
                         double earliness, double SweepPoint::*metric);

}  // namespace kvec

