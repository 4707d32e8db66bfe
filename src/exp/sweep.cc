#include "exp/sweep.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace kvec {

std::vector<SweepPoint> RunMethodSweep(const MethodSpec& method,
                                       const Dataset& dataset,
                                       const MethodRunOptions& options) {
  std::vector<SweepPoint> points;
  points.reserve(method.grid.size());
  for (double hyper : method.grid) {
    EvaluationResult result = method.run(dataset, hyper, options);
    SweepPoint point;
    point.method = method.name;
    point.hyper = hyper;
    point.earliness = result.summary.earliness;
    point.accuracy = result.summary.accuracy;
    point.precision = result.summary.macro_precision;
    point.recall = result.summary.macro_recall;
    point.f1 = result.summary.macro_f1;
    point.harmonic_mean = result.summary.harmonic_mean;
    points.push_back(point);
  }
  std::sort(points.begin(), points.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.earliness < b.earliness;
            });
  return points;
}

const std::vector<SweepMetric>& SweepMetrics() {
  static const std::vector<SweepMetric> metrics = {
      {"hyper", "hyper", &SweepPoint::hyper},
      {"earliness", "earliness", &SweepPoint::earliness},
      {"accuracy", "accuracy", &SweepPoint::accuracy},
      {"precision", "precision", &SweepPoint::precision},
      {"recall", "recall", &SweepPoint::recall},
      {"f1", "f1", &SweepPoint::f1},
      {"harmonic_mean", "hm", &SweepPoint::harmonic_mean},
  };
  return metrics;
}

Table SweepToTable(const std::vector<SweepPoint>& points) {
  std::vector<std::string> columns = {"method"};
  for (const SweepMetric& metric : SweepMetrics()) {
    columns.push_back(metric.column);
  }
  Table table(std::move(columns));
  for (const SweepPoint& point : points) {
    std::vector<std::string> row = {point.method};
    for (const SweepMetric& metric : SweepMetrics()) {
      row.push_back(Table::FormatDouble(point.*metric.value, 6));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

bool SweepFromTable(const Table& table, std::vector<SweepPoint>* points) {
  const std::vector<SweepMetric>& metrics = SweepMetrics();
  if (table.columns().size() != 1 + metrics.size() ||
      table.columns()[0] != "method") {
    return false;
  }
  points->clear();
  for (const auto& row : table.rows()) {
    SweepPoint point;
    point.method = row[0];
    for (size_t i = 0; i < metrics.size(); ++i) {
      point.*metrics[i].value = std::atof(row[1 + i].c_str());
    }
    points->push_back(point);
  }
  return true;
}

std::vector<SweepPoint> PointsOfMethod(const std::vector<SweepPoint>& all,
                                       const std::string& method) {
  std::vector<SweepPoint> points;
  for (const SweepPoint& point : all) {
    if (point.method == method) points.push_back(point);
  }
  std::sort(points.begin(), points.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.earliness < b.earliness;
            });
  return points;
}

double InterpolateMetric(const std::vector<SweepPoint>& method_points,
                         double earliness, double SweepPoint::*metric) {
  KVEC_CHECK(!method_points.empty());
  if (earliness <= method_points.front().earliness) {
    return method_points.front().*metric;
  }
  if (earliness >= method_points.back().earliness) {
    return method_points.back().*metric;
  }
  for (size_t i = 1; i < method_points.size(); ++i) {
    const SweepPoint& lo = method_points[i - 1];
    const SweepPoint& hi = method_points[i];
    if (earliness > hi.earliness) continue;
    const double span = hi.earliness - lo.earliness;
    if (span <= 0.0) return hi.*metric;  // duplicate earliness
    const double t = (earliness - lo.earliness) / span;
    return lo.*metric + t * (hi.*metric - lo.*metric);
  }
  return method_points.back().*metric;  // unreachable
}

}  // namespace kvec
