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

Table SweepToTable(const std::vector<SweepPoint>& points) {
  Table table({"method", "hyper", "earliness", "accuracy", "precision",
               "recall", "f1", "hm"});
  for (const SweepPoint& point : points) {
    table.AddRow({point.method, Table::FormatDouble(point.hyper, 6),
                  Table::FormatDouble(point.earliness, 6),
                  Table::FormatDouble(point.accuracy, 6),
                  Table::FormatDouble(point.precision, 6),
                  Table::FormatDouble(point.recall, 6),
                  Table::FormatDouble(point.f1, 6),
                  Table::FormatDouble(point.harmonic_mean, 6)});
  }
  return table;
}

bool SweepFromTable(const Table& table, std::vector<SweepPoint>* points) {
  if (table.columns().size() != 8 || table.columns()[0] != "method") {
    return false;
  }
  points->clear();
  for (const auto& row : table.rows()) {
    SweepPoint point;
    point.method = row[0];
    point.hyper = std::atof(row[1].c_str());
    point.earliness = std::atof(row[2].c_str());
    point.accuracy = std::atof(row[3].c_str());
    point.precision = std::atof(row[4].c_str());
    point.recall = std::atof(row[5].c_str());
    point.f1 = std::atof(row[6].c_str());
    point.harmonic_mean = std::atof(row[7].c_str());
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
