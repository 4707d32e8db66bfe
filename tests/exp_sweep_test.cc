#include "exp/sweep.h"

#include <cstdio>
#include <filesystem>

#include "data/generator.h"
#include "data/traffic_generator.h"
#include "exp/cache.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

Dataset TinyDataset() {
  TrafficGeneratorConfig config;
  config.num_classes = 2;
  config.concurrency = 2;
  config.avg_flow_length = 8.0;
  config.min_flow_length = 4;
  config.handshake_sharpness = 6.0;
  TrafficGenerator generator(config);
  return GenerateDataset(generator, {6, 1, 3}, /*seed=*/61);
}

MethodRunOptions TinyOptions() {
  MethodRunOptions options = MethodRunOptions::ForScale(ExperimentScale::kTiny);
  options.epochs = 2;
  return options;
}

TEST(MethodTest, AllMethodsPresent) {
  std::vector<MethodSpec> methods = AllMethods();
  ASSERT_EQ(methods.size(), 5u);
  EXPECT_EQ(methods[0].name, "KVEC");
  for (const MethodSpec& method : methods) {
    EXPECT_FALSE(method.grid.empty());
    EXPECT_TRUE(method.run != nullptr);
  }
}

TEST(MethodTest, EachMethodRunsEndToEnd) {
  Dataset dataset = TinyDataset();
  MethodRunOptions options = TinyOptions();
  for (const MethodSpec& method : AllMethods()) {
    EvaluationResult result =
        method.run(dataset, method.grid.front(), options);
    EXPECT_GT(result.summary.num_sequences, 0) << method.name;
    EXPECT_GE(result.summary.accuracy, 0.0) << method.name;
    EXPECT_LE(result.summary.earliness, 1.0) << method.name;
  }
}

TEST(SweepTest, PointsSortedByEarliness) {
  Dataset dataset = TinyDataset();
  MethodRunOptions options = TinyOptions();
  MethodSpec fixed = SrnFixedMethod();
  fixed.grid = {1, 4, 16};
  std::vector<SweepPoint> points = RunMethodSweep(fixed, dataset, options);
  ASSERT_EQ(points.size(), 3u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].earliness, points[i].earliness);
  }
}

TEST(SweepTest, FixedTauGridSpansEarliness) {
  // τ=1 must observe fewer items than τ=16 on sequences of length >= 4.
  Dataset dataset = TinyDataset();
  MethodRunOptions options = TinyOptions();
  MethodSpec fixed = SrnFixedMethod();
  fixed.grid = {1, 16};
  std::vector<SweepPoint> points = RunMethodSweep(fixed, dataset, options);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LT(points.front().earliness, points.back().earliness);
}

TEST(SweepTest, TableRoundTrip) {
  std::vector<SweepPoint> points(2);
  points[0].method = "KVEC";
  points[0].hyper = 0.01;
  points[0].earliness = 0.2;
  points[0].accuracy = 0.9;
  points[0].harmonic_mean = 0.84;
  points[1].method = "EARLIEST";
  points[1].hyper = -0.02;
  points[1].earliness = 0.5;
  points[1].accuracy = 0.7;

  Table table = SweepToTable(points);
  std::vector<SweepPoint> parsed;
  ASSERT_TRUE(SweepFromTable(table, &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].method, "KVEC");
  EXPECT_NEAR(parsed[0].accuracy, 0.9, 1e-5);
  EXPECT_NEAR(parsed[1].hyper, -0.02, 1e-5);
}

TEST(SweepTest, FromTableRejectsWrongSchema) {
  Table table({"not", "the", "schema"});
  std::vector<SweepPoint> parsed;
  EXPECT_FALSE(SweepFromTable(table, &parsed));
}

TEST(CacheTest, StoreThenLoad) {
  std::string dir = ::testing::TempDir() + "/kvec_cache_test";
  std::filesystem::remove_all(dir);
  SweepCache cache(dir);
  std::vector<SweepPoint> points(1);
  points[0].method = "KVEC";
  points[0].accuracy = 0.5;
  cache.Store("unit", points);
  std::vector<SweepPoint> loaded;
  ASSERT_TRUE(cache.Load("unit", &loaded));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].method, "KVEC");
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, MissingKeyLoadsFalse) {
  std::string dir = ::testing::TempDir() + "/kvec_cache_test2";
  std::filesystem::remove_all(dir);
  SweepCache cache(dir);
  std::vector<SweepPoint> loaded;
  EXPECT_FALSE(cache.Load("never-stored", &loaded));
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, LoadOrComputeComputesOnce) {
  std::string dir = ::testing::TempDir() + "/kvec_cache_test3";
  std::filesystem::remove_all(dir);
  SweepCache cache(dir);
  int calls = 0;
  auto compute = [&]() {
    ++calls;
    std::vector<SweepPoint> points(1);
    points[0].method = "M";
    return points;
  };
  cache.LoadOrCompute("key", compute);
  cache.LoadOrCompute("key", compute);
  EXPECT_EQ(calls, 1);
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, EmptyDirectoryDisablesTheCache) {
  SweepCache cache("");
  int calls = 0;
  auto compute = [&]() {
    ++calls;
    return std::vector<SweepPoint>(1);
  };
  cache.LoadOrCompute("key", compute);
  cache.LoadOrCompute("key", compute);
  EXPECT_EQ(calls, 2);
  std::vector<SweepPoint> loaded;
  EXPECT_FALSE(cache.Load("key", &loaded));
}

TEST(CacheTest, KeyPinsTheWholeRecipe) {
  const MethodRunOptions options =
      MethodRunOptions::ForScale(ExperimentScale::kTiny);
  const MethodSpec method = KvecMethod();
  auto key = [&](uint64_t dataset_seed, int episodes,
                 const MethodRunOptions& run_options,
                 const MethodSpec& spec) {
    return SweepCacheKey(PresetId::kUstcTfc2016, ExperimentScale::kTiny,
                         dataset_seed, episodes, run_options, spec);
  };
  const std::string base = key(20240411, 0, options, method);
  EXPECT_EQ(base, key(20240411, 0, options, method));

  EXPECT_NE(base, key(20240412, 0, options, method)) << "dataset seed";
  EXPECT_NE(base, key(20240411, 30, options, method)) << "episodes";
  EXPECT_NE(base,
            SweepCacheKey(PresetId::kTrafficFg, ExperimentScale::kTiny,
                          20240411, 0, options, method))
      << "preset";
  EXPECT_NE(base,
            SweepCacheKey(PresetId::kUstcTfc2016, ExperimentScale::kSmall,
                          20240411, 0, options, method))
      << "scale";
  const std::vector<std::pair<const char*, void (*)(MethodRunOptions*)>>
      changes = {
          {"model seed", [](MethodRunOptions* o) { o->seed += 1; }},
          {"epochs", [](MethodRunOptions* o) { o->epochs += 1; }},
          {"embed dim", [](MethodRunOptions* o) { o->embed_dim += 1; }},
          {"state dim", [](MethodRunOptions* o) { o->state_dim += 1; }},
          {"blocks", [](MethodRunOptions* o) { o->num_blocks += 1; }},
          {"ffn dim", [](MethodRunOptions* o) { o->ffn_hidden_dim += 1; }},
          {"learning rate",
           [](MethodRunOptions* o) { o->learning_rate *= 2; }},
      };
  for (const auto& [what, change] : changes) {
    MethodRunOptions changed = options;
    change(&changed);
    EXPECT_NE(base, key(20240411, 0, changed, method)) << what;
  }
  MethodSpec fewer_points = method;
  fewer_points.grid.pop_back();
  EXPECT_NE(base, key(20240411, 0, options, fewer_points)) << "grid size";
  EXPECT_NE(base, key(20240411, 0, options, SrnFixedMethod())) << "method";
}

// ---- Curve interpolation (headline_improvements machinery) ----

SweepPoint Point(const std::string& method, double earliness,
                 double accuracy, double hm = 0.0) {
  SweepPoint point;
  point.method = method;
  point.earliness = earliness;
  point.accuracy = accuracy;
  point.harmonic_mean = hm;
  return point;
}

TEST(InterpolateTest, PointsOfMethodFiltersAndSorts) {
  std::vector<SweepPoint> all = {Point("A", 0.5, 0.9), Point("B", 0.1, 0.2),
                                 Point("A", 0.1, 0.5), Point("A", 0.3, 0.7)};
  std::vector<SweepPoint> a = PointsOfMethod(all, "A");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].earliness, 0.1);
  EXPECT_DOUBLE_EQ(a[1].earliness, 0.3);
  EXPECT_DOUBLE_EQ(a[2].earliness, 0.5);
  EXPECT_TRUE(PointsOfMethod(all, "missing").empty());
}

TEST(InterpolateTest, LinearBetweenPoints) {
  std::vector<SweepPoint> curve = {Point("A", 0.1, 0.5),
                                   Point("A", 0.3, 0.9)};
  EXPECT_NEAR(InterpolateMetric(curve, 0.2, &SweepPoint::accuracy), 0.7,
              1e-12);
  EXPECT_NEAR(InterpolateMetric(curve, 0.15, &SweepPoint::accuracy), 0.6,
              1e-12);
}

TEST(InterpolateTest, ClampsOutsideRange) {
  std::vector<SweepPoint> curve = {Point("A", 0.2, 0.4),
                                   Point("A", 0.6, 0.8)};
  EXPECT_DOUBLE_EQ(InterpolateMetric(curve, 0.0, &SweepPoint::accuracy), 0.4);
  EXPECT_DOUBLE_EQ(InterpolateMetric(curve, 1.0, &SweepPoint::accuracy), 0.8);
}

TEST(InterpolateTest, ExactPointsReturnedVerbatim) {
  std::vector<SweepPoint> curve = {Point("A", 0.1, 0.5, 0.2),
                                   Point("A", 0.4, 0.9, 0.6)};
  EXPECT_DOUBLE_EQ(InterpolateMetric(curve, 0.4, &SweepPoint::accuracy),
                   0.9);
  EXPECT_DOUBLE_EQ(
      InterpolateMetric(curve, 0.1, &SweepPoint::harmonic_mean), 0.2);
}

TEST(InterpolateTest, DuplicateEarlinessDoesNotDivideByZero) {
  std::vector<SweepPoint> curve = {Point("A", 0.2, 0.4),
                                   Point("A", 0.2, 0.6),
                                   Point("A", 0.5, 1.0)};
  const double v = InterpolateMetric(curve, 0.2, &SweepPoint::accuracy);
  EXPECT_GE(v, 0.4);
  EXPECT_LE(v, 0.6);
}

TEST(InterpolateDeathTest, EmptyCurveRejected) {
  EXPECT_DEATH(InterpolateMetric({}, 0.5, &SweepPoint::accuracy),
               "check failed");
}

}  // namespace
}  // namespace kvec
