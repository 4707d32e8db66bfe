// Tests for the two classical (non-deep) early classifiers: the
// prefix-based stability rule (PrefixEcts) and feature-based indicator
// matching (IndicatorMatcher).
#include <algorithm>
#include <vector>

#include "baselines/indicator_matcher.h"
#include "baselines/prefix_ects.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "exp/method.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

// A strongly separable 2-class traffic workload.
Dataset EasyDataset(int train_episodes = 25, uint64_t seed = 51) {
  TrafficGeneratorConfig config;
  config.num_classes = 2;
  config.concurrency = 3;
  config.avg_flow_length = 14.0;
  config.min_flow_length = 6;
  config.handshake_sharpness = 6.0;
  config.body_sharpness = 3.0;
  TrafficGenerator generator(config);
  return GenerateDataset(generator, {train_episodes, 3, 8}, seed);
}

// A hand-built dataset where class 0 sequences always contain token 5 in
// field 0 and class 1 sequences always contain token 6.
Dataset MarkerDataset(int episodes_per_split = 10) {
  Dataset dataset;
  dataset.spec.name = "marker";
  dataset.spec.value_fields = {{"field0", 10}, {"dir", 2}};
  dataset.spec.session_field = 1;
  dataset.spec.num_classes = 2;
  dataset.spec.max_keys_per_episode = 2;
  dataset.spec.max_sequence_length = 16;
  dataset.spec.max_episode_length = 32;
  Rng rng(99);
  auto make_split = [&](int count) {
    std::vector<TangledSequence> split;
    for (int e = 0; e < count; ++e) {
      TangledSequence episode;
      episode.labels[0] = 0;
      episode.labels[1] = 1;
      for (int t = 0; t < 20; ++t) {
        Item item;
        item.key = t % 2;
        const int label = item.key;
        // The class marker appears from position 1 onwards; the first item
        // is uninformative noise shared by both classes. (With a longer
        // noise prefix the stability rule would latch onto the constant
        // noise prediction — the classic prefix-method failure mode, which
        // PrefixEctsTest.StabilityOneHaltsAtFirstItem &co. cover.)
        const int position = t / 2;
        const int marker = label == 0 ? 5 : 6;
        item.value = std::vector<int>{position < 1 ? rng.NextInt(4) : marker,
                                      rng.NextInt(2)};
        item.time = t;
        episode.items.push_back(item);
      }
      split.push_back(std::move(episode));
    }
    return split;
  };
  dataset.train = make_split(episodes_per_split);
  dataset.validation = make_split(2);
  dataset.test = make_split(4);
  return dataset;
}

// ---- PrefixEcts ----

TEST(PrefixEctsTest, LearnsSeparableMarkers) {
  Dataset dataset = MarkerDataset();
  PrefixEctsConfig config;
  config.stability = 2;
  PrefixEcts model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  EXPECT_GT(result.summary.accuracy, 0.9);
  // The marker appears at position 3 (1-based), so halting must be early.
  EXPECT_LT(result.summary.earliness, 0.8);
}

TEST(PrefixEctsTest, LearnsAboveChanceOnTraffic) {
  Dataset dataset = EasyDataset();
  PrefixEctsConfig config;
  config.stability = 3;
  PrefixEcts model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  ASSERT_GT(result.summary.num_sequences, 0);
  EXPECT_GT(result.summary.accuracy, 0.6);  // chance = 0.5
}

TEST(PrefixEctsTest, StabilityOneHaltsAtFirstItem) {
  Dataset dataset = EasyDataset(10);
  PrefixEctsConfig config;
  config.stability = 1;
  PrefixEcts model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  for (const PredictionRecord& record : result.records) {
    EXPECT_EQ(record.observed_items, 1);
  }
}

TEST(PrefixEctsTest, LargerStabilityWaitsLonger) {
  Dataset dataset = EasyDataset(15);
  PrefixEctsConfig fast_config, slow_config;
  fast_config.stability = 1;
  slow_config.stability = 6;
  PrefixEcts fast(dataset.spec, fast_config);
  PrefixEcts slow(dataset.spec, slow_config);
  fast.Fit(dataset.train);
  slow.Fit(dataset.train);
  EXPECT_LT(fast.Evaluate(dataset.test).summary.earliness,
            slow.Evaluate(dataset.test).summary.earliness);
}

TEST(PrefixEctsTest, RecordsAreConsistent) {
  Dataset dataset = EasyDataset(8);
  PrefixEctsConfig config;
  PrefixEcts model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  ASSERT_FALSE(result.records.empty());
  for (const PredictionRecord& record : result.records) {
    EXPECT_GE(record.observed_items, 1);
    EXPECT_LE(record.observed_items, record.sequence_length);
    EXPECT_GE(record.predicted_label, 0);
    EXPECT_LT(record.predicted_label, dataset.spec.num_classes);
  }
}

TEST(PrefixEctsTest, FeatureDimSumsVocabularies) {
  Dataset dataset = MarkerDataset(2);
  PrefixEcts model(dataset.spec, {});
  EXPECT_EQ(model.feature_dim(), 10 + 2);
}

TEST(PrefixEctsTest, ClassifyPrefixDirectly) {
  Dataset dataset = MarkerDataset();
  PrefixEctsConfig config;
  PrefixEcts model(dataset.spec, config);
  model.Fit(dataset.train);
  // Build a 6-item class-1 prefix: markers (token 6) from position 2 on.
  std::vector<Item> items(6);
  std::vector<const Item*> prefix;
  for (int t = 0; t < 6; ++t) {
    items[t].key = 1;
    items[t].value = std::vector<int>{t < 2 ? 1 : 6, 0};
    prefix.push_back(&items[t]);
  }
  EXPECT_EQ(model.Classify(prefix), 1);
}

TEST(PrefixEctsDeathTest, RejectsBadConfig) {
  Dataset dataset = MarkerDataset(1);
  PrefixEctsConfig bad;
  bad.max_prefix = 0;
  EXPECT_DEATH(PrefixEcts(dataset.spec, bad), "check failed");
}

// ---- IndicatorMatcher ----

TEST(IndicatorMatcherTest, MinesMarkersAndHaltsEarly) {
  Dataset dataset = MarkerDataset();
  IndicatorMatcherConfig config;
  config.precision_threshold = 0.9f;
  config.min_support = 3;
  IndicatorMatcher model(dataset.spec, config);
  model.Fit(dataset.train);
  EXPECT_GT(model.num_indicators(), 0);
  EvaluationResult result = model.Evaluate(dataset.test);
  EXPECT_GT(result.summary.accuracy, 0.9);
  EXPECT_LT(result.summary.earliness, 0.8);
}

TEST(IndicatorMatcherTest, LearnsAboveChanceOnTraffic) {
  Dataset dataset = EasyDataset();
  IndicatorMatcherConfig config;
  config.precision_threshold = 0.7f;
  IndicatorMatcher model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  ASSERT_GT(result.summary.num_sequences, 0);
  EXPECT_GT(result.summary.accuracy, 0.55);
}

TEST(IndicatorMatcherTest, HigherPrecisionMinesFewerIndicators) {
  Dataset dataset = EasyDataset(15);
  IndicatorMatcherConfig loose, strict;
  loose.precision_threshold = 0.5f;
  strict.precision_threshold = 0.95f;
  IndicatorMatcher a(dataset.spec, loose);
  IndicatorMatcher b(dataset.spec, strict);
  a.Fit(dataset.train);
  b.Fit(dataset.train);
  EXPECT_GE(a.num_indicators(), b.num_indicators());
}

TEST(IndicatorMatcherTest, NoIndicatorsFallsBackToMajority) {
  // Pure-noise dataset: both classes draw identical uniform tokens, so no
  // n-gram can reach 95% precision with reasonable support.
  Dataset dataset;
  dataset.spec.name = "noise";
  dataset.spec.value_fields = {{"field0", 3}, {"dir", 2}};
  dataset.spec.session_field = 1;
  dataset.spec.num_classes = 2;
  Rng rng(7);
  auto split = [&](int count) {
    std::vector<TangledSequence> out;
    for (int e = 0; e < count; ++e) {
      TangledSequence episode;
      episode.labels[0] = 0;
      episode.labels[1] = 1;
      for (int t = 0; t < 16; ++t) {
        Item item;
        item.key = t % 2;
        item.value = std::vector<int>{rng.NextInt(3), rng.NextInt(2)};
        item.time = t;
        episode.items.push_back(item);
      }
      out.push_back(std::move(episode));
    }
    return out;
  };
  dataset.train = split(20);
  dataset.test = split(5);
  IndicatorMatcherConfig config;
  config.precision_threshold = 0.995f;
  config.min_support = 10;
  IndicatorMatcher model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  // Everything halts at full length with the majority-class fallback.
  for (const PredictionRecord& record : result.records) {
    if (record.observed_items == record.sequence_length) {
      EXPECT_EQ(record.predicted_label, model.majority_class());
    }
  }
}

TEST(IndicatorMatcherTest, RecordsAreConsistent) {
  Dataset dataset = EasyDataset(8);
  IndicatorMatcherConfig config;
  IndicatorMatcher model(dataset.spec, config);
  model.Fit(dataset.train);
  EvaluationResult result = model.Evaluate(dataset.test);
  ASSERT_FALSE(result.records.empty());
  for (const PredictionRecord& record : result.records) {
    EXPECT_GE(record.observed_items, 1);
    EXPECT_LE(record.observed_items, record.sequence_length);
  }
}

TEST(IndicatorMatcherDeathTest, RejectsBadConfig) {
  Dataset dataset = MarkerDataset(1);
  IndicatorMatcherConfig bad;
  bad.precision_threshold = 0.0f;
  EXPECT_DEATH(IndicatorMatcher(dataset.spec, bad), "check failed");
}

// ---- Method-spec integration ----

TEST(ClassicMethodsTest, ExtendedMethodListHasSevenEntries) {
  std::vector<MethodSpec> methods = AllMethodsExtended();
  ASSERT_EQ(methods.size(), 7u);
  EXPECT_EQ(methods[5].name, "Prefix-ECTS");
  EXPECT_EQ(methods[6].name, "Indicator");
}

TEST(ClassicMethodsTest, MethodSpecsRunEndToEnd) {
  Dataset dataset = EasyDataset(8);
  MethodRunOptions options;
  options.epochs = 2;
  for (MethodSpec spec : {PrefixEctsMethod(), IndicatorMatcherMethod()}) {
    ASSERT_FALSE(spec.grid.empty());
    EvaluationResult result = spec.run(dataset, spec.grid[2], options);
    EXPECT_GT(result.summary.num_sequences, 0) << spec.name;
    EXPECT_GE(result.summary.accuracy, 0.0) << spec.name;
    EXPECT_LE(result.summary.earliness, 1.0) << spec.name;
  }
}

}  // namespace
}  // namespace kvec
