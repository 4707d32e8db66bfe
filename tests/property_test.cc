// Parameterized property suites: invariants that must hold across a grid
// of configurations — mask structure, generator statistics, and metric
// identities on random inputs.
#include <cmath>
#include <set>

#include "core/correlation.h"
#include "data/session.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "metrics/metrics.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace kvec {
namespace {

// ---- Mask invariants over random tangled streams ----

struct MaskCase {
  int num_keys;
  int num_session_values;
  bool key_correlation;
  bool value_correlation;
  int window;
};

class MaskProperty : public ::testing::TestWithParam<MaskCase> {};

TEST_P(MaskProperty, StructuralInvariants) {
  const MaskCase& param = GetParam();
  Rng rng(1000 + param.num_keys * 10 + param.window);
  TangledSequence episode;
  for (int k = 0; k < param.num_keys; ++k) episode.labels[k] = 0;
  for (int i = 0; i < 60; ++i) {
    Item item;
    item.key = rng.NextInt(param.num_keys);
    item.value = {rng.NextInt(8), rng.NextInt(param.num_session_values)};
    item.time = i;
    episode.items.push_back(item);
  }
  CorrelationOptions options;
  options.use_key_correlation = param.key_correlation;
  options.use_value_correlation = param.value_correlation;
  options.value_correlation_window = param.window;
  options.session_field = 1;
  EpisodeMask mask = BuildEpisodeMask(episode, options);

  std::vector<int> session_ids = ComputeSessionIds(episode, 1);
  for (int i = 0; i < 60; ++i) {
    // (1) diagonal visible
    EXPECT_EQ(mask.mask.At(i, i), 0.0f);
    for (int j = 0; j < 60; ++j) {
      const bool visible = mask.mask.At(i, j) == 0.0f;
      // (2) causality
      if (j > i) {
        EXPECT_FALSE(visible);
      }
      if (j >= i) continue;
      const bool same_key = episode.items[i].key == episode.items[j].key;
      // (3) with key correlation on, ALL earlier same-key items visible
      if (param.key_correlation && same_key) {
        EXPECT_TRUE(visible) << i << "," << j;
      }
      // (4) with key correlation off, same-key never visible
      if (!param.key_correlation && same_key) {
        EXPECT_FALSE(visible) << i << "," << j;
      }
      // (5) cross-key visibility requires value correlation enabled and a
      //     session-field match
      if (!same_key && visible) {
        EXPECT_TRUE(param.value_correlation);
        EXPECT_EQ(episode.items[i].value[1], episode.items[j].value[1]);
        EXPECT_LE(i - j, param.window + 60);  // within a joinable horizon
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaskProperty,
    ::testing::Values(MaskCase{2, 2, true, true, 64},
                      MaskCase{4, 2, true, true, 8},
                      MaskCase{3, 3, true, false, 64},
                      MaskCase{3, 2, false, true, 64},
                      MaskCase{5, 4, false, false, 16},
                      MaskCase{1, 2, true, true, 64}));

// ---- Generator invariants over a config grid ----

struct GeneratorCase {
  int num_classes;
  int concurrency;
  double avg_length;
  double burst_continue;
};

class TrafficGeneratorProperty
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(TrafficGeneratorProperty, EpisodesWellFormed) {
  const GeneratorCase& param = GetParam();
  TrafficGeneratorConfig config;
  config.num_classes = param.num_classes;
  config.concurrency = param.concurrency;
  config.avg_flow_length = param.avg_length;
  config.min_flow_length = 4;
  config.burst_continue_prob = param.burst_continue;
  TrafficGenerator generator(config);
  Rng rng(7);
  std::set<int> seen_labels;
  for (int e = 0; e < 20; ++e) {
    TangledSequence episode = generator.GenerateEpisode(rng);
    episode.Validate(2);
    EXPECT_EQ(episode.num_keys(), param.concurrency);
    for (const auto& [key, label] : episode.labels) {
      seen_labels.insert(label);
      EXPECT_GE(episode.KeyLength(key), 4);
    }
  }
  // Over 20 episodes × K flows, most classes should appear.
  EXPECT_GE(static_cast<int>(seen_labels.size()),
            std::min(param.num_classes, 2));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrafficGeneratorProperty,
    ::testing::Values(GeneratorCase{2, 1, 8.0, 0.3},
                      GeneratorCase{4, 3, 15.0, 0.55},
                      GeneratorCase{9, 4, 25.0, 0.88},
                      GeneratorCase{12, 5, 30.0, 0.6},
                      GeneratorCase{3, 2, 60.0, 0.95}));

// ---- Metric identities on random prediction sets ----

class MetricsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsProperty, IdentitiesHold) {
  const int num_classes = GetParam();
  Rng rng(400 + num_classes);
  std::vector<PredictionRecord> records;
  for (int i = 0; i < 200; ++i) {
    PredictionRecord record;
    record.true_label = rng.NextInt(num_classes);
    record.predicted_label = rng.NextInt(num_classes);
    record.sequence_length = 1 + rng.NextInt(40);
    record.observed_items = 1 + rng.NextInt(record.sequence_length);
    records.push_back(record);
  }
  EvaluationSummary summary = Evaluate(records, num_classes);
  // Bounds.
  EXPECT_GE(summary.accuracy, 0.0);
  EXPECT_LE(summary.accuracy, 1.0);
  EXPECT_GT(summary.earliness, 0.0);
  EXPECT_LE(summary.earliness, 1.0);
  EXPECT_GE(summary.macro_f1, 0.0);
  EXPECT_LE(summary.macro_f1, 1.0);
  // HM consistency with its definition.
  EXPECT_NEAR(summary.harmonic_mean,
              HarmonicMean(summary.accuracy, summary.earliness), 1e-12);
  // Confusion matrix row sums = per-class support; total = #records.
  auto matrix = ConfusionMatrix(records, num_classes);
  int64_t total = 0;
  for (const auto& row : matrix) {
    for (int64_t count : row) total += count;
  }
  EXPECT_EQ(total, static_cast<int64_t>(records.size()));
  // Accuracy = trace / total.
  int64_t trace = 0;
  for (int c = 0; c < num_classes; ++c) trace += matrix[c][c];
  EXPECT_NEAR(summary.accuracy,
              static_cast<double>(trace) / records.size(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, MetricsProperty,
                         ::testing::Values(2, 3, 5, 9, 12));

// ---- Softmax invariants over random shapes ----

class SoftmaxProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SoftmaxProperty, RowsAreDistributions) {
  auto [rows, cols] = GetParam();
  Rng rng(500 + rows * 10 + cols);
  Tensor x = Tensor::Zeros(rows, cols);
  for (float& v : x.data()) {
    v = static_cast<float>(rng.NextGaussian() * 3.0);
  }
  Tensor y = ops::Softmax(x);
  for (int r = 0; r < rows; ++r) {
    float total = 0.0f;
    float max_weight = 0.0f;
    int argmax_in = 0, argmax_out = 0;
    for (int c = 0; c < cols; ++c) {
      EXPECT_GT(y.At(r, c), 0.0f);
      total += y.At(r, c);
      if (x.At(r, c) > x.At(r, argmax_in)) argmax_in = c;
      if (y.At(r, c) > max_weight) {
        max_weight = y.At(r, c);
        argmax_out = c;
      }
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
    EXPECT_EQ(argmax_in, argmax_out);  // monotone
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxProperty,
                         ::testing::Values(std::make_pair(1, 2),
                                           std::make_pair(3, 7),
                                           std::make_pair(16, 16),
                                           std::make_pair(40, 3)));

}  // namespace
}  // namespace kvec
