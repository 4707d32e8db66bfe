#include "core/trainer.h"

#include <cmath>

#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace kvec {
namespace {

// A small, strongly separable traffic workload.
Dataset EasyDataset(int train_episodes = 20) {
  TrafficGeneratorConfig config;
  config.num_classes = 2;
  config.concurrency = 3;
  config.avg_flow_length = 12.0;
  config.min_flow_length = 6;
  config.handshake_sharpness = 6.0;  // very separable
  config.body_sharpness = 3.0;
  TrafficGenerator generator(config);
  return GenerateDataset(generator, {train_episodes, 2, 6}, /*seed=*/21);
}

KvecConfig SmallModel(const DatasetSpec& spec) {
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 16;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 24;
  config.learning_rate = 3e-3f;
  config.baseline_learning_rate = 3e-3f;
  config.epochs = 6;
  config.seed = 77;
  return config;
}

TEST(KvecTrainerTest, LossDecreasesOverEpochs) {
  Dataset dataset = EasyDataset();
  KvecConfig config = SmallModel(dataset.spec);
  KvecModel model(config);
  KvecTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  ASSERT_EQ(static_cast<int>(history.size()), config.epochs);
  EXPECT_LT(history.back().classification_loss,
            history.front().classification_loss);
}

TEST(KvecTrainerTest, LearnsAboveChanceOnSeparableData) {
  Dataset dataset = EasyDataset();
  KvecConfig config = SmallModel(dataset.spec);
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  ASSERT_GT(result.summary.num_sequences, 0);
  EXPECT_GT(result.summary.accuracy, 0.65);  // chance = 0.5
}

TEST(KvecTrainerTest, EvaluateRecordsAreConsistent) {
  Dataset dataset = EasyDataset(6);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 1;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  int expected_sequences = 0;
  for (const TangledSequence& episode : dataset.test) {
    expected_sequences += episode.num_keys();
  }
  EXPECT_EQ(result.summary.num_sequences, expected_sequences);
  for (const PredictionRecord& record : result.records) {
    EXPECT_GE(record.observed_items, 1);
    EXPECT_LE(record.observed_items, record.sequence_length);
    EXPECT_GE(record.predicted_label, 0);
    EXPECT_LT(record.predicted_label, 2);
  }
}

TEST(KvecTrainerTest, LargeBetaHaltsEarlier) {
  // The earliness pressure l3 is the knob the paper sweeps: a much larger
  // beta must not produce *later* halting than a strongly negative one.
  Dataset dataset = EasyDataset(12);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 4;

  config.beta = 0.5f;
  KvecModel eager(config);
  KvecTrainer eager_trainer(&eager);
  eager_trainer.Train(dataset.train);
  double eager_earliness =
      eager_trainer.Evaluate(dataset.test).summary.earliness;

  config.beta = -0.05f;
  KvecModel lazy(config);
  KvecTrainer lazy_trainer(&lazy);
  lazy_trainer.Train(dataset.train);
  double lazy_earliness =
      lazy_trainer.Evaluate(dataset.test).summary.earliness;

  EXPECT_LE(eager_earliness, lazy_earliness + 0.05);
}

TEST(KvecTrainerTest, AttentionInstrumentationSumsToOne) {
  Dataset dataset = EasyDataset(6);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 1;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);
  size_t points_read = 0;
  for (const TangledSequence& episode : dataset.test) {
    const EvaluationResult result = trainer.Evaluate({episode});
    const std::vector<AttentionPoint> points =
        ReadAttention(model, episode, result.records);
    EXPECT_EQ(points.size(), result.records.size());  // one per key
    points_read += points.size();
    for (const AttentionPoint& point : points) {
      EXPECT_NEAR(point.internal_score + point.external_score, 1.0, 1e-3);
      EXPECT_GE(point.earliness, 0.0);
      EXPECT_LE(point.earliness, 1.0);
    }
  }
  EXPECT_GT(points_read, 0u);
}

TEST(KvecTrainerTest, AblatedValueCorrelationHasNoExternalAttention) {
  Dataset dataset = EasyDataset(4);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 1;
  config.correlation.use_value_correlation = false;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);
  for (const TangledSequence& episode : dataset.test) {
    const EvaluationResult result = trainer.Evaluate({episode});
    for (const AttentionPoint& point :
         ReadAttention(model, episode, result.records)) {
      EXPECT_NEAR(point.external_score, 0.0, 1e-6);
    }
  }
}

TEST(KvecTrainerTest, TrainWithValidationRestoresBestEpoch) {
  Dataset dataset = EasyDataset(10);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 4;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  int best_epoch = -1;
  std::vector<TrainEpochStats> history = trainer.TrainWithValidation(
      dataset.train, dataset.validation, &best_epoch);
  ASSERT_EQ(static_cast<int>(history.size()), config.epochs);
  ASSERT_GE(best_epoch, 0);
  ASSERT_LT(best_epoch, config.epochs);
  // The restored model must reproduce the best validation HM exactly.
  EvaluationResult validation = trainer.Evaluate(dataset.validation);
  // Re-train a fresh model and track validation HM per epoch to confirm.
  KvecModel fresh(config);
  KvecTrainer fresh_trainer(&fresh);
  double best_hm = -1.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    fresh_trainer.TrainEpoch(dataset.train);
    best_hm = std::max(
        best_hm,
        fresh_trainer.Evaluate(dataset.validation).summary.harmonic_mean);
  }
  EXPECT_NEAR(validation.summary.harmonic_mean, best_hm, 1e-9);
}

TEST(KvecTrainerDeathTest, TrainWithValidationNeedsValidationData) {
  Dataset dataset = EasyDataset(4);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 1;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  EXPECT_DEATH(trainer.TrainWithValidation(dataset.train, {}),
               "check failed");
}

TEST(KvecTrainerTest, TrainsUnderCosineSchedule) {
  Dataset dataset = EasyDataset();
  KvecConfig config = SmallModel(dataset.spec);
  config.lr_schedule = KvecConfig::LrSchedule::kCosine;
  config.min_learning_rate = 1e-4f;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  ASSERT_EQ(static_cast<int>(history.size()), config.epochs);
  EXPECT_LT(history.back().classification_loss,
            history.front().classification_loss);
}

TEST(KvecTrainerTest, TrainsUnderWarmupCosineSchedule) {
  Dataset dataset = EasyDataset();
  KvecConfig config = SmallModel(dataset.spec);
  config.lr_schedule = KvecConfig::LrSchedule::kWarmupCosine;
  config.warmup_epochs = 2;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  trainer.Train(dataset.train);
  EvaluationResult trained = trainer.Evaluate(dataset.test);
  // Training with warmup must not be a no-op: predictions move.
  EXPECT_GE(trained.summary.accuracy, result.summary.accuracy - 0.2);
}

TEST(KvecTrainerTest, TrainsWithMultiHeadAttention) {
  Dataset dataset = EasyDataset(8);
  KvecConfig config = SmallModel(dataset.spec);
  config.num_heads = 2;  // embed_dim 16 -> head_dim 8
  config.epochs = 2;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  ASSERT_EQ(history.size(), 2u);
  for (const TrainEpochStats& stats : history) {
    EXPECT_TRUE(std::isfinite(stats.total_loss));
  }
  EvaluationResult result = trainer.Evaluate(dataset.test);
  EXPECT_GT(result.summary.num_sequences, 0);
}

TEST(KvecTrainerTest, TrainingIsDeterministicGivenSeeds) {
  Dataset dataset = EasyDataset(5);
  KvecConfig config = SmallModel(dataset.spec);
  config.epochs = 2;
  KvecModel a(config);
  KvecTrainer ta(&a);
  ta.Train(dataset.train);
  KvecModel b(config);
  KvecTrainer tb(&b);
  tb.Train(dataset.train);
  EXPECT_EQ(ta.Evaluate(dataset.test).summary.accuracy,
            tb.Evaluate(dataset.test).summary.accuracy);
}

// Algorithm 1's objective on a two-key rollout built by hand: fixed halt
// probabilities, actions and baseline values, so every term has a closed
// form. Key 0 is classified correctly after halting at its third of four
// items; key 1 is misclassified after running to its end (2 items).
TEST(EctlObjectiveTest, TermsMatchTheClosedForm) {
  struct Step {
    float halt_prob;
    int action;
    float baseline;
  };
  const std::vector<std::vector<Step>> steps = {
      {{0.2f, 0, 0.1f}, {0.3f, 0, -0.2f}, {0.6f, 1, 0.5f}},
      {{0.4f, 0, 0.0f}, {0.7f, 0, 0.3f}}};
  const bool correct[] = {true, false};
  const int lengths[] = {4, 2};

  KvecConfig config;
  config.alpha = 0.5f;
  config.beta = 0.25f;
  std::vector<Tensor> main_parameters, baseline_parameters;
  std::vector<HaltTrace> traces(steps.size());
  for (size_t k = 0; k < steps.size(); ++k) {
    for (const Step& step : steps[k]) {
      traces[k].halt_probs.push_back(Tensor::Scalar(step.halt_prob, true));
      traces[k].actions.push_back(step.action);
      traces[k].baseline_values.push_back(Tensor::Scalar(step.baseline, true));
      main_parameters.push_back(traces[k].halt_probs.back());
      baseline_parameters.push_back(traces[k].baseline_values.back());
    }
  }
  Tensor logits = Tensor::FromData(2, 2, {1.0f, 0.0f, 0.0f, 1.0f}, true);
  main_parameters.push_back(logits);
  EctlObjective objective(config, main_parameters, baseline_parameters);
  for (size_t k = 0; k < steps.size(); ++k) {
    objective.AddKey(static_cast<int>(steps[k].size()), lengths[k],
                     correct[k], &traces[k]);
  }

  // R(i) = Σ_{s=i+1..n} r = (n − (i+1))·r, r = ±1; the REINFORCE term is
  // −(R(i) − b_i)·log P(a_i), the earliness term −log π(s_i).
  ASSERT_EQ(objective.policy_terms().size(), 5u);
  ASSERT_EQ(objective.earliness_terms().size(), 5u);
  ASSERT_EQ(objective.baseline_targets().size(), 5u);
  size_t term = 0;
  float l2 = 0.0f, l3 = 0.0f;
  for (size_t k = 0; k < steps.size(); ++k) {
    const int n = static_cast<int>(steps[k].size());
    const float reward = correct[k] ? 1.0f : -1.0f;
    for (int i = 0; i < n; ++i, ++term) {
      const Step& step = steps[k][i];
      const float cumulative = static_cast<float>(n - (i + 1)) * reward;
      const float log_prob = std::log(step.action == 1 ? step.halt_prob
                                                       : 1.0f - step.halt_prob);
      const float policy = -(cumulative - step.baseline) * log_prob;
      const float earliness = -std::log(step.halt_prob);
      EXPECT_EQ(objective.baseline_targets()[term], cumulative) << term;
      EXPECT_EQ(objective.policy_terms()[term].ScalarValue(), policy) << term;
      EXPECT_EQ(objective.earliness_terms()[term].ScalarValue(), earliness)
          << term;
      l2 += policy;  // AddN's order
      l3 += earliness;
    }
  }
  EXPECT_EQ(objective.baseline_targets(),
            (std::vector<float>{2.0f, 1.0f, 0.0f, -1.0f, 0.0f}));

  const Tensor l1 = ops::CrossEntropy(logits, {0, 0});
  objective.Update(l1, 2);
  EXPECT_TRUE(objective.policy_terms().empty());  // the episode is closed
  EXPECT_TRUE(objective.baseline_targets().empty());
  const TrainEpochStats stats = objective.TakeEpochStats();
  EXPECT_EQ(stats.episodes, 1);
  EXPECT_EQ(stats.policy_loss, static_cast<double>(l2 * 0.5f));
  EXPECT_EQ(stats.earliness_loss, static_cast<double>(l3 * 0.5f));
  EXPECT_NEAR(stats.total_loss,
              0.5 * (l1.ScalarValue() + 0.5 * l2 + 0.25 * l3), 1e-5);
  // θ_b regresses b_i onto R(i) by mean squared error.
  const std::vector<float> targets = {2.0f, 1.0f, 0.0f, -1.0f, 0.0f};
  float squared = 0.0f;
  for (size_t k = 0, t = 0; k < steps.size(); ++k) {
    for (const Step& step : steps[k]) {
      const float diff = step.baseline - targets[t++];
      squared += diff * diff;
    }
  }
  EXPECT_EQ(stats.baseline_loss, static_cast<double>(squared / 5.0f));
  EXPECT_EQ(stats.train_accuracy, 0.5);
  EXPECT_EQ(stats.train_earliness, (3.0 / 4 + 2.0 / 2) / 2);
  // Both updates moved their parameters.
  EXPECT_NE(traces[0].halt_probs[0].ScalarValue(), 0.2f);
  EXPECT_NE(traces[0].baseline_values[0].ScalarValue(), 0.1f);
  // The next epoch starts from zero.
  EXPECT_EQ(objective.TakeEpochStats().episodes, 0);
}

// Without halt traces (SRN-Fixed, SRN-Confidence) the objective is l1 per
// key alone, and θ_b is left untouched.
TEST(EctlObjectiveTest, WithoutTracesOnlyTheClassificationTermTrains) {
  KvecConfig config;
  Tensor logits = Tensor::FromData(2, 2, {1.0f, 0.0f, 0.0f, 1.0f}, true);
  Tensor baseline_weight = Tensor::Scalar(0.5f, true);
  EctlObjective objective(config, {logits}, {baseline_weight});
  objective.AddKey(1, 4, true, nullptr);
  objective.AddKey(4, 4, false, nullptr);
  EXPECT_TRUE(objective.policy_terms().empty());
  const Tensor l1 = ops::CrossEntropy(logits, {0, 0});
  const float l1_value = l1.ScalarValue();
  objective.Update(l1, 2);
  const TrainEpochStats stats = objective.TakeEpochStats();
  EXPECT_EQ(stats.total_loss, static_cast<double>(l1_value * 0.5f));
  EXPECT_EQ(stats.classification_loss, static_cast<double>(l1_value * 0.5f));
  EXPECT_EQ(stats.policy_loss, 0.0);
  EXPECT_EQ(stats.earliness_loss, 0.0);
  EXPECT_EQ(stats.baseline_loss, 0.0);
  EXPECT_EQ(stats.train_accuracy, 0.5);
  EXPECT_EQ(stats.train_earliness, (1.0 / 4 + 4.0 / 4) / 2);
  EXPECT_EQ(baseline_weight.ScalarValue(), 0.5f);
}

}  // namespace
}  // namespace kvec
