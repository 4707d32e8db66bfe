#include "baselines/baseline_model.h"

#include <cmath>

#include "baselines/baseline_trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

Dataset EasyDataset(int train_episodes = 16) {
  TrafficGeneratorConfig config;
  config.num_classes = 2;
  config.concurrency = 3;
  config.avg_flow_length = 12.0;
  config.min_flow_length = 6;
  config.handshake_sharpness = 6.0;
  config.body_sharpness = 3.0;
  TrafficGenerator generator(config);
  return GenerateDataset(generator, {train_episodes, 2, 5}, /*seed=*/41);
}

BaselineConfig MakeConfig(const Dataset& dataset, RepresentationKind repr,
                          HaltingKind halting) {
  BaselineConfig config;
  config.representation = repr;
  config.halting = halting;
  config.base = KvecConfig::ForSpec(dataset.spec);
  config.base.embed_dim = 16;
  config.base.state_dim = 16;
  config.base.num_blocks = 1;
  config.base.ffn_hidden_dim = 24;
  config.base.learning_rate = 3e-3f;
  config.base.baseline_learning_rate = 3e-3f;
  config.base.epochs = 5;
  config.base.seed = 53;
  return config;
}

TEST(BaselineModelTest, TransformerStateWidthIsEmbedDim) {
  Dataset dataset = EasyDataset(2);
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kPolicy);
  BaselineModel model(config);
  EXPECT_EQ(model.state_dim(), 16);
  EXPECT_NE(model.encoder(), nullptr);
  EXPECT_EQ(model.fusion(), nullptr);
}

TEST(BaselineModelTest, LstmStateWidthIsStateDim) {
  Dataset dataset = EasyDataset(2);
  BaselineConfig config =
      MakeConfig(dataset, RepresentationKind::kLstm, HaltingKind::kPolicy);
  config.base.state_dim = 20;
  BaselineModel model(config);
  EXPECT_EQ(model.state_dim(), 20);
  EXPECT_EQ(model.encoder(), nullptr);
  EXPECT_NE(model.fusion(), nullptr);
}

TEST(SrnFixedTest, HaltsExactlyAtTau) {
  Dataset dataset = EasyDataset(4);
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kFixed);
  config.fixed_halt_step = 3;
  config.base.epochs = 1;
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  for (const PredictionRecord& record : result.records) {
    EXPECT_EQ(record.observed_items, std::min(3, record.sequence_length));
  }
}

TEST(SrnFixedTest, TauBeyondLengthHaltsAtEnd) {
  Dataset dataset = EasyDataset(4);
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kFixed);
  config.fixed_halt_step = 10000;
  config.base.epochs = 1;
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  for (const PredictionRecord& record : result.records) {
    EXPECT_EQ(record.observed_items, record.sequence_length);
  }
}

TEST(SrnConfidenceTest, ThresholdControlsEarliness) {
  Dataset dataset = EasyDataset();
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kConfidence);
  config.confidence_threshold = 0.55f;
  BaselineModel eager(config);
  BaselineTrainer eager_trainer(&eager);
  eager_trainer.Train(dataset.train);
  double eager_earliness =
      eager_trainer.Evaluate(dataset.test).summary.earliness;

  config.confidence_threshold = 0.999f;
  BaselineModel conservative(config);
  BaselineTrainer conservative_trainer(&conservative);
  conservative_trainer.Train(dataset.train);
  double conservative_earliness =
      conservative_trainer.Evaluate(dataset.test).summary.earliness;

  EXPECT_LE(eager_earliness, conservative_earliness + 1e-9);
}

TEST(SrnEarliestTest, LearnsAboveChance) {
  Dataset dataset = EasyDataset();
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kPolicy);
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  trainer.Train(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  EXPECT_GT(result.summary.accuracy, 0.6);
}

TEST(EarliestTest, LearnsAboveChance) {
  Dataset dataset = EasyDataset();
  BaselineConfig config =
      MakeConfig(dataset, RepresentationKind::kLstm, HaltingKind::kPolicy);
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  trainer.Train(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  EXPECT_GT(result.summary.accuracy, 0.6);
}

TEST(BaselineTrainerTest, RecordsCoverAllSequences) {
  Dataset dataset = EasyDataset(4);
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kFixed);
  config.base.epochs = 1;
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  int expected = 0;
  for (const TangledSequence& episode : dataset.test) {
    expected += episode.num_keys();
  }
  EXPECT_EQ(result.summary.num_sequences, expected);
}

TEST(BaselineTrainerTest, LossDecreases) {
  Dataset dataset = EasyDataset();
  BaselineConfig config = MakeConfig(dataset, RepresentationKind::kTransformer,
                                     HaltingKind::kConfidence);
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  EXPECT_LT(history.back().classification_loss,
            history.front().classification_loss);
}

// EARLIEST and SRN-EARLIEST sample their halting actions while training:
// the same seed must give the same weights, byte for byte, and the same
// verdicts.
TEST(BaselineTrainerTest, PolicyTrainingIsDeterministicGivenSeeds) {
  Dataset dataset = EasyDataset(5);
  for (RepresentationKind repr :
       {RepresentationKind::kLstm, RepresentationKind::kTransformer}) {
    BaselineConfig config = MakeConfig(dataset, repr, HaltingKind::kPolicy);
    config.base.epochs = 2;
    std::string weights[2];
    EvaluationResult results[2];
    for (int run = 0; run < 2; ++run) {
      BaselineModel model(config);
      BaselineTrainer trainer(&model);
      trainer.Train(dataset.train);
      BinaryWriter writer;
      model.SaveParameters(&writer);
      weights[run] = writer.buffer();
      results[run] = trainer.Evaluate(dataset.test);
    }
    SCOPED_TRACE(repr == RepresentationKind::kLstm ? "EARLIEST"
                                                   : "SRN-EARLIEST");
    EXPECT_EQ(weights[0], weights[1]);
    ASSERT_EQ(results[0].records.size(), results[1].records.size());
    ASSERT_FALSE(results[0].records.empty());
    for (size_t i = 0; i < results[0].records.size(); ++i) {
      const PredictionRecord& a = results[0].records[i];
      const PredictionRecord& b = results[1].records[i];
      EXPECT_EQ(a.key, b.key) << i;
      EXPECT_EQ(a.predicted_label, b.predicted_label) << i;
      EXPECT_EQ(a.observed_items, b.observed_items) << i;
      EXPECT_EQ(a.confidence, b.confidence) << i;
    }
  }
}

}  // namespace
}  // namespace kvec
