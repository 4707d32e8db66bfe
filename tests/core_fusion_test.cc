#include "core/fusion.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "data/generator.h"
#include "data/traffic_generator.h"
#include "core/heads.h"
#include "core/model.h"
#include "core/trainer.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace kvec {
namespace {

KvecConfig FusionConfig(KvecConfig::FusionKind kind) {
  KvecConfig config;
  config.embed_dim = 4;
  config.state_dim = 6;
  config.fusion = kind;
  config.spec.num_classes = 2;
  return config;
}

Tensor Row(std::vector<float> values) {
  const int cols = static_cast<int>(values.size());
  return Tensor::FromData(1, cols, std::move(values));
}

TEST(EmbeddingFusionTest, LstmOutputsStateDim) {
  Rng rng(1);
  EmbeddingFusion fusion(FusionConfig(KvecConfig::FusionKind::kLstm), rng);
  EXPECT_EQ(fusion.output_dim(), 6);
  ASSERT_NE(fusion.lstm(), nullptr);
  FusionState state = fusion.InitialState();
  state = fusion.Step(state, Row({1, 2, 3, 4}));
  EXPECT_EQ(state.hidden.cols(), 6);
  EXPECT_EQ(state.count, 1);
}

TEST(EmbeddingFusionTest, ParameterFreeModesHaveNoParameters) {
  for (auto kind :
       {KvecConfig::FusionKind::kSum, KvecConfig::FusionKind::kMean,
        KvecConfig::FusionKind::kLast}) {
    Rng rng(2);
    EmbeddingFusion fusion(FusionConfig(kind), rng);
    EXPECT_EQ(fusion.ParameterCount(), 0);
    EXPECT_EQ(fusion.output_dim(), 4);
    EXPECT_EQ(fusion.lstm(), nullptr);
  }
}

TEST(EmbeddingFusionTest, SumAccumulates) {
  Rng rng(3);
  EmbeddingFusion fusion(FusionConfig(KvecConfig::FusionKind::kSum), rng);
  FusionState state = fusion.InitialState();
  state = fusion.Step(state, Row({1, 0, 0, 2}));
  state = fusion.Step(state, Row({2, 1, 0, -1}));
  EXPECT_FLOAT_EQ(state.hidden.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(state.hidden.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(state.hidden.At(0, 3), 1.0f);
  EXPECT_EQ(state.count, 2);
}

TEST(EmbeddingFusionTest, MeanIsRunningAverage) {
  Rng rng(4);
  EmbeddingFusion fusion(FusionConfig(KvecConfig::FusionKind::kMean), rng);
  FusionState state = fusion.InitialState();
  state = fusion.Step(state, Row({4, 0, 0, 0}));
  EXPECT_FLOAT_EQ(state.hidden.At(0, 0), 4.0f);
  state = fusion.Step(state, Row({0, 2, 0, 0}));
  EXPECT_FLOAT_EQ(state.hidden.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(state.hidden.At(0, 1), 1.0f);
  state = fusion.Step(state, Row({2, 1, 3, 0}));
  EXPECT_FLOAT_EQ(state.hidden.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(state.hidden.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(state.hidden.At(0, 2), 1.0f);
}

TEST(EmbeddingFusionTest, LastKeepsOnlyNewestItem) {
  Rng rng(5);
  EmbeddingFusion fusion(FusionConfig(KvecConfig::FusionKind::kLast), rng);
  FusionState state = fusion.InitialState();
  state = fusion.Step(state, Row({1, 1, 1, 1}));
  state = fusion.Step(state, Row({7, 8, 9, 10}));
  EXPECT_FLOAT_EQ(state.hidden.At(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(state.hidden.At(0, 3), 10.0f);
}

TEST(EmbeddingFusionTest, GradientsFlowThroughLstmMode) {
  Rng rng(7);
  EmbeddingFusion fusion(FusionConfig(KvecConfig::FusionKind::kLstm), rng);
  FusionState state = fusion.InitialState();
  state = fusion.Step(state, Row({0.5f, -0.5f, 0.25f, 1.0f}));
  ops::SumAll(state.hidden).Backward();
  int with_grad = 0;
  for (const Tensor& param : fusion.Parameters()) {
    for (float g : param.grad()) {
      if (g != 0.0f) {
        ++with_grad;
        break;
      }
    }
  }
  EXPECT_GT(with_grad, 0);
}

// ---- The tensor-free serving path is bit-equal to the Tensor path. ----

uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectBitEqual(const Tensor& tensor, const std::vector<float>& row,
                    const char* what) {
  ASSERT_EQ(tensor.rows(), 1) << what;
  ASSERT_EQ(tensor.cols(), static_cast<int>(row.size())) << what;
  for (size_t j = 0; j < row.size(); ++j) {
    ASSERT_EQ(Bits(tensor.data()[j]), Bits(row[j]))
        << what << "[" << j << "]: " << tensor.data()[j] << " vs " << row[j];
  }
}

void Randomize(Module* module, Rng& rng) {
  for (Tensor& parameter : module->Parameters()) {
    for (float& v : parameter.data()) {
      v = 0.5f * static_cast<float>(rng.NextGaussian());
    }
  }
}

struct RowPathCase {
  KvecConfig::FusionKind kind;
  int width;  // state_dim: the gate GEMMs' n (and the heads' k for kLstm)
};

class RowPathBitExactTest : public ::testing::TestWithParam<RowPathCase> {};

// StepRow + HaltProbabilityRow + LogitsRow + the raw-row ArgMaxRow /
// MaxSoftmaxProbability (OnlineClassifier's serving decide) against
// Step + HaltProbability + Logits + the Tensor forms, over 60 random items.
// The widths put the gate GEMMs' columns on a full SIMD panel, a single
// vector tile and the scalar remainder, and on both sides of the fused
// gate kernel's register limit (kernels::RowGemv holds 4 gates x 4 tiles
// of 16 on AVX-512 and 4 x 2 tiles of 8 on AVX2, so 64 and 16 columns fit
// one pass and 65 and 17 take two).
TEST_P(RowPathBitExactTest, MatchesTensorPath) {
  constexpr int kClasses = 5;
  constexpr int kSteps = 60;
  KvecConfig config = FusionConfig(GetParam().kind);
  config.state_dim = GetParam().width;
  config.embed_dim = GetParam().width + 5;
  config.spec.num_classes = kClasses;
  Rng rng(100 + GetParam().width);
  EmbeddingFusion fusion(config, rng);
  EctlPolicy policy(fusion.output_dim(), rng);
  SequenceClassifier classifier(fusion.output_dim(), kClasses, rng);
  // Non-zero biases everywhere, so the bias epilogue is compared too.
  Randomize(&fusion, rng);
  Randomize(&policy, rng);
  Randomize(&classifier, rng);

  InferenceMode inference_guard;
  FusionState state = fusion.InitialState();
  std::vector<float> hidden(fusion.output_dim(), 0.0f);
  std::vector<float> cell(fusion.cell_dim(), 0.0f);
  std::vector<float> scratch(fusion.row_scratch_dim());
  std::vector<float> logits(kClasses);
  std::vector<float> embedding(config.embed_dim);
  int halts = 0;
  for (int step = 1; step <= kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    for (float& v : embedding) v = static_cast<float>(rng.NextGaussian());
    state = fusion.Step(
        state, Tensor::FromData(1, config.embed_dim, embedding));
    fusion.StepRow(hidden.data(), cell.empty() ? nullptr : cell.data(), step,
                   embedding.data(), scratch.data());
    ASSERT_EQ(state.count, step);
    ExpectBitEqual(state.hidden, hidden, "hidden");
    if (cell.empty()) {
      EXPECT_FALSE(state.cell.defined());
    } else {
      ExpectBitEqual(state.cell, cell, "cell");
    }

    const float halt_tensor =
        policy.HaltProbability(state.hidden).ScalarValue();
    const float halt_row = policy.HaltProbabilityRow(hidden.data());
    EXPECT_EQ(Bits(halt_tensor), Bits(halt_row));
    if (halt_row > 0.5f) ++halts;

    Tensor logits_tensor = classifier.Logits(state.hidden);
    classifier.LogitsRow(hidden.data(), logits.data());
    ExpectBitEqual(logits_tensor, logits, "logits");
    EXPECT_EQ(ops::ArgMaxRow(logits_tensor, 0),
              ops::ArgMaxRow(logits.data(), kClasses));
    EXPECT_EQ(Bits(MaxSoftmaxProbability(logits_tensor)),
              Bits(MaxSoftmaxProbability(logits.data(), kClasses)));
  }
  // Both sides of the halting threshold were compared.
  EXPECT_GT(halts, 0);
  EXPECT_LT(halts, kSteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndTiles, RowPathBitExactTest,
    ::testing::Values(RowPathCase{KvecConfig::FusionKind::kLstm, 8},
                      RowPathCase{KvecConfig::FusionKind::kLstm, 16},
                      RowPathCase{KvecConfig::FusionKind::kLstm, 17},
                      RowPathCase{KvecConfig::FusionKind::kLstm, 24},
                      RowPathCase{KvecConfig::FusionKind::kLstm, 64},
                      RowPathCase{KvecConfig::FusionKind::kLstm, 65},
                      RowPathCase{KvecConfig::FusionKind::kLstm, 70},
                      RowPathCase{KvecConfig::FusionKind::kSum, 8},
                      RowPathCase{KvecConfig::FusionKind::kSum, 70},
                      RowPathCase{KvecConfig::FusionKind::kMean, 8},
                      RowPathCase{KvecConfig::FusionKind::kMean, 24},
                      RowPathCase{KvecConfig::FusionKind::kMean, 70},
                      RowPathCase{KvecConfig::FusionKind::kLast, 8},
                      RowPathCase{KvecConfig::FusionKind::kLast, 70}));

// ---- End-to-end: every fusion mode trains and evaluates. ----

class FusionModeTrainingTest
    : public ::testing::TestWithParam<KvecConfig::FusionKind> {};

TEST_P(FusionModeTrainingTest, TrainsAndEvaluates) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 2;
  generator_config.concurrency = 2;
  generator_config.avg_flow_length = 10.0;
  generator_config.min_flow_length = 5;
  generator_config.handshake_sharpness = 6.0;
  TrafficGenerator generator(generator_config);
  Dataset dataset = GenerateDataset(generator, {10, 2, 4}, /*seed=*/31);

  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 12;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 2;
  config.fusion = GetParam();
  KvecModel model(config);
  KvecTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  for (const TrainEpochStats& stats : history) {
    EXPECT_TRUE(std::isfinite(stats.total_loss));
  }
  EvaluationResult result = trainer.Evaluate(dataset.test);
  EXPECT_GT(result.summary.num_sequences, 0);
  for (const PredictionRecord& record : result.records) {
    EXPECT_GE(record.predicted_label, 0);
    EXPECT_LT(record.predicted_label, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FusionModeTrainingTest,
    ::testing::Values(KvecConfig::FusionKind::kLstm,
                      KvecConfig::FusionKind::kSum,
                      KvecConfig::FusionKind::kMean,
                      KvecConfig::FusionKind::kLast));

// ---- Checkpoint round-trips across model variants. ----

struct CheckpointCase {
  KvecConfig::FusionKind fusion;
  int num_heads;
};

class ModelCheckpointTest : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(ModelCheckpointTest, SaveLoadPreservesPredictions) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 3;
  generator_config.concurrency = 2;
  generator_config.avg_flow_length = 10.0;
  generator_config.min_flow_length = 5;
  TrafficGenerator generator(generator_config);
  Dataset dataset = GenerateDataset(generator, {6, 2, 3}, /*seed=*/37);

  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 12;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 1;
  config.fusion = GetParam().fusion;
  config.num_heads = GetParam().num_heads;

  KvecModel original(config);
  KvecTrainer trainer(&original);
  trainer.Train(dataset.train);
  EvaluationResult before = trainer.Evaluate(dataset.test);

  BinaryWriter writer;
  original.SaveParameters(&writer);

  KvecModel restored(config);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(restored.LoadParameters(&reader));
  KvecTrainer restored_trainer(&restored);
  EvaluationResult after = restored_trainer.Evaluate(dataset.test);

  ASSERT_EQ(before.records.size(), after.records.size());
  for (size_t i = 0; i < before.records.size(); ++i) {
    EXPECT_EQ(before.records[i].predicted_label,
              after.records[i].predicted_label);
    EXPECT_EQ(before.records[i].observed_items,
              after.records[i].observed_items);
  }
}

TEST_P(ModelCheckpointTest, LoadRejectsMismatchedArchitecture) {
  KvecConfig config;
  config.embed_dim = 12;  // divisible by every head count used below
  config.state_dim = 8;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 12;
  config.spec.num_classes = 2;
  config.spec.value_fields = {{"f", 4}, {"s", 2}};
  config.spec.max_keys_per_episode = 4;
  config.spec.max_sequence_length = 8;
  config.spec.max_episode_length = 16;
  config.fusion = GetParam().fusion;
  config.num_heads = GetParam().num_heads;
  KvecModel model(config);
  BinaryWriter writer;
  model.SaveParameters(&writer);

  KvecConfig other = config;
  other.embed_dim = 24;  // different tensor shapes
  KvecModel wrong(other);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(wrong.LoadParameters(&reader));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ModelCheckpointTest,
    ::testing::Values(CheckpointCase{KvecConfig::FusionKind::kLstm, 1},
                      CheckpointCase{KvecConfig::FusionKind::kLstm, 2},
                      CheckpointCase{KvecConfig::FusionKind::kMean, 1},
                      CheckpointCase{KvecConfig::FusionKind::kSum, 3},
                      CheckpointCase{KvecConfig::FusionKind::kLast, 1}));

}  // namespace
}  // namespace kvec
