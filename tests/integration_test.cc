// End-to-end integration tests: full pipeline from preset generation
// through training, evaluation, checkpointing and streaming inference.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli/model_io.h"
#include "core/online.h"
#include "core/stream_server.h"
#include "core/trainer.h"
#include "data/presets.h"
#include "data/stats.h"
#include "exp/method.h"
#include "gtest/gtest.h"
#include "reference_rollout.h"

namespace kvec {
namespace {

TEST(IntegrationTest, TinyPresetPipeline) {
  Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, ExperimentScale::kTiny, 71);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 16;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 24;
  config.epochs = 2;
  config.seed = 9;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  ASSERT_EQ(history.size(), 2u);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  EXPECT_GT(result.summary.num_sequences, 0);
  // 9 classes, tiny training budget: just demand better than random.
  EXPECT_GT(result.summary.accuracy, 1.0 / 9.0);
  EXPECT_GT(result.summary.earliness, 0.0);
  EXPECT_LE(result.summary.earliness, 1.0);
}

TEST(IntegrationTest, CheckpointPreservesEvaluation) {
  Dataset dataset =
      MakePresetDataset(PresetId::kSyntheticEarly, ExperimentScale::kTiny, 72);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 12;
  config.num_blocks = 1;
  config.epochs = 2;
  config.seed = 10;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);
  EvaluationResult before = trainer.Evaluate(dataset.test);

  BinaryWriter writer;
  model.SaveParameters(&writer);
  config.seed = 999;  // fresh random weights
  KvecModel restored(config);
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(restored.LoadParameters(&reader));
  KvecTrainer restored_trainer(&restored);
  EvaluationResult after = restored_trainer.Evaluate(dataset.test);
  EXPECT_EQ(before.summary.accuracy, after.summary.accuracy);
  EXPECT_EQ(before.summary.earliness, after.summary.earliness);
}

TEST(IntegrationTest, StreamingEngineOnPresetStream) {
  Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, ExperimentScale::kTiny, 73);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 12;
  config.num_blocks = 1;
  config.epochs = 1;
  config.seed = 11;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.TrainEpoch(dataset.train);

  const TangledSequence& episode = dataset.test.front();
  OnlineClassifier online(model);
  int decisions = 0;
  for (const Item& item : episode.items) {
    OnlineDecision decision = online.Observe(item);
    if (decision.halted_now) ++decisions;
  }
  for (const auto& [key, label] : episode.labels) {
    if (!online.IsHalted(key)) {
      EXPECT_GE(online.ForceClassify(key), 0);
      ++decisions;
    } else {
      // already counted via halted_now or classified below
    }
  }
  EXPECT_GE(decisions, 1);
}

TEST(IntegrationTest, TrueHaltSignalIsLearnableEarly) {
  // On the early-stop synthetic dataset a trained KVEC should halt well
  // before the end of the flow on average (the signal is in the first ten
  // items) — the property Fig. 11 visualises.
  Dataset dataset =
      MakePresetDataset(PresetId::kSyntheticEarly, ExperimentScale::kTiny, 74);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 16;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.epochs = 6;
  config.beta = 2e-1f;  // encourage earliness
  config.seed = 12;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);
  EXPECT_LT(result.summary.earliness, 0.9);
  for (const PredictionRecord& record : result.records) {
    EXPECT_GT(record.true_halt_position, 0);  // ground truth present
  }
}

TEST(IntegrationTest, FullLifecycleTrainCheckpointServeConsistently) {
  // The whole production path: train -> checkpoint -> reload in a fresh
  // process stand-in -> offline evaluation, plain streaming engine, and
  // bounded StreamServer must agree with the Tensor reference rollout
  // (tests/reference_rollout.h) on every test stream, served alone: per
  // key, the same label from the same number of observed items.
  Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, ExperimentScale::kTiny, 81);
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 16;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 24;
  config.epochs = 3;
  config.beta = 1e-2f;
  config.seed = 13;

  const std::string path = ::testing::TempDir() + "/kvec_lifecycle.kvm";
  {
    KvecModel trainee(config);
    KvecTrainer trainer(&trainee);
    trainer.Train(dataset.train);
    ASSERT_TRUE(cli::SaveModelBundle(path, &trainee));
  }

  std::string error;
  std::unique_ptr<KvecModel> loaded = cli::LoadModelBundle(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  std::remove(path.c_str());
  const KvecModel& model = *loaded;
  KvecTrainer evaluator(loaded.get());

  // Per key: (predicted label, observed items at the verdict).
  using Verdicts = std::map<int, std::pair<int, int>>;
  for (const TangledSequence& stream : dataset.test) {
    Verdicts reference_verdicts;
    for (const auto& [key, verdict] :
         reference::Rollout(model, stream)) {
      reference_verdicts[key] = {verdict.predicted_label,
                                 verdict.observed_items};
    }

    // Offline evaluation.
    const EvaluationResult offline = evaluator.Evaluate({stream});
    Verdicts offline_verdicts;
    for (const PredictionRecord& record : offline.records) {
      offline_verdicts[record.key] = {record.predicted_label,
                                      record.observed_items};
    }

    // Plain streaming engine.
    OnlineClassifier engine(model);
    Verdicts online_verdicts;
    for (const Item& item : stream.items) {
      OnlineDecision decision = engine.Observe(item);
      if (decision.halted_now) {
        online_verdicts[decision.key] = {decision.predicted_label,
                                         decision.observed_items};
      }
    }
    for (const auto& [key, label] : stream.labels) {
      if (!online_verdicts.count(key)) {
        int observed = 0;
        const int predicted = engine.ForceClassify(key, nullptr, &observed);
        online_verdicts[key] = {predicted, observed};
      }
    }

    // Bounded server with bounds large enough to never trigger.
    StreamServer server(model, {});
    Verdicts server_verdicts;
    auto record = [&](const std::vector<StreamEvent>& events) {
      for (const StreamEvent& event : events) {
        server_verdicts[event.key] = {event.predicted_label,
                                      event.observed_items};
      }
    };
    for (const Item& item : stream.items) record(server.Observe(item));
    record(server.Flush());
    const StreamServerStats& stats = server.stats();
    EXPECT_EQ(stats.idle_timeouts + stats.capacity_evictions +
                  stats.rotation_classifications,
              0);

    ASSERT_EQ(reference_verdicts.size(), stream.labels.size());
    EXPECT_EQ(offline_verdicts, reference_verdicts);
    EXPECT_EQ(online_verdicts, reference_verdicts);
    EXPECT_EQ(server_verdicts, reference_verdicts);
  }
}

TEST(IntegrationTest, DatasetStatsShapedLikeTableOne) {
  Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, ExperimentScale::kSmall, 75);
  DatasetStats stats = ComputeDatasetStats(dataset);
  EXPECT_EQ(stats.num_classes, 9);
  // Scaled lengths: shape preserved (long bursts), magnitude scaled.
  EXPECT_GT(stats.avg_session_length, 3.0);
  EXPECT_GT(stats.avg_sequence_length, 10.0);
}

}  // namespace
}  // namespace kvec
