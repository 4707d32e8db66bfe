// Edge-case coverage: single-item sequences, single-key episodes, extreme
// mask windows, degenerate training inputs, and failure injection.
#include <cmath>

#include "core/online.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace kvec {
namespace {

DatasetSpec TinySpec() {
  DatasetSpec spec;
  spec.name = "edge";
  spec.value_fields = {{"v", 4}, {"s", 2}};
  spec.session_field = 1;
  spec.num_classes = 2;
  spec.max_keys_per_episode = 4;
  spec.max_sequence_length = 8;
  spec.max_episode_length = 32;
  return spec;
}

TangledSequence SingleItemEpisode() {
  TangledSequence episode;
  episode.labels[0] = 1;
  Item item;
  item.key = 0;
  item.value = {2, 1};
  item.time = 0.0;
  episode.items.push_back(item);
  return episode;
}

KvecConfig TinyModelConfig() {
  KvecConfig config = KvecConfig::ForSpec(TinySpec());
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 12;
  config.epochs = 1;
  return config;
}

TEST(EdgeCaseTest, SingleItemEpisodeTrains) {
  KvecConfig config = TinyModelConfig();
  KvecModel model(config);
  KvecTrainer trainer(&model);
  std::vector<TangledSequence> episodes = {SingleItemEpisode()};
  TrainEpochStats stats = trainer.TrainEpoch(episodes);
  EXPECT_EQ(stats.episodes, 1);
  EXPECT_TRUE(std::isfinite(stats.total_loss));
}

TEST(EdgeCaseTest, SingleItemEpisodeEvaluates) {
  KvecConfig config = TinyModelConfig();
  KvecModel model(config);
  KvecTrainer trainer(&model);
  EvaluationResult result = trainer.Evaluate({SingleItemEpisode()});
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].observed_items, 1);
  EXPECT_EQ(result.records[0].sequence_length, 1);
}

TEST(EdgeCaseTest, EmptyEpisodeListSkipsCleanly) {
  KvecConfig config = TinyModelConfig();
  KvecModel model(config);
  KvecTrainer trainer(&model);
  EvaluationResult result = trainer.Evaluate({});
  EXPECT_EQ(result.summary.num_sequences, 0);
}

TEST(EdgeCaseTest, EpisodeWithEmptyItemsIsIgnored) {
  KvecConfig config = TinyModelConfig();
  KvecModel model(config);
  KvecTrainer trainer(&model);
  TangledSequence empty;  // no items, no labels
  std::vector<TangledSequence> episodes = {empty, SingleItemEpisode()};
  TrainEpochStats stats = trainer.TrainEpoch(episodes);
  EXPECT_EQ(stats.episodes, 1);
}

TEST(EdgeCaseTest, SingleKeyEpisodeHasNoExternalAttention) {
  KvecConfig config = TinyModelConfig();
  KvecModel model(config);
  KvecTrainer trainer(&model);
  TangledSequence episode;
  episode.labels[0] = 0;
  for (int i = 0; i < 6; ++i) {
    Item item;
    item.key = 0;
    item.value = {i % 4, i % 2};
    item.time = i;
    episode.items.push_back(item);
  }
  EvaluationResult result = trainer.Evaluate({episode});
  const std::vector<AttentionPoint> points =
      ReadAttention(model, episode, result.records);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_NEAR(points[0].external_score, 0.0, 1e-6);
}

TEST(EdgeCaseTest, WindowOneStillBuildsValidMask) {
  CorrelationOptions options;
  options.session_field = 1;
  options.value_correlation_window = 1;
  TangledSequence episode;
  episode.labels[0] = 0;
  episode.labels[1] = 0;
  for (int i = 0; i < 10; ++i) {
    Item item;
    item.key = i % 2;
    item.value = {0, 0};  // all one session value
    item.time = i;
    episode.items.push_back(item);
  }
  EpisodeMask mask = BuildEpisodeMask(episode, options);
  // Alternating keys, window 1: item i can see the other key's open session
  // only when its last item is at i-1.
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(mask.mask.At(i, i - 1), 0.0f);
  }
}

TEST(EdgeCaseTest, OnlineClassifierHandlesInterleavedNewKeys) {
  KvecConfig config = TinyModelConfig();
  KvecModel model(config);
  OnlineClassifier online(model);
  // Keys appear for the first time mid-stream.
  for (int i = 0; i < 12; ++i) {
    Item item;
    item.key = i / 3;  // new key every 3 items
    item.value = {i % 4, i % 2};
    item.time = i;
    OnlineDecision decision = online.Observe(item);
    EXPECT_EQ(decision.key, item.key);
  }
  EXPECT_EQ(online.num_items_observed(), 12);
}

TEST(EdgeCaseTest, MaskedSoftmaxSingleVisibleColumnIsOne) {
  Tensor scores = Tensor::FromData(1, 4, {5.0f, -3.0f, 0.0f, 2.0f});
  Tensor mask = Tensor::FromData(
      1, 4, {ops::kNegInf, ops::kNegInf, 0.0f, ops::kNegInf});
  Tensor weights = ops::MaskedSoftmax(scores, mask);
  EXPECT_NEAR(weights.At(0, 2), 1.0f, 1e-6f);
}

TEST(EdgeCaseTest, VeryLongSequenceClampsEmbeddingsAndRuns) {
  KvecConfig config = TinyModelConfig();  // max_sequence_length = 8
  KvecModel model(config);
  KvecTrainer trainer(&model);
  TangledSequence episode;
  episode.labels[0] = 0;
  for (int i = 0; i < 50; ++i) {  // far beyond both vocab caps
    Item item;
    item.key = 0;
    item.value = {i % 4, (i / 5) % 2};
    item.time = i;
    episode.items.push_back(item);
  }
  EvaluationResult result = trainer.Evaluate({episode});
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].sequence_length, 50);
}

TEST(EdgeCaseTest, KeyIdsBeyondMembershipVocabClamp) {
  KvecConfig config = TinyModelConfig();  // max_keys_per_episode = 4
  KvecModel model(config);
  KvecTrainer trainer(&model);
  TangledSequence episode;
  for (int k = 0; k < 7; ++k) {  // more concurrent keys than the vocab
    episode.labels[k] = k % 2;
    for (int i = 0; i < 3; ++i) {
      Item item;
      item.key = k;
      item.value = {k % 4, i % 2};
      item.time = k * 3 + i;
      episode.items.push_back(item);
    }
  }
  EvaluationResult result = trainer.Evaluate({episode});
  EXPECT_EQ(result.records.size(), 7u);
}

}  // namespace
}  // namespace kvec
