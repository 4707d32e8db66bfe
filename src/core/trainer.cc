#include "core/trainer.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "core/online.h"
#include "nn/scheduler.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {
namespace {

// Builds the per-epoch learning-rate schedule requested by the config.
std::unique_ptr<LrScheduler> MakeSchedule(const KvecConfig& config,
                                          Optimizer* optimizer) {
  switch (config.lr_schedule) {
    case KvecConfig::LrSchedule::kCosine:
      return std::make_unique<CosineAnnealingLr>(optimizer, config.epochs,
                                                 config.min_learning_rate);
    case KvecConfig::LrSchedule::kWarmupCosine:
      return std::make_unique<WarmupCosineLr>(
          optimizer, std::min(config.warmup_epochs, config.epochs - 1),
          config.epochs, config.min_learning_rate);
    case KvecConfig::LrSchedule::kConstant:
      break;
  }
  return std::make_unique<ConstantLr>(optimizer);
}

// Per-key bookkeeping of one training rollout.
struct KeyRollout {
  FusionState state;
  bool halted = false;
  int observed = 0;  // n_k
  int predicted = -1;
  Tensor logits;
  // Per-step records of the policy gradient:
  std::vector<Tensor> halt_probs;
  std::vector<int> actions;  // 1 = Halt
  std::vector<Tensor> baseline_values;
};

float ClampProbability(float p) { return std::clamp(p, 1e-4f, 1.0f - 1e-4f); }

}  // namespace

KvecTrainer::KvecTrainer(KvecModel* model)
    : model_(model),
      main_optimizer_(model->MainParameters(),
                      model->config().learning_rate),
      baseline_optimizer_(model->BaselineParameters(),
                          model->config().baseline_learning_rate),
      rng_(model->config().seed ^ 0x7261696e65724bULL) {}

TrainEpochStats KvecTrainer::TrainEpoch(
    const std::vector<TangledSequence>& episodes) {
  KVEC_CHECK(!episodes.empty());
  const KvecConfig& config = model_->config();
  TrainEpochStats stats;
  int64_t halted_sequences = 0, correct_sequences = 0;
  double earliness_sum = 0.0;

  std::vector<int> order(episodes.size());
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(order);

  for (int episode_id : order) {
    const TangledSequence& episode = episodes[episode_id];
    if (episode.items.empty()) continue;
    EpisodeIndex index = EpisodeIndex::Build(episode);
    EncodeResult encode =
        model_->encoder().Forward(episode, index, rng_, /*training=*/true);

    std::map<int, KeyRollout> rollouts;
    const int total = static_cast<int>(episode.items.size());
    for (int t = 0; t < total; ++t) {
      const int key = episode.items[t].key;
      KeyRollout& rollout = rollouts[key];
      if (rollout.halted) continue;
      if (!rollout.state.defined()) {
        rollout.state = model_->fusion().InitialState();
      }
      Tensor item_embedding = ops::SliceRow(encode.embeddings, t);
      rollout.state = model_->fusion().Step(rollout.state, item_embedding);
      ++rollout.observed;

      Tensor halt_prob =
          model_->policy().HaltProbability(rollout.state.hidden);
      rollout.halt_probs.push_back(halt_prob);
      rollout.baseline_values.push_back(
          model_->baseline().Forward(rollout.state.hidden.Detach()));

      const float p = ClampProbability(halt_prob.ScalarValue());
      const int action = rng_.NextBernoulli(p) ? 1 : 0;
      rollout.actions.push_back(action);
      if (action == 1) {
        rollout.logits = model_->classifier().Logits(rollout.state.hidden);
        rollout.predicted = ops::ArgMaxRow(rollout.logits, 0);
        rollout.halted = true;
      }
    }
    // Sequences that never halted are classified on their final state (the
    // stream ended; treat it as an implicit halt, see DESIGN.md §4.5).
    for (auto& [key, rollout] : rollouts) {
      if (!rollout.halted && rollout.observed > 0) {
        rollout.logits = model_->classifier().Logits(rollout.state.hidden);
        rollout.predicted = ops::ArgMaxRow(rollout.logits, 0);
      }
    }

    // ---- Assemble the three losses. ----
    std::vector<Tensor> logits_rows;
    std::vector<int> labels;
    std::vector<Tensor> policy_terms;   // -(R_i - b_i) log P(a_i | s_i)
    std::vector<Tensor> earliness_terms;  // -log P(Halt | s_i)
    std::vector<Tensor> baseline_rows;
    std::vector<float> baseline_targets;

    for (auto& [key, rollout] : rollouts) {
      if (rollout.observed == 0) continue;
      const int label = episode.labels.at(key);
      logits_rows.push_back(rollout.logits);
      labels.push_back(label);

      const float reward = (rollout.predicted == label) ? 1.0f : -1.0f;
      const int n = rollout.observed;
      for (int i = 0; i < n; ++i) {
        // Paper: R(i) = Σ_{s=i+1..n} r(s); with constant per-step reward
        // this is (n - (i+1)) * r (0 for the final action).
        const float cumulative = static_cast<float>(n - (i + 1)) * reward;
        const float advantage =
            cumulative - rollout.baseline_values[i].ScalarValue();
        const Tensor& p = rollout.halt_probs[i];
        Tensor log_prob = rollout.actions[i] == 1
                              ? ops::Log(p)
                              : ops::Log(ops::Affine(p, -1.0f, 1.0f));
        policy_terms.push_back(ops::Affine(log_prob, -advantage, 0.0f));
        earliness_terms.push_back(ops::Affine(ops::Log(p), -1.0f, 0.0f));
        baseline_rows.push_back(rollout.baseline_values[i]);
        baseline_targets.push_back(cumulative);
      }

      ++halted_sequences;
      if (rollout.predicted == label) ++correct_sequences;
      earliness_sum += static_cast<double>(n) / episode.KeyLength(key);
    }
    if (logits_rows.empty()) continue;

    const float inv_keys = 1.0f / static_cast<float>(logits_rows.size());
    Tensor l1 = ops::CrossEntropy(ops::StackRows(logits_rows), labels);
    Tensor l2 = ops::AddN(policy_terms);
    Tensor l3 = ops::AddN(earliness_terms);
    Tensor total_loss = ops::Affine(
        ops::AddN({l1, ops::Affine(l2, config.alpha, 0.0f),
                   ops::Affine(l3, config.beta, 0.0f)}),
        inv_keys, 0.0f);

    main_optimizer_.ZeroGrad();
    total_loss.Backward();
    ClipGradNorm(main_optimizer_.params(), config.grad_clip);
    main_optimizer_.Step();

    // θ_b: regression of the baseline onto the realised cumulative rewards.
    Tensor baseline_loss =
        ops::MseLoss(ops::StackRows(baseline_rows), baseline_targets);
    baseline_optimizer_.ZeroGrad();
    baseline_loss.Backward();
    ClipGradNorm(baseline_optimizer_.params(), config.grad_clip);
    baseline_optimizer_.Step();

    stats.total_loss += total_loss.ScalarValue();
    stats.classification_loss += l1.ScalarValue() * inv_keys;
    stats.policy_loss += l2.ScalarValue() * inv_keys;
    stats.earliness_loss += l3.ScalarValue() * inv_keys;
    stats.baseline_loss += baseline_loss.ScalarValue();
    stats.episodes += 1;
  }

  if (stats.episodes > 0) {
    stats.total_loss /= stats.episodes;
    stats.classification_loss /= stats.episodes;
    stats.policy_loss /= stats.episodes;
    stats.earliness_loss /= stats.episodes;
    stats.baseline_loss /= stats.episodes;
  }
  if (halted_sequences > 0) {
    stats.train_accuracy =
        static_cast<double>(correct_sequences) / halted_sequences;
    stats.train_earliness = earliness_sum / halted_sequences;
  }
  return stats;
}

std::vector<TrainEpochStats> KvecTrainer::Train(
    const std::vector<TangledSequence>& episodes) {
  std::vector<TrainEpochStats> history;
  history.reserve(model_->config().epochs);
  std::unique_ptr<LrScheduler> schedule =
      MakeSchedule(model_->config(), &main_optimizer_);
  for (int epoch = 0; epoch < model_->config().epochs; ++epoch) {
    // Stepping before the epoch makes warmup effective from epoch 0
    // (ComputeLr(1) is the first warmup rate).
    schedule->Step();
    history.push_back(TrainEpoch(episodes));
  }
  return history;
}

std::vector<TrainEpochStats> KvecTrainer::TrainWithValidation(
    const std::vector<TangledSequence>& train_episodes,
    const std::vector<TangledSequence>& validation_episodes,
    int* best_epoch) {
  KVEC_CHECK(!validation_episodes.empty());
  std::vector<TrainEpochStats> history;
  history.reserve(model_->config().epochs);
  std::unique_ptr<LrScheduler> schedule =
      MakeSchedule(model_->config(), &main_optimizer_);
  double best_hm = -1.0;
  int best = -1;
  std::string best_snapshot;
  for (int epoch = 0; epoch < model_->config().epochs; ++epoch) {
    schedule->Step();
    history.push_back(TrainEpoch(train_episodes));
    EvaluationResult validation = Evaluate(validation_episodes);
    if (validation.summary.harmonic_mean > best_hm) {
      best_hm = validation.summary.harmonic_mean;
      best = epoch;
      BinaryWriter writer;
      model_->SaveParameters(&writer);
      best_snapshot = writer.buffer();
    }
  }
  if (!best_snapshot.empty()) {
    BinaryReader reader(best_snapshot);
    KVEC_CHECK(model_->LoadParameters(&reader))
        << "failed to restore best validation snapshot";
  }
  if (best_epoch != nullptr) *best_epoch = best;
  return history;
}

EvaluationResult KvecTrainer::Evaluate(
    const std::vector<TangledSequence>& episodes) {
  EvaluationResult result;
  for (const TangledSequence& episode : episodes) {
    if (episode.items.empty()) continue;
    OnlineClassifier engine(*model_);
    engine.ObserveBatch(episode.items);
    for (const auto& [key, label] : episode.labels) {
      PredictionRecord record;
      record.predicted_label = engine.ForceClassify(
          key, &record.confidence, &record.observed_items);
      if (record.observed_items == 0) continue;  // a label without items
      record.true_label = label;
      record.sequence_length = episode.KeyLength(key);
      result.records.push_back(record);

      HaltingRecord halt;
      halt.key = key;
      halt.halt_position = record.observed_items;
      halt.sequence_length = record.sequence_length;
      auto truth = episode.true_halt_positions.find(key);
      halt.true_halt_position =
          truth == episode.true_halt_positions.end() ? 0 : truth->second;
      result.halts.push_back(halt);
    }
  }
  result.summary =
      ::kvec::Evaluate(result.records, model_->config().spec.num_classes);
  return result;
}

std::vector<AttentionPoint> ReadAttention(
    const KvecModel& model, const TangledSequence& episode,
    const std::vector<HaltingRecord>& halts) {
  std::vector<AttentionPoint> points;
  if (episode.items.empty()) return points;
  InferenceMode no_tape;  // weights only, no gradients
  EpisodeIndex index = EpisodeIndex::Build(episode);
  Rng unused_rng;  // eval-mode dropout draws nothing
  EncodeResult encode = model.encoder().Forward(episode, index, unused_rng,
                                                /*training=*/false);
  const int total = static_cast<int>(episode.items.size());
  for (const HaltingRecord& halt : halts) {
    // Average over the attended rows of this sequence (up to its halt)
    // and over blocks: attention mass on same-key items (internal) vs
    // other-key items (external).
    double internal = 0.0, external = 0.0;
    int rows = 0, attended = 0;
    for (int t = 0; t < total && attended < halt.halt_position; ++t) {
      if (index.keys[t] != halt.key) continue;
      ++attended;
      for (const Tensor& weights : encode.attention_weights) {
        for (int j = 0; j <= t; ++j) {
          const float w = weights.At(t, j);
          if (w <= 0.0f) continue;
          if (index.keys[j] == halt.key) {
            internal += w;
          } else {
            external += w;
          }
        }
        ++rows;
      }
    }
    KVEC_CHECK_GT(rows, 0) << "key " << halt.key << " has no items";
    AttentionPoint point;
    point.earliness =
        static_cast<double>(halt.halt_position) / halt.sequence_length;
    point.internal_score = internal / rows;
    point.external_score = external / rows;
    points.push_back(point);
  }
  return points;
}

}  // namespace kvec
