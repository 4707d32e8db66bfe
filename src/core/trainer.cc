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
  HaltTrace trace;
};

float ClampProbability(float p) { return std::clamp(p, 1e-4f, 1.0f - 1e-4f); }

}  // namespace

bool HaltTrace::Sample(const EctlPolicy& policy,
                       const BaselineNetwork& baseline, const Tensor& state,
                       Rng& rng) {
  Tensor halt_prob = policy.HaltProbability(state);
  halt_probs.push_back(halt_prob);
  baseline_values.push_back(baseline.Forward(state.Detach()));
  const float p = ClampProbability(halt_prob.ScalarValue());
  const int action = rng.NextBernoulli(p) ? 1 : 0;
  actions.push_back(action);
  return action == 1;
}

EctlObjective::EctlObjective(const KvecConfig& config,
                             std::vector<Tensor> main_parameters,
                             std::vector<Tensor> baseline_parameters)
    : alpha_(config.alpha),
      beta_(config.beta),
      grad_clip_(config.grad_clip),
      main_optimizer_(std::move(main_parameters), config.learning_rate),
      baseline_optimizer_(std::move(baseline_parameters),
                          config.baseline_learning_rate) {}

void EctlObjective::AddKey(int observed, int length, bool correct,
                           const HaltTrace* trace) {
  ++verdicts_;
  if (correct) ++correct_;
  earliness_sum_ += static_cast<double>(observed) / length;
  if (trace == nullptr) return;
  const int n = observed;
  KVEC_CHECK_EQ(static_cast<int>(trace->actions.size()), n);
  const float reward = correct ? 1.0f : -1.0f;
  for (int i = 0; i < n; ++i) {
    // Paper: R(i) = Σ_{s=i+1..n} r(s); with constant per-step reward
    // this is (n - (i+1)) * r (0 for the final action).
    const float cumulative = static_cast<float>(n - (i + 1)) * reward;
    const float advantage =
        cumulative - trace->baseline_values[i].ScalarValue();
    const Tensor& p = trace->halt_probs[i];
    Tensor log_prob = trace->actions[i] == 1
                          ? ops::Log(p)
                          : ops::Log(ops::Affine(p, -1.0f, 1.0f));
    policy_terms_.push_back(ops::Affine(log_prob, -advantage, 0.0f));
    earliness_terms_.push_back(ops::Affine(ops::Log(p), -1.0f, 0.0f));
    baseline_rows_.push_back(trace->baseline_values[i]);
    baseline_targets_.push_back(cumulative);
  }
}

void EctlObjective::Update(const Tensor& l1, int keys) {
  KVEC_CHECK_GT(keys, 0);
  const float inv_keys = 1.0f / static_cast<float>(keys);
  Tensor total_loss;
  if (policy_terms_.empty()) {
    total_loss = ops::Affine(l1, inv_keys, 0.0f);
  } else {
    Tensor l2 = ops::AddN(policy_terms_);
    Tensor l3 = ops::AddN(earliness_terms_);
    total_loss = ops::Affine(ops::AddN({l1, ops::Affine(l2, alpha_, 0.0f),
                                        ops::Affine(l3, beta_, 0.0f)}),
                             inv_keys, 0.0f);
    stats_.policy_loss += l2.ScalarValue() * inv_keys;
    stats_.earliness_loss += l3.ScalarValue() * inv_keys;
  }

  main_optimizer_.ZeroGrad();
  total_loss.Backward();
  ClipGradNorm(main_optimizer_.params(), grad_clip_);
  main_optimizer_.Step();

  if (!baseline_rows_.empty()) {
    // θ_b: regression of the baseline onto the realised cumulative rewards.
    Tensor baseline_loss =
        ops::MseLoss(ops::StackRows(baseline_rows_), baseline_targets_);
    baseline_optimizer_.ZeroGrad();
    baseline_loss.Backward();
    ClipGradNorm(baseline_optimizer_.params(), grad_clip_);
    baseline_optimizer_.Step();
    stats_.baseline_loss += baseline_loss.ScalarValue();
  }

  stats_.total_loss += total_loss.ScalarValue();
  stats_.classification_loss += l1.ScalarValue() * inv_keys;
  stats_.episodes += 1;
  policy_terms_.clear();
  earliness_terms_.clear();
  baseline_rows_.clear();
  baseline_targets_.clear();
}

TrainEpochStats EctlObjective::TakeEpochStats() {
  TrainEpochStats stats = stats_;
  if (stats.episodes > 0) {
    stats.total_loss /= stats.episodes;
    stats.classification_loss /= stats.episodes;
    stats.policy_loss /= stats.episodes;
    stats.earliness_loss /= stats.episodes;
    stats.baseline_loss /= stats.episodes;
  }
  if (verdicts_ > 0) {
    stats.train_accuracy = static_cast<double>(correct_) / verdicts_;
    stats.train_earliness = earliness_sum_ / verdicts_;
  }
  stats_ = TrainEpochStats();
  verdicts_ = correct_ = 0;
  earliness_sum_ = 0.0;
  return stats;
}

KvecTrainer::KvecTrainer(KvecModel* model)
    : model_(model),
      objective_(model->config(), model->MainParameters(),
                 model->BaselineParameters()),
      rng_(model->config().seed ^ 0x7261696e65724bULL) {}

TrainEpochStats KvecTrainer::TrainEpoch(
    const std::vector<TangledSequence>& episodes) {
  KVEC_CHECK(!episodes.empty());
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
      if (rollout.trace.Sample(model_->policy(), model_->baseline(),
                               rollout.state.hidden, rng_)) {
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

    std::vector<Tensor> logits_rows;
    std::vector<int> labels;
    for (auto& [key, rollout] : rollouts) {
      if (rollout.observed == 0) continue;
      const int label = episode.labels.at(key);
      logits_rows.push_back(rollout.logits);
      labels.push_back(label);
      objective_.AddKey(rollout.observed, episode.KeyLength(key),
                        rollout.predicted == label, &rollout.trace);
    }
    if (logits_rows.empty()) continue;
    objective_.Update(ops::CrossEntropy(ops::StackRows(logits_rows), labels),
                      static_cast<int>(logits_rows.size()));
  }
  return objective_.TakeEpochStats();
}

std::vector<TrainEpochStats> KvecTrainer::Train(
    const std::vector<TangledSequence>& episodes) {
  std::vector<TrainEpochStats> history;
  history.reserve(model_->config().epochs);
  std::unique_ptr<LrScheduler> schedule =
      MakeSchedule(model_->config(), objective_.main_optimizer());
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
      MakeSchedule(model_->config(), objective_.main_optimizer());
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
      double confidence = 0.0;
      int observed = 0;
      const int predicted = engine.ForceClassify(key, &confidence, &observed);
      if (observed == 0) continue;  // a label without items
      result.records.push_back(
          MakeRecord(episode, key, predicted, observed, confidence));
    }
  }
  result.summary =
      ::kvec::Evaluate(result.records, model_->config().spec.num_classes);
  return result;
}

std::vector<AttentionPoint> ReadAttention(
    const KvecModel& model, const TangledSequence& episode,
    const std::vector<PredictionRecord>& records) {
  std::vector<AttentionPoint> points;
  if (episode.items.empty()) return points;
  InferenceMode no_tape;  // weights only, no gradients
  EpisodeIndex index = EpisodeIndex::Build(episode);
  Rng unused_rng;  // eval-mode dropout draws nothing
  EncodeResult encode = model.encoder().Forward(episode, index, unused_rng,
                                                /*training=*/false);
  const int total = static_cast<int>(episode.items.size());
  for (const PredictionRecord& record : records) {
    // Average over the attended rows of this sequence (up to its halt)
    // and over blocks: attention mass on same-key items (internal) vs
    // other-key items (external).
    double internal = 0.0, external = 0.0;
    int rows = 0, attended = 0;
    for (int t = 0; t < total && attended < record.observed_items; ++t) {
      if (index.keys[t] != record.key) continue;
      ++attended;
      for (const Tensor& weights : encode.attention_weights) {
        for (int j = 0; j <= t; ++j) {
          const float w = weights.At(t, j);
          if (w <= 0.0f) continue;
          if (index.keys[j] == record.key) {
            internal += w;
          } else {
            external += w;
          }
        }
        ++rows;
      }
    }
    KVEC_CHECK_GT(rows, 0) << "key " << record.key << " has no items";
    AttentionPoint point;
    point.earliness =
        static_cast<double>(record.observed_items) / record.sequence_length;
    point.internal_score = internal / rows;
    point.external_score = external / rows;
    points.push_back(point);
  }
  return points;
}

}  // namespace kvec
