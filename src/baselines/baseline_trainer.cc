#include "baselines/baseline_trainer.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {
namespace {

float ClampProbability(float p) { return std::clamp(p, 1e-4f, 1.0f - 1e-4f); }

// Streams one episode through the baseline's representation model,
// producing the per-step sequence representation for each key. The
// callback receives (key, step representation, is_last_item_of_key).
template <typename Callback>
void StreamRepresentations(const BaselineModel& model,
                           const TangledSequence& episode,
                           const EpisodeIndex& index, Rng& rng, bool training,
                           Callback&& on_step) {
  const int total = static_cast<int>(episode.items.size());
  std::map<int, int> remaining;
  for (const auto& [key, label] : episode.labels) {
    remaining[key] = episode.KeyLength(key);
  }
  if (model.config().representation == RepresentationKind::kTransformer) {
    EncodeResult encode =
        model.encoder()->Forward(episode, index, rng, training);
    for (int t = 0; t < total; ++t) {
      const int key = episode.items[t].key;
      int& left = remaining[key];
      --left;
      on_step(key, ops::SliceRow(encode.embeddings, t), left == 0);
    }
  } else {
    Tensor inputs = model.input_embedding()->Forward(episode, index);
    std::map<int, LstmState> states;
    for (int t = 0; t < total; ++t) {
      const int key = episode.items[t].key;
      int& left = remaining[key];
      --left;
      LstmState& state = states[key];
      if (!state.defined()) state = model.fusion()->InitialState();
      state = model.fusion()->Step(state, ops::SliceRow(inputs, t));
      on_step(key, state.hidden, left == 0);
    }
  }
}

struct KeyTrace {
  std::vector<Tensor> representations;  // per observed step
  bool halted = false;
  int observed = 0;
  int predicted = -1;
  Tensor logits;
  std::vector<Tensor> halt_probs;
  std::vector<int> actions;
  std::vector<Tensor> baseline_values;
};

}  // namespace

BaselineTrainer::BaselineTrainer(BaselineModel* model)
    : model_(model),
      main_optimizer_(model->MainParameters(),
                      model->config().base.learning_rate),
      baseline_optimizer_(model->BaselineParameters(),
                          model->config().base.baseline_learning_rate),
      rng_(model->config().base.seed ^ 0x62617365ULL) {}

TrainEpochStats BaselineTrainer::TrainEpoch(
    const std::vector<TangledSequence>& episodes) {
  KVEC_CHECK(!episodes.empty());
  const BaselineConfig& config = model_->config();
  TrainEpochStats stats;

  std::vector<int> order(episodes.size());
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(order);

  for (int episode_id : order) {
    const TangledSequence& episode = episodes[episode_id];
    if (episode.items.empty()) continue;
    EpisodeIndex index = EpisodeIndex::Build(episode);

    std::map<int, KeyTrace> traces;
    StreamRepresentations(
        *model_, episode, index, rng_, /*training=*/true,
        [&](int key, Tensor representation, bool is_last) {
          KeyTrace& trace = traces[key];
          if (trace.halted) return;
          ++trace.observed;
          switch (config.halting) {
            case HaltingKind::kPolicy: {
              Tensor halt_prob =
                  model_->policy().HaltProbability(representation);
              trace.halt_probs.push_back(halt_prob);
              trace.baseline_values.push_back(
                  model_->value_baseline().Forward(representation.Detach()));
              const float p = ClampProbability(halt_prob.ScalarValue());
              const int action = rng_.NextBernoulli(p) ? 1 : 0;
              trace.actions.push_back(action);
              if (action == 1 || is_last) {
                trace.logits = model_->classifier().Logits(representation);
                trace.predicted = ops::ArgMaxRow(trace.logits, 0);
                trace.halted = true;
              }
              break;
            }
            case HaltingKind::kFixed: {
              if (trace.observed >= config.fixed_halt_step || is_last) {
                trace.logits = model_->classifier().Logits(representation);
                trace.predicted = ops::ArgMaxRow(trace.logits, 0);
                trace.halted = true;
              }
              break;
            }
            case HaltingKind::kConfidence: {
              // Train the classifier at every prefix so its confidence is
              // calibrated at every potential halting point.
              trace.representations.push_back(representation);
              if (is_last) {
                trace.logits = model_->classifier().Logits(representation);
                trace.predicted = ops::ArgMaxRow(trace.logits, 0);
                trace.halted = true;
              }
              break;
            }
          }
        });

    std::vector<Tensor> logits_rows;
    std::vector<int> labels;
    std::vector<Tensor> policy_terms;
    std::vector<Tensor> earliness_terms;
    std::vector<Tensor> baseline_rows;
    std::vector<float> baseline_targets;
    int key_count = 0;

    for (auto& [key, trace] : traces) {
      if (trace.observed == 0) continue;
      const int label = episode.labels.at(key);
      ++key_count;
      if (config.halting == HaltingKind::kConfidence) {
        // One CE row per prefix, weight 1/n so long sequences do not
        // dominate.
        std::vector<Tensor> rows;
        std::vector<int> prefix_labels;
        for (const Tensor& representation : trace.representations) {
          rows.push_back(model_->classifier().Logits(representation));
          prefix_labels.push_back(label);
        }
        Tensor prefix_loss =
            ops::CrossEntropy(ops::StackRows(rows), prefix_labels);
        // Summed below: confidence halting keeps one loss per key here,
        // not a logits row.
        logits_rows.push_back(ops::Affine(
            prefix_loss, 1.0f / static_cast<float>(rows.size()), 0.0f));
        continue;
      }
      logits_rows.push_back(trace.logits);
      labels.push_back(label);

      if (config.halting == HaltingKind::kPolicy) {
        const float reward = (trace.predicted == label) ? 1.0f : -1.0f;
        const int n = trace.observed;
        for (int i = 0; i < n; ++i) {
          const float cumulative = static_cast<float>(n - (i + 1)) * reward;
          const float advantage =
              cumulative - trace.baseline_values[i].ScalarValue();
          const Tensor& p = trace.halt_probs[i];
          Tensor log_prob = trace.actions[i] == 1
                                ? ops::Log(p)
                                : ops::Log(ops::Affine(p, -1.0f, 1.0f));
          policy_terms.push_back(ops::Affine(log_prob, -advantage, 0.0f));
          earliness_terms.push_back(ops::Affine(ops::Log(p), -1.0f, 0.0f));
          baseline_rows.push_back(trace.baseline_values[i]);
          baseline_targets.push_back(cumulative);
        }
      }
    }
    if (key_count == 0) continue;
    const float inv_keys = 1.0f / static_cast<float>(key_count);

    Tensor l1;
    if (config.halting == HaltingKind::kConfidence) {
      l1 = ops::AddN(logits_rows);  // already per-sequence mean losses
    } else {
      l1 = ops::CrossEntropy(ops::StackRows(logits_rows), labels);
    }

    Tensor total_loss = l1;
    if (config.halting == HaltingKind::kPolicy && !policy_terms.empty()) {
      Tensor l2 = ops::AddN(policy_terms);
      Tensor l3 = ops::AddN(earliness_terms);
      total_loss =
          ops::AddN({l1, ops::Affine(l2, config.base.alpha, 0.0f),
                     ops::Affine(l3, config.base.beta, 0.0f)});
      stats.policy_loss += l2.ScalarValue() * inv_keys;
      stats.earliness_loss += l3.ScalarValue() * inv_keys;
    }
    total_loss = ops::Affine(total_loss, inv_keys, 0.0f);

    main_optimizer_.ZeroGrad();
    total_loss.Backward();
    ClipGradNorm(main_optimizer_.params(), config.base.grad_clip);
    main_optimizer_.Step();

    if (config.halting == HaltingKind::kPolicy && !baseline_rows.empty()) {
      Tensor baseline_loss =
          ops::MseLoss(ops::StackRows(baseline_rows), baseline_targets);
      baseline_optimizer_.ZeroGrad();
      baseline_loss.Backward();
      ClipGradNorm(baseline_optimizer_.params(), config.base.grad_clip);
      baseline_optimizer_.Step();
      stats.baseline_loss += baseline_loss.ScalarValue();
    }

    stats.total_loss += total_loss.ScalarValue();
    stats.classification_loss += l1.ScalarValue() * inv_keys;
    stats.episodes += 1;
  }

  if (stats.episodes > 0) {
    stats.total_loss /= stats.episodes;
    stats.classification_loss /= stats.episodes;
    stats.policy_loss /= stats.episodes;
    stats.earliness_loss /= stats.episodes;
    stats.baseline_loss /= stats.episodes;
  }
  return stats;
}

std::vector<TrainEpochStats> BaselineTrainer::Train(
    const std::vector<TangledSequence>& episodes) {
  std::vector<TrainEpochStats> history;
  history.reserve(model_->config().base.epochs);
  for (int epoch = 0; epoch < model_->config().base.epochs; ++epoch) {
    history.push_back(TrainEpoch(episodes));
  }
  return history;
}

EvaluationResult BaselineTrainer::Evaluate(
    const std::vector<TangledSequence>& episodes) {
  EvaluationResult result;
  const BaselineConfig& config = model_->config();

  for (const TangledSequence& episode : episodes) {
    if (episode.items.empty()) continue;
    EpisodeIndex index = EpisodeIndex::Build(episode);
    std::map<int, KeyTrace> traces;
    StreamRepresentations(
        *model_, episode, index, rng_, /*training=*/false,
        [&](int key, Tensor representation, bool is_last) {
          KeyTrace& trace = traces[key];
          if (trace.halted) return;
          ++trace.observed;
          bool halt = false;
          switch (config.halting) {
            case HaltingKind::kPolicy: {
              Tensor halt_prob =
                  model_->policy().HaltProbability(representation);
              halt = halt_prob.ScalarValue() > 0.5f;
              break;
            }
            case HaltingKind::kFixed:
              halt = trace.observed >= config.fixed_halt_step;
              break;
            case HaltingKind::kConfidence: {
              Tensor probabilities = ops::Softmax(
                  model_->classifier().Logits(representation).Detach());
              halt = probabilities.At(0, ops::ArgMaxRow(probabilities, 0)) >=
                     config.confidence_threshold;
              break;
            }
          }
          if (halt || is_last) {
            trace.logits = model_->classifier().Logits(representation);
            trace.predicted = ops::ArgMaxRow(trace.logits, 0);
            trace.halted = true;
          }
        });

    for (auto& [key, trace] : traces) {
      if (trace.observed == 0) continue;
      PredictionRecord record;
      record.true_label = episode.labels.at(key);
      record.predicted_label = trace.predicted;
      record.observed_items = trace.observed;
      record.sequence_length = episode.KeyLength(key);
      record.confidence = MaxSoftmaxProbability(trace.logits);
      result.records.push_back(record);

      HaltingRecord halt;
      halt.key = key;
      halt.halt_position = trace.observed;
      halt.sequence_length = record.sequence_length;
      auto truth = episode.true_halt_positions.find(key);
      halt.true_halt_position =
          truth == episode.true_halt_positions.end() ? 0 : truth->second;
      result.halts.push_back(halt);
    }
  }
  result.summary =
      ::kvec::Evaluate(result.records, config.base.spec.num_classes);
  return result;
}

}  // namespace kvec
