#include "baselines/baseline_trainer.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {
namespace {

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
  HaltTrace halt;  // kPolicy
};

}  // namespace

BaselineTrainer::BaselineTrainer(BaselineModel* model)
    : model_(model),
      objective_(model->config().base, model->MainParameters(),
                 model->BaselineParameters()),
      rng_(model->config().base.seed ^ 0x62617365ULL) {}

TrainEpochStats BaselineTrainer::TrainEpoch(
    const std::vector<TangledSequence>& episodes) {
  KVEC_CHECK(!episodes.empty());
  const BaselineConfig& config = model_->config();

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
          bool halt = is_last;
          switch (config.halting) {
            case HaltingKind::kPolicy:
              halt = trace.halt.Sample(model_->policy(),
                                       model_->value_baseline(),
                                       representation, rng_) ||
                     halt;
              break;
            case HaltingKind::kFixed:
              halt = halt || trace.observed >= config.fixed_halt_step;
              break;
            case HaltingKind::kConfidence:
              // Train the classifier at every prefix so its confidence is
              // calibrated at every potential halting point.
              trace.representations.push_back(representation);
              break;
          }
          if (halt) {
            trace.logits = model_->classifier().Logits(representation);
            trace.predicted = ops::ArgMaxRow(trace.logits, 0);
            trace.halted = true;
          }
        });

    std::vector<Tensor> logits_rows;
    std::vector<int> labels;
    for (auto& [key, trace] : traces) {
      if (trace.observed == 0) continue;
      const int label = episode.labels.at(key);
      objective_.AddKey(
          trace.observed, episode.KeyLength(key), trace.predicted == label,
          config.halting == HaltingKind::kPolicy ? &trace.halt : nullptr);
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
    }
    if (logits_rows.empty()) continue;
    objective_.Update(
        config.halting == HaltingKind::kConfidence
            ? ops::AddN(logits_rows)  // already per-sequence mean losses
            : ops::CrossEntropy(ops::StackRows(logits_rows), labels),
        static_cast<int>(logits_rows.size()));
  }
  return objective_.TakeEpochStats();
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
      result.records.push_back(
          MakeRecord(episode, key, trace.predicted, trace.observed,
                     MaxSoftmaxProbability(trace.logits)));
    }
  }
  result.summary =
      ::kvec::Evaluate(result.records, config.base.spec.num_classes);
  return result;
}

}  // namespace kvec
