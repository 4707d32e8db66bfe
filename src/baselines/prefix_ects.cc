#include "baselines/prefix_ects.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "util/check.h"

namespace kvec {
namespace {

// Gathers every key-value sequence of every episode as ordered item
// pointers plus its label.
struct LabeledSequence {
  std::vector<const Item*> items;
  int label = 0;
};

std::vector<LabeledSequence> CollectSequences(
    const std::vector<TangledSequence>& episodes) {
  std::vector<LabeledSequence> sequences;
  for (const TangledSequence& episode : episodes) {
    std::map<int, LabeledSequence> by_key;
    for (const Item& item : episode.items) {
      by_key[item.key].items.push_back(&item);
    }
    for (auto& [key, sequence] : by_key) {
      sequence.label = episode.labels.at(key);
      sequences.push_back(std::move(sequence));
    }
  }
  return sequences;
}

}  // namespace

PrefixEcts::PrefixEcts(const DatasetSpec& spec, const PrefixEctsConfig& config)
    : spec_(spec), config_(config) {
  KVEC_CHECK_GT(config_.max_prefix, 0);
  KVEC_CHECK_GT(config_.stability, 0);
  KVEC_CHECK_GT(spec_.num_classes, 0);
  field_offsets_.reserve(spec_.value_fields.size());
  for (const ValueField& field : spec_.value_fields) {
    field_offsets_.push_back(feature_dim_);
    feature_dim_ += field.vocab_size;
  }
  KVEC_CHECK_GT(feature_dim_, 0) << "dataset has no value fields";
  classifiers_.resize(config_.max_prefix);
  for (SoftmaxRegression& model : classifiers_) {
    model.weight.assign(
        static_cast<size_t>(spec_.num_classes) * feature_dim_, 0.0f);
    model.bias.assign(spec_.num_classes, 0.0f);
  }
}

void PrefixEcts::FeaturizePrefix(const std::vector<const Item*>& prefix,
                                 std::vector<float>* features) const {
  features->assign(feature_dim_, 0.0f);
  if (prefix.empty()) return;
  const float unit = 1.0f / static_cast<float>(prefix.size());
  for (const Item* item : prefix) {
    KVEC_DCHECK(static_cast<int>(item->value.size()) ==
                static_cast<int>(field_offsets_.size()));
    for (size_t f = 0; f < field_offsets_.size(); ++f) {
      const int token = item->value[f];
      KVEC_DCHECK(token >= 0 && token < spec_.value_fields[f].vocab_size);
      (*features)[field_offsets_[f] + token] += unit;
    }
  }
}

int PrefixEcts::ClassifierIndex(int prefix_length) const {
  return std::min(prefix_length, config_.max_prefix) - 1;
}

int PrefixEcts::Predict(const SoftmaxRegression& model,
                        const std::vector<float>& features,
                        double* confidence) const {
  int best = 0;
  float best_score = -1e30f;
  std::vector<float> scores(spec_.num_classes);
  for (int c = 0; c < spec_.num_classes; ++c) {
    float score = model.bias[c];
    const float* row = model.weight.data() + static_cast<size_t>(c) *
                                                 feature_dim_;
    for (int d = 0; d < feature_dim_; ++d) score += row[d] * features[d];
    scores[c] = score;
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  if (confidence != nullptr) {
    double total = 0.0;
    for (float score : scores) total += std::exp(score - best_score);
    *confidence = 1.0 / total;
  }
  return best;
}

void PrefixEcts::TrainStep(SoftmaxRegression* model,
                           const std::vector<float>& features, int label,
                           float learning_rate) {
  // One softmax-regression SGD step: grad = (p - onehot(label)) x^T.
  std::vector<float> logits(spec_.num_classes);
  float max_logit = -1e30f;
  for (int c = 0; c < spec_.num_classes; ++c) {
    float score = model->bias[c];
    const float* row = model->weight.data() + static_cast<size_t>(c) *
                                                  feature_dim_;
    for (int d = 0; d < feature_dim_; ++d) score += row[d] * features[d];
    logits[c] = score;
    max_logit = std::max(max_logit, score);
  }
  float total = 0.0f;
  for (float& logit : logits) {
    logit = std::exp(logit - max_logit);
    total += logit;
  }
  for (int c = 0; c < spec_.num_classes; ++c) {
    const float p = logits[c] / total;
    const float error = p - (c == label ? 1.0f : 0.0f);
    float* row = model->weight.data() + static_cast<size_t>(c) * feature_dim_;
    for (int d = 0; d < feature_dim_; ++d) {
      if (features[d] == 0.0f && config_.l2 == 0.0f) continue;
      row[d] -= learning_rate * (error * features[d] + config_.l2 * row[d]);
    }
    model->bias[c] -= learning_rate * error;
  }
}

void PrefixEcts::Fit(const std::vector<TangledSequence>& episodes) {
  std::vector<LabeledSequence> sequences = CollectSequences(episodes);
  KVEC_CHECK(!sequences.empty());
  Rng rng(config_.seed);
  std::vector<int> order(sequences.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<float> features;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Mild 1/sqrt decay keeps late epochs from thrashing the small model.
    const float learning_rate =
        config_.learning_rate / std::sqrt(1.0f + static_cast<float>(epoch));
    rng.Shuffle(order);
    for (int index : order) {
      const LabeledSequence& sequence = sequences[index];
      std::vector<const Item*> prefix;
      const int limit = std::min<int>(
          static_cast<int>(sequence.items.size()), config_.max_prefix);
      for (int t = 0; t < limit; ++t) {
        prefix.push_back(sequence.items[t]);
        FeaturizePrefix(prefix, &features);
        TrainStep(&classifiers_[ClassifierIndex(t + 1)], features,
                  sequence.label, learning_rate);
      }
    }
  }
}

int PrefixEcts::Classify(const std::vector<const Item*>& prefix) const {
  KVEC_CHECK(!prefix.empty());
  std::vector<float> features;
  FeaturizePrefix(prefix, &features);
  const int index = ClassifierIndex(static_cast<int>(prefix.size()));
  return Predict(classifiers_[index], features);
}

EvaluationResult PrefixEcts::Evaluate(
    const std::vector<TangledSequence>& episodes) const {
  EvaluationResult result;
  std::vector<float> features;
  for (const TangledSequence& episode : episodes) {
    std::map<int, LabeledSequence> by_key;
    for (const Item& item : episode.items) {
      by_key[item.key].items.push_back(&item);
    }
    for (const auto& [key, sequence] : by_key) {
      if (sequence.items.empty()) continue;
      const int length = static_cast<int>(sequence.items.size());
      int last_prediction = -1;
      int streak = 0;
      int halted_at = length;  // default: forced halt at the end
      int predicted = -1;
      double confidence = 0.0;
      std::vector<const Item*> prefix;
      for (int t = 0; t < length; ++t) {
        prefix.push_back(sequence.items[t]);
        FeaturizePrefix(prefix, &features);
        const int prediction = Predict(classifiers_[ClassifierIndex(t + 1)],
                                       features, &confidence);
        streak = (prediction == last_prediction) ? streak + 1 : 1;
        last_prediction = prediction;
        if (streak >= config_.stability) {
          halted_at = t + 1;
          predicted = prediction;
          break;
        }
      }
      if (predicted < 0) predicted = last_prediction;

      result.records.push_back(
          MakeRecord(episode, key, predicted, halted_at, confidence));
    }
  }
  result.summary = ::kvec::Evaluate(result.records, spec_.num_classes);
  return result;
}

}  // namespace kvec
