// A prefix-based early classifier in the style of ECTS / Mori et al.
// (Related Work, "prefix based approaches").
//
// A bank of per-prefix-length softmax-regression classifiers is trained on
// bag-of-values features of sequence prefixes: classifier_t sees the first
// t items of every training sequence. At test time the sequence is streamed
// and classified after every arrival; it halts when the predicted label has
// been *stable* for `stability` consecutive steps (the classic "the classes
// are discriminated from here on" stopping rule). The stability requirement
// is the earliness-accuracy hyper-parameter: 1 halts at the first
// prediction, larger values wait for agreement.
//
// Like the paper's SRN baselines this treats each key-value sequence
// independently — it cannot use inter-sequence correlations — but unlike
// them it involves no deep representation, making it the "classical
// methods" reference point in the extended comparison bench
// (ext_method_comparison).
#pragma once

#include <vector>

#include "data/types.h"
#include "metrics/metrics.h"
#include "util/rng.h"

namespace kvec {

struct PrefixEctsConfig {
  // Prefix lengths 1..max_prefix get their own classifier; longer prefixes
  // reuse the last one.
  int max_prefix = 24;
  // Consecutive agreeing predictions required before halting.
  int stability = 3;
  // Softmax-regression training.
  int epochs = 12;
  float learning_rate = 0.25f;
  float l2 = 1e-4f;
  uint64_t seed = 13;
};

class PrefixEcts {
 public:
  // `spec` provides the value-field vocabularies that size the feature
  // space (one count per token per field, normalised by prefix length).
  PrefixEcts(const DatasetSpec& spec, const PrefixEctsConfig& config);

  // Trains the classifier bank on all key-value sequences in `episodes`.
  void Fit(const std::vector<TangledSequence>& episodes);

  // Streams every key-value sequence in `episodes` through the stability
  // halting rule and scores the outcome.
  EvaluationResult Evaluate(const std::vector<TangledSequence>& episodes) const;

  // Predicted class for an explicit prefix (items of one sequence).
  int Classify(const std::vector<const Item*>& prefix) const;

  int feature_dim() const { return feature_dim_; }
  const PrefixEctsConfig& config() const { return config_; }

 private:
  // One multinomial logistic regression: logits = W x + b.
  struct SoftmaxRegression {
    std::vector<float> weight;  // [num_classes, feature_dim] row-major
    std::vector<float> bias;    // [num_classes]
  };

  void FeaturizePrefix(const std::vector<const Item*>& prefix,
                       std::vector<float>* features) const;
  int ClassifierIndex(int prefix_length) const;
  // Predicted class; when `confidence` is non-null it receives the softmax
  // probability of that class.
  int Predict(const SoftmaxRegression& model,
              const std::vector<float>& features,
              double* confidence = nullptr) const;
  void TrainStep(SoftmaxRegression* model, const std::vector<float>& features,
                 int label, float learning_rate);

  DatasetSpec spec_;
  PrefixEctsConfig config_;
  int feature_dim_ = 0;
  std::vector<int> field_offsets_;  // feature offset of each value field
  std::vector<SoftmaxRegression> classifiers_;  // [max_prefix]
};

}  // namespace kvec

