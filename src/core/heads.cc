#include "core/heads.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

EctlPolicy::EctlPolicy(int state_dim, Rng& rng)
    : linear_(state_dim, 1, rng) {}

Tensor EctlPolicy::HaltProbability(const Tensor& state) const {
  return ops::Sigmoid(linear_.Forward(state));
}

float EctlPolicy::HaltProbabilityRow(const float* state) const {
  float logit = 0.0f;
  linear_.ForwardRow(state, &logit);
  return kernels::Sigmoid(logit);
}

void EctlPolicy::CollectParameters(std::vector<Tensor>* out) {
  linear_.CollectParameters(out);
}

BaselineNetwork::BaselineNetwork(int state_dim, int hidden_dim, Rng& rng)
    : mlp_({state_dim, hidden_dim, 1}, rng) {}

Tensor BaselineNetwork::Forward(const Tensor& state) const {
  return mlp_.Forward(state);
}

void BaselineNetwork::CollectParameters(std::vector<Tensor>* out) {
  mlp_.CollectParameters(out);
}

SequenceClassifier::SequenceClassifier(int state_dim, int num_classes,
                                       Rng& rng)
    : linear_(state_dim, num_classes, rng) {}

Tensor SequenceClassifier::Logits(const Tensor& state) const {
  return linear_.Forward(state);
}

void SequenceClassifier::LogitsRow(const float* state, float* logits) const {
  linear_.ForwardRow(state, logits);
}

void SequenceClassifier::CollectParameters(std::vector<Tensor>* out) {
  linear_.CollectParameters(out);
}

double MaxSoftmaxProbability(const Tensor& logits) {
  KVEC_CHECK_EQ(logits.rows(), 1);
  return MaxSoftmaxProbability(logits.data().data(), logits.cols());
}

double MaxSoftmaxProbability(const float* logits, int num_classes) {
  double max_logit = -1e30;
  for (int c = 0; c < num_classes; ++c) {
    max_logit = std::max<double>(max_logit, logits[c]);
  }
  double total = 0.0, best = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    const double e = std::exp(logits[c] - max_logit);
    total += e;
    best = std::max(best, e);
  }
  return best / total;
}

}  // namespace kvec
