// The decision heads on top of the sequence representation s(t)_k:
//  * EctlPolicy        — halting policy π(s) = σ(w·s + b)      (paper §IV-C)
//  * BaselineNetwork   — state-value baseline b(s; θ_b)         (paper §IV-E)
//  * SequenceClassifier — softmax classifier over C labels      (paper §IV-D)
#pragma once

#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {

class EctlPolicy : public Module {
 public:
  EctlPolicy(int state_dim, Rng& rng);

  // P(a = Halt | s) as a [1,1] tensor in (0,1).
  Tensor HaltProbability(const Tensor& state) const;
  // Tensor-free serving form over a raw state row (state_dim floats);
  // bit-equal to HaltProbability, allocates nothing.
  float HaltProbabilityRow(const float* state) const;

  void CollectParameters(std::vector<Tensor>* out) override;

 private:
  Linear linear_;
};

class BaselineNetwork : public Module {
 public:
  BaselineNetwork(int state_dim, int hidden_dim, Rng& rng);

  // Estimated cumulative reward of `state` ([1,1]). Callers must pass a
  // detached state so the baseline regression does not backpropagate into
  // the representation (Algorithm 1 updates θ_b independently).
  Tensor Forward(const Tensor& state) const;

  void CollectParameters(std::vector<Tensor>* out) override;

 private:
  Mlp mlp_;
};

class SequenceClassifier : public Module {
 public:
  SequenceClassifier(int state_dim, int num_classes, Rng& rng);

  // Unnormalised class scores ([1,C]); softmax is folded into the loss.
  Tensor Logits(const Tensor& state) const;
  // Tensor-free serving form: writes num_classes() scores for the raw state
  // row `state` to `logits`; bit-equal to Logits, allocates nothing.
  void LogitsRow(const float* state, float* logits) const;

  int num_classes() const { return linear_.out_features(); }

  void CollectParameters(std::vector<Tensor>* out) override;

 private:
  Linear linear_;
};

// softmax(logits)[argmax]: the classifier's confidence in its prediction.
// `logits` is a [1,C] row; no graph is recorded.
double MaxSoftmaxProbability(const Tensor& logits);
// The same over a raw row of `num_classes` scores (the Tensor form
// forwards here).
double MaxSoftmaxProbability(const float* logits, int num_classes);

}  // namespace kvec

