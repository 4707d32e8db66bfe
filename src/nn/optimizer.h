// First-order optimizers operating in place on parameter tensors.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace kvec {

class Optimizer {
 public:
  Optimizer(std::vector<Tensor> params, float learning_rate);
  virtual ~Optimizer() = default;

  // Applies one update from the accumulated gradients.
  virtual void Step() = 0;

  // Clears accumulated gradients; call after Step().
  void ZeroGrad();

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
  float learning_rate_;
};

// Adam (Kingma & Ba, 2015) — the optimizer the paper trains with.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float learning_rate, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void Step() override;

 private:
  float beta1_;
  float beta2_;
  float eps_;
  int64_t step_count_ = 0;
  std::vector<std::vector<float>> first_moment_;
  std::vector<std::vector<float>> second_moment_;
};

}  // namespace kvec

