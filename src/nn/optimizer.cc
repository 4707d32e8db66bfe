#include "nn/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace kvec {

Optimizer::Optimizer(std::vector<Tensor> params, float learning_rate)
    : params_(std::move(params)), learning_rate_(learning_rate) {
  for (const Tensor& param : params_) {
    KVEC_CHECK(param.defined());
    KVEC_CHECK(param.requires_grad())
        << "optimizer parameter does not require grad";
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor& param : params_) param.ZeroGrad();
}

Adam::Adam(std::vector<Tensor> params, float learning_rate, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params), learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  first_moment_.resize(params_.size());
  second_moment_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    first_moment_[i].assign(params_[i].data().size(), 0.0f);
    second_moment_[i].assign(params_[i].data().size(), 0.0f);
  }
}

void Adam::Step() {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& data = params_[i].impl()->data;
    const auto& grad = params_[i].grad();
    auto& m = first_moment_[i];
    auto& v = second_moment_[i];
    for (size_t j = 0; j < data.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad[j] * grad[j];
      float m_hat = m[j] / bias1;
      float v_hat = v[j] / bias2;
      data[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace kvec
