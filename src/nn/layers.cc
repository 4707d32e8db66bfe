#include "nn/layers.h"

#include "nn/init.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace kvec {

Linear::Linear(int in_features, int out_features, Rng& rng, bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(nn::XavierUniform(in_features, out_features, rng)) {
  KVEC_CHECK_GT(in_features, 0);
  KVEC_CHECK_GT(out_features, 0);
  if (use_bias) bias_ = nn::ZeroInit(1, out_features);
}

Tensor Linear::Forward(const Tensor& x) const {
  KVEC_CHECK_EQ(x.cols(), in_features_) << "Linear input width mismatch";
  // Fused matmul+bias: one graph node and one output buffer instead of two.
  return ops::LinearForward(x, weight_, bias_);
}

kernels::RowGemvTarget Linear::RowTarget(float* y) const {
  return {weight_.data().data(),
          bias_.defined() ? bias_.data().data() : nullptr, y};
}

void Linear::ForwardRow(const float* x, float* y) const {
  const kernels::RowGemvTarget target = RowTarget(y);
  kernels::RowGemv(x, in_features_, out_features_, &target, 1);
}

void Linear::CollectParameters(std::vector<Tensor>* out) {
  out->push_back(weight_);
  if (bias_.defined()) out->push_back(bias_);
}

Embedding::Embedding(int vocab_size, int dim, Rng& rng)
    : table_(nn::NormalInit(vocab_size, dim, 0.02f, rng)) {
  KVEC_CHECK_GT(vocab_size, 0);
  KVEC_CHECK_GT(dim, 0);
}

Tensor Embedding::Forward(const std::vector<int>& indices) const {
  return ops::EmbeddingGather(table_, indices);
}

void Embedding::CollectParameters(std::vector<Tensor>* out) {
  out->push_back(table_);
}

LayerNorm::LayerNorm(int dim)
    : gamma_(Tensor::Full(1, dim, 1.0f, /*requires_grad=*/true)),
      beta_(nn::ZeroInit(1, dim)) {
  KVEC_CHECK_GT(dim, 0);
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return ops::LayerNorm(x, gamma_, beta_);
}

void LayerNorm::CollectParameters(std::vector<Tensor>* out) {
  out->push_back(gamma_);
  out->push_back(beta_);
}

FeedForward::FeedForward(int dim, int hidden_dim, Rng& rng)
    : first_(dim, hidden_dim, rng), second_(hidden_dim, dim, rng) {}

Tensor FeedForward::Forward(const Tensor& x) const {
  return second_.Forward(ops::Relu(first_.Forward(x)));
}

void FeedForward::CollectParameters(std::vector<Tensor>* out) {
  first_.CollectParameters(out);
  second_.CollectParameters(out);
}

Mlp::Mlp(const std::vector<int>& layer_sizes, Rng& rng) {
  KVEC_CHECK_GE(layer_sizes.size(), 2u);
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1], rng);
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = ops::Relu(h);
  }
  return h;
}

void Mlp::CollectParameters(std::vector<Tensor>* out) {
  for (Linear& layer : layers_) layer.CollectParameters(out);
}

}  // namespace kvec
