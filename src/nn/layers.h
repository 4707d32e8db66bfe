// Basic trainable layers: Linear, Embedding, LayerNorm, FeedForward, and a
// small multi-layer perceptron used by the ECTL baseline network.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {

// y = x W + b, with W [in,out]. `use_bias` controls b.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng, bool use_bias = true);

  Tensor Forward(const Tensor& x) const;

  // Tensor-free forward of one row for serving: y (out_features floats) =
  // x (in_features floats) · W + b through kernels::RowGemv, which is
  // bit-equal to Forward's GEMM and bias epilogue on a [1, in] input;
  // records no graph and allocates nothing.
  void ForwardRow(const float* x, float* y) const;
  // This layer as one product of a kernels::RowGemv call writing y, for
  // callers that run several layers on one input row at once.
  kernels::RowGemvTarget RowTarget(float* y) const;

  void CollectParameters(std::vector<Tensor>* out) override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;
  Tensor bias_;  // undefined when use_bias == false
};

// Learned lookup table mapping token ids to d-dimensional rows.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng& rng);

  // [indices.size(), dim]
  Tensor Forward(const std::vector<int>& indices) const;

  void CollectParameters(std::vector<Tensor>* out) override;

  int vocab_size() const { return table_.rows(); }
  int dim() const { return table_.cols(); }
  const Tensor& table() const { return table_; }

 private:
  Tensor table_;
};

// Row-wise layer normalisation with learnable gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Tensor Forward(const Tensor& x) const;

  void CollectParameters(std::vector<Tensor>* out) override;

  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }

 private:
  Tensor gamma_;
  Tensor beta_;
};

// The paper's position-wise FFN: W2 ReLU(W1 x + b1) + b2.
class FeedForward : public Module {
 public:
  FeedForward(int dim, int hidden_dim, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  void CollectParameters(std::vector<Tensor>* out) override;

  const Linear& first() const { return first_; }
  const Linear& second() const { return second_; }

 private:
  Linear first_;
  Linear second_;
};

// A ReLU MLP with arbitrary layer sizes; used for the ECTL baseline
// state-value network b(s; θ_b).
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& layer_sizes, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  void CollectParameters(std::vector<Tensor>* out) override;

 private:
  std::vector<Linear> layers_;
};

}  // namespace kvec

