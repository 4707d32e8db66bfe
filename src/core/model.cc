#include "core/model.h"

#include "util/serialize.h"

namespace kvec {

KvecModel::KvecModel(const KvecConfig& config)
    : config_(config),
      init_rng_(config.seed),
      encoder_(config, init_rng_),
      fusion_(config, init_rng_),
      policy_(fusion_.output_dim(), init_rng_),
      baseline_(fusion_.output_dim(), config.baseline_hidden_dim, init_rng_),
      classifier_(fusion_.output_dim(), config.spec.num_classes,
                  init_rng_) {}

void KvecModel::CollectParameters(std::vector<Tensor>* out) {
  encoder_.CollectParameters(out);
  fusion_.CollectParameters(out);
  policy_.CollectParameters(out);
  classifier_.CollectParameters(out);
  baseline_.CollectParameters(out);
}

std::vector<Tensor> KvecModel::MainParameters() {
  std::vector<Tensor> params;
  encoder_.CollectParameters(&params);
  fusion_.CollectParameters(&params);
  policy_.CollectParameters(&params);
  classifier_.CollectParameters(&params);
  return params;
}

std::vector<Tensor> KvecModel::BaselineParameters() {
  std::vector<Tensor> params;
  baseline_.CollectParameters(&params);
  return params;
}

}  // namespace kvec
