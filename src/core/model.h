// The complete KVEC model (paper Fig. 2): KVRL encoder + LSTM fusion cell +
// ECTL halting policy + baseline + classifier.
//
// Threading: construction and parameter updates (training,
// LoadParameters) are single-threaded — exactly one writer, no concurrent readers. Once
// the parameters are frozen, any number of threads may read the model
// concurrently; this is what lets every shard of a ShardedStreamServer
// share one `const KvecModel&`.
//
// Checkpointing: Module::SaveParameters/LoadParameters stream the
// *parameter values only*, in registration order, shapes included — not
// the config. The loader must construct the model from an identical
// KvecConfig first (LoadParameters fails closed on any shape mismatch).
// The one model file format is the `kvec` CLI's model bundle
// (src/cli/model_io.h), which wraps exactly this stream together with the
// serialised config to make the artifact self-describing.
// Serving-side state (open sessions, encoder caches) is checkpointed
// separately by StreamServer; see docs/SERVING.md.
#pragma once

#include <string>
#include <vector>

#include "core/config.h"
#include "core/encoder.h"
#include "core/fusion.h"
#include "core/heads.h"
#include "nn/module.h"

namespace kvec {

class KvecModel : public Module {
 public:
  explicit KvecModel(const KvecConfig& config);

  const KvecConfig& config() const { return config_; }

  const KvrlEncoder& encoder() const { return encoder_; }
  const EmbeddingFusion& fusion() const { return fusion_; }
  const EctlPolicy& policy() const { return policy_; }
  const BaselineNetwork& baseline() const { return baseline_; }
  const SequenceClassifier& classifier() const { return classifier_; }

  // All parameters (θ and θ_b); used by checkpointing.
  void CollectParameters(std::vector<Tensor>* out) override;

  // θ  — encoder + fusion + policy + classifier (Algorithm 1, line 18).
  std::vector<Tensor> MainParameters();
  // θ_b — the baseline network only (Algorithm 1, line 19).
  std::vector<Tensor> BaselineParameters();

 private:
  KvecConfig config_;
  Rng init_rng_;
  KvrlEncoder encoder_;
  EmbeddingFusion fusion_;
  EctlPolicy policy_;
  BaselineNetwork baseline_;
  SequenceClassifier classifier_;
};

}  // namespace kvec

