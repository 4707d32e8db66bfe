// Uniform "method" abstraction over KVEC and the four baselines, used by
// the sweeps and the paper experiments (exp/figures.h).
//
// Every method exposes the hyper-parameter grid of Table II that traces its
// earliness-accuracy curve (β for KVEC, λ for (SRN-)EARLIEST, τ for
// SRN-Fixed, µ for SRN-Confidence) and a `run` function that trains a fresh
// model at one grid point and evaluates it on the test split.
//
// Every `run` is deterministic for a fixed (dataset, hyper,
// MethodRunOptions::seed) triple and owns all of its state — no two runs
// share anything, so callers may execute grid points in any order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/presets.h"
#include "data/types.h"

namespace kvec {

// Model/training sizes used by the harness, derived from the experiment
// scale (single-core budget; see DESIGN.md §1).
struct MethodRunOptions {
  int epochs = 8;
  int embed_dim = 24;
  int state_dim = 32;
  int num_blocks = 2;
  int ffn_hidden_dim = 48;
  float learning_rate = 3e-3f;
  uint64_t seed = 7;

  static MethodRunOptions ForScale(ExperimentScale scale);
};

// The KVEC config every method and experiment starts from: the dataset's
// shape with `options`' sizes, learning rate, epochs and seed. Callers then
// set only what they vary (alpha, beta, an ablation switch).
KvecConfig KvecConfigFor(const Dataset& dataset,
                         const MethodRunOptions& options);

// Trains a fresh KVEC model on the train split and evaluates it on the
// test split.
EvaluationResult TrainAndEvaluateKvec(const Dataset& dataset,
                                      const KvecConfig& config);

struct MethodSpec {
  std::string name;
  std::string hyper_name;  // "beta", "lambda", "tau", "mu"
  std::vector<double> grid;
  std::function<EvaluationResult(const Dataset&, double hyper,
                                 const MethodRunOptions&)>
      run;
};

MethodSpec KvecMethod();
MethodSpec EarliestMethod();
MethodSpec SrnEarliestMethod();
MethodSpec SrnFixedMethod();
MethodSpec SrnConfidenceMethod();

// Classical (non-deep) references beyond the paper's baseline set, from the
// two Related-Work families the paper does not evaluate: the prefix-based
// stability rule (stability δ grid) and feature-based indicator matching
// (precision µ grid). Used by the ext-method-comparison experiment.
MethodSpec PrefixEctsMethod();
MethodSpec IndicatorMatcherMethod();

// All five, KVEC first (the order used in the figures).
std::vector<MethodSpec> AllMethods();

// AllMethods plus the two classical references (7 methods).
std::vector<MethodSpec> AllMethodsExtended();

}  // namespace kvec

