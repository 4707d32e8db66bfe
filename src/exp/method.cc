#include "exp/method.h"

#include "baselines/baseline_model.h"
#include "baselines/baseline_trainer.h"
#include "baselines/indicator_matcher.h"
#include "baselines/prefix_ects.h"
#include "core/model.h"

namespace kvec {
namespace {

EvaluationResult RunBaseline(const Dataset& dataset, BaselineConfig config) {
  BaselineModel model(config);
  BaselineTrainer trainer(&model);
  trainer.Train(dataset.train);
  return trainer.Evaluate(dataset.test);
}

}  // namespace

KvecConfig KvecConfigFor(const Dataset& dataset,
                         const MethodRunOptions& options) {
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = options.embed_dim;
  config.state_dim = options.state_dim;
  config.num_blocks = options.num_blocks;
  config.ffn_hidden_dim = options.ffn_hidden_dim;
  config.learning_rate = options.learning_rate;
  config.baseline_learning_rate = options.learning_rate;
  config.epochs = options.epochs;
  config.seed = options.seed;
  return config;
}

EvaluationResult TrainAndEvaluateKvec(const Dataset& dataset,
                                      const KvecConfig& config) {
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);
  return trainer.Evaluate(dataset.test);
}

MethodRunOptions MethodRunOptions::ForScale(ExperimentScale scale) {
  MethodRunOptions options;
  switch (scale) {
    case ExperimentScale::kTiny:
      options.epochs = 6;
      options.embed_dim = 16;
      options.state_dim = 24;
      options.num_blocks = 1;
      options.ffn_hidden_dim = 32;
      break;
    case ExperimentScale::kSmall:
      options.epochs = 12;
      options.embed_dim = 24;
      options.state_dim = 32;
      options.num_blocks = 2;
      options.ffn_hidden_dim = 48;
      break;
    case ExperimentScale::kFull:
      options.epochs = 16;
      options.embed_dim = 32;
      options.state_dim = 48;
      options.num_blocks = 2;
      options.ffn_hidden_dim = 64;
      break;
  }
  return options;
}

MethodSpec KvecMethod() {
  MethodSpec spec;
  spec.name = "KVEC";
  spec.hyper_name = "beta";
  // Paper §V-C: freeze alpha at 0.1 and sweep beta to trace the curve;
  // negative beta discourages halting (later classification).
  spec.grid = {-2e-2, 0.0, 2e-3, 1e-2, 5e-2, 2e-1};
  spec.run = [](const Dataset& dataset, double hyper,
                const MethodRunOptions& options) {
    KvecConfig config = KvecConfigFor(dataset, options);
    config.alpha = 0.1f;
    config.beta = static_cast<float>(hyper);
    return TrainAndEvaluateKvec(dataset, config);
  };
  return spec;
}

namespace {

MethodSpec PolicyBaselineMethod(const std::string& name,
                                RepresentationKind representation) {
  MethodSpec spec;
  spec.name = name;
  spec.hyper_name = "lambda";
  spec.grid = {-2e-2, 0.0, 2e-3, 1e-2, 5e-2, 2e-1};
  spec.run = [representation](const Dataset& dataset, double hyper,
                              const MethodRunOptions& options) {
    BaselineConfig config;
    config.name = representation == RepresentationKind::kLstm
                      ? "EARLIEST"
                      : "SRN-EARLIEST";
    config.representation = representation;
    config.halting = HaltingKind::kPolicy;
    config.base = KvecConfigFor(dataset, options);
    config.base.alpha = 0.1f;
    config.base.beta = static_cast<float>(hyper);
    return RunBaseline(dataset, config);
  };
  return spec;
}

}  // namespace

MethodSpec EarliestMethod() {
  return PolicyBaselineMethod("EARLIEST", RepresentationKind::kLstm);
}

MethodSpec SrnEarliestMethod() {
  return PolicyBaselineMethod("SRN-EARLIEST",
                              RepresentationKind::kTransformer);
}

MethodSpec SrnFixedMethod() {
  MethodSpec spec;
  spec.name = "SRN-Fixed";
  spec.hyper_name = "tau";
  spec.grid = {1, 2, 4, 8, 16, 32};
  spec.run = [](const Dataset& dataset, double hyper,
                const MethodRunOptions& options) {
    BaselineConfig config;
    config.name = "SRN-Fixed";
    config.representation = RepresentationKind::kTransformer;
    config.halting = HaltingKind::kFixed;
    config.fixed_halt_step = static_cast<int>(hyper);
    config.base = KvecConfigFor(dataset, options);
    return RunBaseline(dataset, config);
  };
  return spec;
}

MethodSpec SrnConfidenceMethod() {
  MethodSpec spec;
  spec.name = "SRN-Confidence";
  spec.hyper_name = "mu";
  spec.grid = {0.5, 0.7, 0.8, 0.9, 0.95, 0.99};
  spec.run = [](const Dataset& dataset, double hyper,
                const MethodRunOptions& options) {
    BaselineConfig config;
    config.name = "SRN-Confidence";
    config.representation = RepresentationKind::kTransformer;
    config.halting = HaltingKind::kConfidence;
    config.confidence_threshold = static_cast<float>(hyper);
    config.base = KvecConfigFor(dataset, options);
    return RunBaseline(dataset, config);
  };
  return spec;
}

std::vector<MethodSpec> AllMethods() {
  return {KvecMethod(), SrnEarliestMethod(), SrnConfidenceMethod(),
          SrnFixedMethod(), EarliestMethod()};
}

MethodSpec PrefixEctsMethod() {
  MethodSpec spec;
  spec.name = "Prefix-ECTS";
  spec.hyper_name = "stability";
  spec.grid = {1, 2, 3, 5, 8, 12};
  spec.run = [](const Dataset& dataset, double hyper,
                const MethodRunOptions& options) {
    PrefixEctsConfig config;
    config.stability = static_cast<int>(hyper);
    config.seed = options.seed;
    PrefixEcts model(dataset.spec, config);
    model.Fit(dataset.train);
    return model.Evaluate(dataset.test);
  };
  return spec;
}

MethodSpec IndicatorMatcherMethod() {
  MethodSpec spec;
  spec.name = "Indicator";
  spec.hyper_name = "precision";
  spec.grid = {0.5, 0.6, 0.7, 0.8, 0.9, 0.97};
  spec.run = [](const Dataset& dataset, double hyper,
                const MethodRunOptions& options) {
    IndicatorMatcherConfig config;
    config.precision_threshold = static_cast<float>(hyper);
    IndicatorMatcher model(dataset.spec, config);
    model.Fit(dataset.train);
    return model.Evaluate(dataset.test);
  };
  return spec;
}

std::vector<MethodSpec> AllMethodsExtended() {
  std::vector<MethodSpec> methods = AllMethods();
  methods.push_back(PrefixEctsMethod());
  methods.push_back(IndicatorMatcherMethod());
  return methods;
}

}  // namespace kvec
