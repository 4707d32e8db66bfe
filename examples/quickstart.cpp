// Quickstart: train KVEC on a synthetic tangled key-value stream and
// classify sequences early.
//
//   1. generate a tangled key-value dataset (here: simulated network flows)
//   2. configure and train a KvecModel
//   3. evaluate accuracy/earliness on held-out streams
//   4. save and restore the model
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "cli/model_io.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"

int main() {
  using namespace kvec;

  // ---- 1. Data: tangled streams of 4 concurrent flows, 6 classes. ----
  TrafficGeneratorConfig data_config;
  data_config.num_classes = 6;
  data_config.concurrency = 4;
  data_config.avg_flow_length = 16.0;
  data_config.min_flow_length = 8;
  TrafficGenerator generator(data_config);
  Dataset dataset = GenerateDataset(generator, SplitCounts::FromTotal(60),
                                    /*seed=*/2024);
  std::printf("dataset: %zu train / %zu val / %zu test episodes\n",
              dataset.train.size(), dataset.validation.size(),
              dataset.test.size());

  // ---- 2. Model: defaults sized by the dataset spec. ----
  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  config.embed_dim = 16;
  config.state_dim = 24;
  config.num_blocks = 1;
  config.epochs = 6;
  config.beta = 5e-3f;  // earliness pressure: larger = earlier decisions
  KvecModel model(config);
  std::printf("model: %lld parameters\n",
              static_cast<long long>(model.ParameterCount()));

  // ---- 3. Train and evaluate. ----
  KvecTrainer trainer(&model);
  std::vector<TrainEpochStats> history = trainer.Train(dataset.train);
  for (size_t epoch = 0; epoch < history.size(); ++epoch) {
    std::printf("epoch %zu: loss=%.3f train_acc=%.2f train_earliness=%.2f\n",
                epoch + 1, history[epoch].total_loss,
                history[epoch].train_accuracy,
                history[epoch].train_earliness);
  }
  EvaluationResult result = trainer.Evaluate(dataset.test);
  std::printf(
      "\ntest: accuracy=%.1f%% earliness=%.1f%% (HM=%.3f) over %d "
      "sequences\n",
      100 * result.summary.accuracy, 100 * result.summary.earliness,
      result.summary.harmonic_mean, result.summary.num_sequences);

  // ---- 4. Checkpoint round trip. ----
  const char* path = "/tmp/kvec_quickstart_model.bin";
  if (cli::SaveModelBundle(path, &model)) {
    if (cli::LoadModelBundle(path) != nullptr) {
      std::printf("checkpoint saved to %s and restored successfully\n", path);
    }
  }
  return 0;
}
