// Training and evaluation loops for the baseline methods, mirroring
// KvecTrainer but with per-method representation / halting behaviour.
// EARLIEST and SRN-EARLIEST sample Halt/Wait and train on KVEC's ECTL
// objective itself (HaltTrace, EctlObjective in core/trainer.h); SRN-Fixed
// and SRN-Confidence take only its classification term and θ's update.
#pragma once

#include <vector>

#include "baselines/baseline_model.h"
#include "core/trainer.h"
#include "nn/optimizer.h"

namespace kvec {

class BaselineTrainer {
 public:
  explicit BaselineTrainer(BaselineModel* model);

  TrainEpochStats TrainEpoch(const std::vector<TangledSequence>& episodes);
  std::vector<TrainEpochStats> Train(
      const std::vector<TangledSequence>& episodes);
  EvaluationResult Evaluate(const std::vector<TangledSequence>& episodes);

 private:
  BaselineModel* model_;
  EctlObjective objective_;
  Rng rng_;
};

}  // namespace kvec

