// Joint training of KVEC (paper §IV-E, Algorithm 1) and evaluation.
//
// Training: for every tangled sequence, generate an episode by streaming
// its items through the encoder + fusion cell while sampling Halt/Wait from
// the policy; assign ±1 rewards from the classifier's correctness; then
// minimise
//     l = l1 + α·l2 + β·l3
// where l1 is the classification cross-entropy, l2 the REINFORCE-with-
// baseline surrogate, and l3 the earliness pressure -Σ log P(Halt). θ (the
// encoder, fusion, policy and classifier) and θ_b (the baseline network)
// are updated by separate Adam optimizers, with θ_b regressed onto the
// observed cumulative rewards by MSE.
//
// Evaluation: deterministic halting (Halt iff π(s) > 0.5, forced at the end
// of a sequence), decided by the streaming engine (core/online.h) — the
// same row kernels `kvec serve` runs — so every evaluated verdict is the
// verdict a served episode gets. Produces PredictionRecords plus the
// halting positions of Fig. 11; ReadAttention instruments the internal/
// external attention scores of Fig. 10 without taking part in a decision.
//
// Threading and determinism: a trainer drives its model single-threaded —
// one trainer per model, no concurrent Train/Evaluate on the same
// instance. The tensor kernels underneath may parallelise across rows via
// the global thread pool, but per-row accumulation order is fixed, so for
// a given config.seed the trained parameters and every evaluation are
// bit-identical regardless of KVEC_NUM_THREADS. Training cost is
// O(epochs · Σ_episodes T² · d) (full-episode encoder passes); Evaluate
// streams each episode through a fresh OnlineClassifier, O(T · t_visible
// · d) per episode, and uses no trainer randomness.
#pragma once

#include <vector>

#include "core/model.h"
#include "metrics/metrics.h"
#include "nn/optimizer.h"

namespace kvec {

struct TrainEpochStats {
  double total_loss = 0.0;
  double classification_loss = 0.0;  // l1 (per-sequence mean)
  double policy_loss = 0.0;          // l2
  double earliness_loss = 0.0;       // l3
  double baseline_loss = 0.0;
  double train_accuracy = 0.0;
  double train_earliness = 0.0;
  int episodes = 0;
};

// Internal vs external attention mass of one halted sequence (Fig. 10):
// internal = attention weight put on same-key items, external = weight on
// items of other keys (reachable through value correlation).
struct AttentionPoint {
  double earliness = 0.0;
  double internal_score = 0.0;
  double external_score = 0.0;
};

// Where a sequence was halted (Fig. 11).
struct HaltingRecord {
  int key = 0;
  int halt_position = 0;     // n_k (1-based count of observed items)
  int sequence_length = 0;   // |S_k|
  int true_halt_position = 0;  // 0 when the dataset has no ground truth
};

struct EvaluationResult {
  std::vector<PredictionRecord> records;
  EvaluationSummary summary;
  std::vector<HaltingRecord> halts;
};

class KvecTrainer {
 public:
  explicit KvecTrainer(KvecModel* model);

  // One pass over `episodes` in random order, one update per episode.
  TrainEpochStats TrainEpoch(const std::vector<TangledSequence>& episodes);

  // config().epochs passes; returns per-epoch stats.
  std::vector<TrainEpochStats> Train(
      const std::vector<TangledSequence>& episodes);

  // Like Train, but evaluates the validation split after every epoch and
  // restores the parameters of the epoch with the best validation harmonic
  // mean before returning (early-stopping-style model selection over the
  // paper's 8:1:1 split). `best_epoch` (0-based, optional) reports which
  // epoch won.
  std::vector<TrainEpochStats> TrainWithValidation(
      const std::vector<TangledSequence>& train_episodes,
      const std::vector<TangledSequence>& validation_episodes,
      int* best_epoch = nullptr);

  // Serves each non-empty episode alone through a fresh OnlineClassifier
  // and force-classifies the keys still open at its end. Records and
  // halts are per episode, in ascending key order.
  EvaluationResult Evaluate(const std::vector<TangledSequence>& episodes);

 private:
  KvecModel* model_;
  Adam main_optimizer_;
  Adam baseline_optimizer_;
  Rng rng_;
};

// Fig. 10 instrumentation: one AttentionPoint per entry of `halts` (the
// HaltingRecords Evaluate returned for `episode`, one per key), averaging
// every block's attention rows of that key's items up to its halt. Runs
// the Tensor encoder only to read the attention weights; no decision
// depends on it.
std::vector<AttentionPoint> ReadAttention(
    const KvecModel& model, const TangledSequence& episode,
    const std::vector<HaltingRecord>& halts);

}  // namespace kvec

