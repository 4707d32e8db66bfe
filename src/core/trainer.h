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
// observed cumulative rewards by MSE. Everything after the representation
// — the halt draw (HaltTrace), the loss and both updates (EctlObjective) —
// is shared with the policy-halting baselines EARLIEST and SRN-EARLIEST
// (baselines/baseline_trainer.h), so they train on this exact objective.
//
// Evaluation: deterministic halting (Halt iff π(s) > 0.5, forced at the end
// of a sequence), decided by the streaming engine (core/online.h) — the
// same row kernels `kvec serve` runs — so every evaluated verdict is the
// verdict a served episode gets. Produces one PredictionRecord per
// sequence, which also carries the halting position of Fig. 11;
// ReadAttention instruments the internal/external attention scores of
// Fig. 10 without taking part in a decision.
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

// One key's Halt/Wait decisions in a training rollout: for every observed
// step i, the halt probability π(s_i), the sampled action a_i and the
// baseline estimate b(s_i) (computed on the detached state, so only θ_b
// learns from it).
struct HaltTrace {
  std::vector<Tensor> halt_probs;
  std::vector<int> actions;  // 1 = Halt
  std::vector<Tensor> baseline_values;

  // Records π(s) and b(s) for the next step, then draws a ~ Bernoulli(π(s))
  // with π clamped to [1e-4, 1 - 1e-4]. Returns true on Halt.
  bool Sample(const EctlPolicy& policy, const BaselineNetwork& baseline,
              const Tensor& state, Rng& rng);
};

// The ECTL objective of Algorithm 1 and its two Adam updates. Per episode:
// AddKey for every classified key, then Update with that episode's l1.
// Per epoch: TakeEpochStats.
class EctlObjective {
 public:
  // Reads alpha, beta, grad_clip and both learning rates from `config`.
  EctlObjective(const KvecConfig& config, std::vector<Tensor> main_parameters,
                std::vector<Tensor> baseline_parameters);

  // θ's optimizer, for a learning-rate schedule to drive.
  Adam* main_optimizer() { return &main_optimizer_; }

  // Counts one classified key (n_k = `observed` of |S_k| = `length` items)
  // towards the epoch's train accuracy and earliness. With a `trace`, also
  // adds its policy-gradient terms, with reward r = ±1 by `correct` and
  // R(i) = Σ_{s=i+1..n} r = (n − (i+1))·r: the REINFORCE term
  // −(R(i) − b_i)·log P(a_i | s_i), the earliness term −log π(s_i), and
  // b_i's regression target R(i).
  void AddKey(int observed, int length, bool correct, const HaltTrace* trace);

  // Closes the episode. `l1` is its classification loss summed over
  // `keys` keys. Minimises l = (l1 + α·l2 + β·l3) / keys over θ — just
  // l1 / keys when no key brought a trace — and, with traces, the
  // baseline MSE over θ_b; adds both to the epoch's stats.
  void Update(const Tensor& l1, int keys);

  // The epoch's per-episode mean losses and per-key train accuracy and
  // earliness; starts the next epoch.
  TrainEpochStats TakeEpochStats();

  // The open episode's terms in AddKey order (for tests).
  const std::vector<Tensor>& policy_terms() const { return policy_terms_; }
  const std::vector<Tensor>& earliness_terms() const {
    return earliness_terms_;
  }
  const std::vector<float>& baseline_targets() const {
    return baseline_targets_;
  }

 private:
  float alpha_;
  float beta_;
  float grad_clip_;
  Adam main_optimizer_;
  Adam baseline_optimizer_;
  std::vector<Tensor> policy_terms_;     // -(R_i - b_i) log P(a_i | s_i)
  std::vector<Tensor> earliness_terms_;  // -log P(Halt | s_i)
  std::vector<Tensor> baseline_rows_;
  std::vector<float> baseline_targets_;
  TrainEpochStats stats_;
  int64_t verdicts_ = 0, correct_ = 0;
  double earliness_sum_ = 0.0;
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
  // and force-classifies the keys still open at its end. Records are per
  // episode, in ascending key order.
  EvaluationResult Evaluate(const std::vector<TangledSequence>& episodes);

 private:
  KvecModel* model_;
  EctlObjective objective_;
  Rng rng_;
};

// Fig. 10 instrumentation: one AttentionPoint per entry of `records` (the
// PredictionRecords Evaluate returned for `episode`, one per key),
// averaging every block's attention rows of that key's items up to its
// halt. Runs the Tensor encoder only to read the attention weights; no
// decision depends on it.
std::vector<AttentionPoint> ReadAttention(
    const KvecModel& model, const TangledSequence& episode,
    const std::vector<PredictionRecord>& records);

}  // namespace kvec

