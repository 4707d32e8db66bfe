// Reference implementation of KVEC's deterministic halting (Halt iff
// π(s) > 0.5, forced at the end of a sequence) on the Tensor forward path:
// one full-episode KvrlEncoder::Forward, then EmbeddingFusion::Step,
// EctlPolicy::HaltProbability and SequenceClassifier::Logits per item.
// Library code decides only through the streaming engine (core/online.h);
// tests compare the engine, KvecTrainer::Evaluate and StreamServer against
// this independent rollout so that "served equals evaluated" is checked
// against something other than itself.
#pragma once

#include <map>

#include "core/heads.h"
#include "core/model.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace kvec {
namespace reference {

struct Verdict {
  int predicted_label = -1;
  int observed_items = 0;  // n_k at the halt (|S_k| when forced at the end)
  double confidence = 0.0;  // max softmax at the halt
};

// Verdicts of every key of `episode` that has items, by key.
inline std::map<int, Verdict> Rollout(
    const KvecModel& model, const TangledSequence& episode) {
  std::map<int, Verdict> verdicts;
  if (episode.items.empty()) return verdicts;
  InferenceMode no_tape;  // no gradients: long episodes keep no graph
  const EpisodeIndex index = EpisodeIndex::Build(episode);
  Rng unused_rng;  // eval-mode dropout draws nothing
  const EncodeResult encode = model.encoder().Forward(
      episode, index, unused_rng, /*training=*/false);

  std::map<int, FusionState> states;
  std::map<int, bool> halted;
  auto classify = [&](int key) {
    const Tensor logits = model.classifier().Logits(states[key].hidden);
    verdicts[key].predicted_label = ops::ArgMaxRow(logits, 0);
    verdicts[key].confidence = MaxSoftmaxProbability(logits);
    halted[key] = true;
  };
  for (int t = 0; t < static_cast<int>(episode.items.size()); ++t) {
    const int key = episode.items[t].key;
    if (halted[key]) continue;
    FusionState& state = states[key];
    if (!state.defined()) state = model.fusion().InitialState();
    state = model.fusion().Step(state, ops::SliceRow(encode.embeddings, t));
    ++verdicts[key].observed_items;
    if (model.policy().HaltProbability(state.hidden).ScalarValue() > 0.5f) {
      classify(key);
    }
  }
  for (const auto& [key, state] : states) {
    if (!halted[key]) classify(key);
  }
  return verdicts;
}

}  // namespace reference
}  // namespace kvec
