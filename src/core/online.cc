#include "core/online.h"

#include <algorithm>
#include <utility>

#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

OnlineClassifier::OnlineClassifier(const KvecModel& model,
                                   std::pmr::memory_resource* memory)
    : model_(model),
      memory_(memory),
      incremental_(model.encoder()),
      tracker_(model.config().correlation, memory),
      keys_(std::make_unique<KeyStateMap>(memory)) {}

void OnlineClassifier::Repool(std::pmr::memory_resource* memory) {
  tracker_.Repool(memory);
  auto fresh = std::make_unique<KeyStateMap>(memory);
  fresh->reserve(keys_->size());
  // KeyState's tensors are shared handles into BufferPool storage — the
  // copy moves the map nodes into the new pool, not the float data.
  for (const auto& [key, state] : *keys_) fresh->emplace(key, state);
  keys_ = std::move(fresh);
  memory_ = memory;
  incremental_.ShrinkToFit();
}

void OnlineClassifier::ResetEncodeScratch() { incremental_.ResetScratch(); }

size_t OnlineClassifier::encoder_resident_bytes() const {
  return incremental_.resident_bytes();
}

size_t OnlineClassifier::scratch_high_water() const {
  return incremental_.scratch_high_water();
}

void OnlineClassifier::EncodeBatch(const Item* items, int count,
                                   std::vector<float>* rows) {
  KVEC_CHECK_GT(count, 0);
  // The tracker must see every stream item — even those of halted keys —
  // so the visibility sets of live keys stay identical to training.
  if (static_cast<int>(visible_scratch_.size()) < count) {
    visible_scratch_.resize(count);
  }
  position_scratch_.resize(count);
  for (int i = 0; i < count; ++i) {
    visible_scratch_[i] = tracker_.ObserveItem(items[i]);
    position_scratch_[i] = (*keys_)[items[i].key].position_in_key++;
  }
  incremental_.AppendBatch(items, position_scratch_.data(),
                           visible_scratch_.data(), count, rows);
  num_items_ += count;
}

OnlineDecision OnlineClassifier::DecideObserved(int key, const float* row) {
  // Pure serving: no op below may record tape nodes, so the fusion step and
  // head evaluations build zero graph (no Detach() cleanup required).
  InferenceMode inference_guard;
  OnlineDecision decision;
  decision.key = key;

  KeyState& key_state = keys_->at(key);  // created by EncodeBatch
  if (key_state.halted) {
    decision.already_halted = true;
    decision.predicted_label = key_state.predicted;
    decision.observed_items = key_state.observed;
    return decision;
  }
  if (!key_state.state.defined()) {
    key_state.state = model_.fusion().InitialState();
  }

  const int embed = embed_dim();
  Tensor embedding =
      Tensor::FromData(1, embed, std::vector<float>(row, row + embed));
  key_state.state = model_.fusion().Step(key_state.state, embedding);
  // No gradients at inference: cut the graph so state does not accumulate.
  key_state.state.DetachInPlace();
  ++key_state.observed;

  Tensor halt_prob = model_.policy().HaltProbability(key_state.state.hidden);
  decision.halt_probability = halt_prob.ScalarValue();
  decision.observed_items = key_state.observed;
  if (decision.halt_probability > 0.5) {
    Tensor logits = model_.classifier().Logits(key_state.state.hidden);
    key_state.predicted = ops::ArgMaxRow(logits, 0);
    key_state.halted = true;
    decision.halted_now = true;
    decision.predicted_label = key_state.predicted;
    decision.confidence = MaxSoftmaxProbability(logits);
  }
  return decision;
}

OnlineDecision OnlineClassifier::Observe(const Item& item) {
  InferenceMode inference_guard;
  std::vector<float> row;
  EncodeBatch(&item, 1, &row);
  return DecideObserved(item.key, row.data());
}

std::vector<OnlineDecision> OnlineClassifier::ObserveBatch(
    const std::vector<Item>& items) {
  InferenceMode inference_guard;
  std::vector<OnlineDecision> decisions;
  if (items.empty()) return decisions;
  decisions.reserve(items.size());
  std::vector<float> rows;
  EncodeBatch(items.data(), static_cast<int>(items.size()), &rows);
  const int embed = embed_dim();
  for (size_t i = 0; i < items.size(); ++i) {
    decisions.push_back(
        DecideObserved(items[i].key, rows.data() + i * embed));
  }
  return decisions;
}

int OnlineClassifier::ForceClassify(int key, double* confidence) {
  InferenceMode inference_guard;
  auto it = keys_->find(key);
  if (it == keys_->end() || it->second.observed == 0) {
    if (confidence != nullptr) *confidence = 0.0;
    return -1;
  }
  KeyState& key_state = it->second;
  if (!key_state.halted || confidence != nullptr) {
    Tensor logits = model_.classifier().Logits(key_state.state.hidden);
    if (!key_state.halted) {
      key_state.predicted = ops::ArgMaxRow(logits, 0);
      key_state.halted = true;
    }
    if (confidence != nullptr) *confidence = MaxSoftmaxProbability(logits);
  }
  return key_state.predicted;
}

namespace {

void WriteStateTensor(BinaryWriter* writer, const Tensor& tensor) {
  writer->WriteInt32(tensor.rows());
  writer->WriteInt32(tensor.cols());
  writer->WriteFloatVector(tensor.data());
}

// Fusion states are always single rows; anything else is corruption.
bool ReadStateTensor(BinaryReader* reader, int expected_cols, Tensor* out) {
  const int rows = reader->ReadInt32();
  const int cols = reader->ReadInt32();
  std::vector<float> data = reader->ReadFloatVector();
  if (!reader->ok() || rows != 1 || cols != expected_cols ||
      data.size() != static_cast<size_t>(expected_cols)) {
    return false;
  }
  *out = Tensor::FromData(rows, cols, std::move(data));
  return true;
}

}  // namespace

void OnlineClassifier::WriteKeyState(BinaryWriter* writer, int key,
                                     const KeyState& state) const {
  writer->WriteInt32(key);
  writer->WriteInt32(state.halted ? 1 : 0);
  writer->WriteInt32(state.observed);
  writer->WriteInt32(state.position_in_key);
  writer->WriteInt32(state.predicted);
  writer->WriteInt32(state.state.count);
  writer->WriteInt32(state.state.hidden.defined() ? 1 : 0);
  if (state.state.hidden.defined()) {
    WriteStateTensor(writer, state.state.hidden);
  }
  writer->WriteInt32(state.state.cell.defined() ? 1 : 0);
  if (state.state.cell.defined()) {
    WriteStateTensor(writer, state.state.cell);
  }
}

bool OnlineClassifier::ReadKeyState(BinaryReader* reader, int* key,
                                    KeyState* state) const {
  const KvecConfig& config = model_.config();
  const int hidden_dim = model_.fusion().output_dim();
  const int cell_dim = config.fusion == KvecConfig::FusionKind::kLstm
                           ? config.state_dim
                           : config.embed_dim;
  *key = reader->ReadInt32();
  state->halted = reader->ReadInt32() != 0;
  state->observed = reader->ReadInt32();
  state->position_in_key = reader->ReadInt32();
  state->predicted = reader->ReadInt32();
  state->state.count = reader->ReadInt32();
  if (!reader->ok() || state->observed < 0 ||
      state->position_in_key < state->observed || state->state.count < 0 ||
      state->predicted < -1 || state->predicted >= config.spec.num_classes) {
    return false;
  }
  if (reader->ReadInt32() != 0) {
    if (!ReadStateTensor(reader, hidden_dim, &state->state.hidden)) {
      return false;
    }
  }
  if (reader->ReadInt32() != 0) {
    if (!ReadStateTensor(reader, cell_dim, &state->state.cell)) return false;
  }
  // ForceClassify and Step both dereference the hidden state of any key
  // with observed items; a checkpoint without one is corrupt.
  if (state->observed > 0 && !state->state.hidden.defined()) return false;
  return true;
}

void OnlineClassifier::Snapshot(BinaryWriter* writer) const {
  writer->WriteInt32(num_items_);
  tracker_.Snapshot(writer);

  std::vector<int> sorted_keys;
  sorted_keys.reserve(keys_->size());
  for (const auto& [key, state] : *keys_) sorted_keys.push_back(key);
  std::sort(sorted_keys.begin(), sorted_keys.end());
  writer->WriteInt32(static_cast<int32_t>(sorted_keys.size()));
  for (int key : sorted_keys) {
    WriteKeyState(writer, key, keys_->at(key));
  }

  // The encoder arena goes last so Restore can stage everything else in
  // temporaries and only mutate members once all sections parsed.
  incremental_.Snapshot(writer);
}

bool OnlineClassifier::Restore(BinaryReader* reader) {
  const KvecConfig& config = model_.config();

  const int num_items = reader->ReadInt32();
  if (!reader->ok() || num_items < 0) return false;

  CorrelationTracker tracker(config.correlation, memory_);
  if (!tracker.Restore(reader)) return false;
  if (tracker.num_observed() != num_items) return false;

  // Staged into the engine's own resource; committed by a pointer swap.
  auto keys = std::make_unique<KeyStateMap>(memory_);
  const int32_t num_keys = reader->ReadInt32();
  if (!reader->ok() || num_keys < 0 ||
      static_cast<size_t>(num_keys) > reader->remaining() / 8) {
    return false;
  }
  keys->reserve(num_keys);
  for (int32_t i = 0; i < num_keys && reader->ok(); ++i) {
    int key = 0;
    KeyState state;
    if (!ReadKeyState(reader, &key, &state)) return false;
    if (!keys->emplace(key, std::move(state)).second) return false;
  }
  if (!reader->ok()) return false;

  // The encoder is the only member mutated before the commit point below,
  // and its Restore is itself all-or-nothing (with the item count
  // cross-checked against this section's clock), so a failure anywhere
  // leaves *this untouched.
  if (!incremental_.Restore(reader, num_items)) return false;

  num_items_ = num_items;
  tracker_ = std::move(tracker);
  keys_ = std::move(keys);
  return true;
}

void OnlineClassifier::SnapshotDelta(BinaryWriter* writer,
                                     const std::vector<int>& dirty_sorted,
                                     int base_items) const {
  writer->WriteInt32(num_items_);
  writer->WriteInt32(base_items);
  tracker_.SnapshotDelta(writer, dirty_sorted);

  // Dirty keys that reached the engine this window (a key can be dirtied
  // purely in the serving index — e.g. evicted before its first item of a
  // fresh window — without a KeyState).
  std::vector<int> present;
  present.reserve(dirty_sorted.size());
  for (int key : dirty_sorted) {
    if (keys_->count(key)) present.push_back(key);
  }
  writer->WriteInt32(static_cast<int32_t>(present.size()));
  for (int key : present) {
    WriteKeyState(writer, key, keys_->at(key));
  }

  incremental_.SnapshotTail(writer, base_items);
}

bool OnlineClassifier::ApplyDelta(BinaryReader* reader) {
  const int num_items = reader->ReadInt32();
  const int base_items = reader->ReadInt32();
  // The receiver must hold exactly the base the delta was cut against.
  if (!reader->ok() || num_items < base_items || base_items != num_items_) {
    return false;
  }
  if (!tracker_.ApplyDelta(reader, num_items)) return false;

  const int32_t num_keys = reader->ReadInt32();
  if (!reader->ok() || num_keys < 0 ||
      static_cast<size_t>(num_keys) > reader->remaining() / 8) {
    return false;
  }
  int prev_key = -1;
  bool first = true;
  for (int32_t i = 0; i < num_keys && reader->ok(); ++i) {
    int key = 0;
    KeyState state;
    if (!ReadKeyState(reader, &key, &state)) return false;
    if (!first && key <= prev_key) return false;  // canonical ascending
    first = false;
    prev_key = key;
    (*keys_)[key] = std::move(state);
  }
  if (!reader->ok()) return false;

  if (!incremental_.RestoreTail(reader, num_items)) return false;
  num_items_ = num_items;
  return true;
}

int OnlineClassifier::ObservedItems(int key) const {
  auto it = keys_->find(key);
  return it == keys_->end() ? 0 : it->second.observed;
}

bool OnlineClassifier::IsHalted(int key) const {
  auto it = keys_->find(key);
  return it != keys_->end() && it->second.halted;
}

}  // namespace kvec
