#include "core/online.h"

#include <algorithm>
#include <utility>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/key_order.h"

namespace kvec {

OnlineClassifier::OnlineClassifier(const KvecModel& model,
                                   std::pmr::memory_resource* memory)
    : model_(model),
      memory_(memory),
      hidden_dim_(model.fusion().output_dim()),
      cell_dim_(model.fusion().cell_dim()),
      slot_width_(hidden_dim_ + cell_dim_),
      incremental_(model.encoder()),
      tracker_(model.config().correlation, memory),
      keys_(std::make_unique<KeyTable>(memory)),
      decide_scratch_(model.fusion().row_scratch_dim() +
                      model.classifier().num_classes()) {}

void OnlineClassifier::AdoptEncoderArena(OnlineClassifier* retiring) {
  incremental_.AdoptArena(&retiring->incremental_);
}

void OnlineClassifier::GrowKeys(KeyTable* table, int32_t size) const {
  // Both arrays start above the pool's largest pooled block (4 KB with the
  // default pool options), so each is always one upstream block: growing
  // through the small size classes would leave a cached chunk in each.
  constexpr size_t kFirstStates = 256;
  constexpr size_t kFirstSlabFloats = 2048;
  if (table->states.capacity() < kFirstStates) {
    table->states.reserve(kFirstStates);
    table->slab.reserve(kFirstSlabFloats);
  }
  table->states.resize(size);
  table->slab.resize(static_cast<size_t>(size) * slot_width_, 0.0f);
}

int OnlineClassifier::Classify(const float* hidden, double* confidence) {
  float* logits = decide_scratch_.data() + model_.fusion().row_scratch_dim();
  const int num_classes = model_.classifier().num_classes();
  model_.classifier().LogitsRow(hidden, logits);
  if (confidence != nullptr) {
    *confidence = MaxSoftmaxProbability(logits, num_classes);
  }
  return ops::ArgMaxRow(logits, num_classes);
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
  // Every item reaches the tracker and every block's K/V cache — even
  // those of halted keys — so the visibility sets and attention context of
  // live keys stay identical to training. Only an item whose key has no
  // verdict yet needs its final-block row: DecideObserved never reads the
  // row of a halted key, and a verdict is never revoked within an engine.
  // Without a row, the item needs its visible set only when an earlier
  // block attends for it.
  const bool earlier_blocks_attend = model_.config().num_blocks > 1;
  if (static_cast<int>(visible_scratch_.size()) < count) {
    visible_scratch_.resize(count);
  }
  position_scratch_.resize(count);
  needed_scratch_.resize(count);
  encoded_.resize(count);
  next_decide_ = 0;
  for (int i = 0; i < count; ++i) {
    // The item's one key lookup: a new key gets the next id in the tracker
    // and an empty state here.
    const int32_t id = tracker_.AddKey(items[i].key);
    if (id == static_cast<int32_t>(keys_->states.size())) {
      GrowKeys(keys_.get(), id + 1);
    }
    encoded_[i] = {items[i].key, id};
    KeyState& state = keys_->states[id];
    position_scratch_[i] = state.position_in_key++;
    const bool needed = !state.halted;
    needed_scratch_[i] = needed ? 1 : 0;
    tracker_.ObserveItem(items[i], id,
                         needed || earlier_blocks_attend ? &visible_scratch_[i]
                                                         : nullptr);
  }
  incremental_.AppendBatch(items, position_scratch_.data(),
                           visible_scratch_.data(), count, rows,
                           needed_scratch_.data());
  num_items_ += count;
}

OnlineDecision OnlineClassifier::DecideObserved(int key, const float* row) {
  OnlineDecision decision;
  decision.key = key;
  // The id EncodeBatch recorded for this item; a call off the contract's
  // order still finds the key (created by EncodeBatch) in the tracker.
  if (next_decide_ < encoded_.size() && encoded_[next_decide_].first == key) {
    decision.id = encoded_[next_decide_++].second;
  } else {
    decision.id = tracker_.FindKey(key);
    KVEC_CHECK_GE(decision.id, 0);
  }

  KeyState& key_state = keys_->states[decision.id];
  if (key_state.halted) {
    decision.already_halted = true;
    decision.predicted_label = key_state.predicted;
    decision.observed_items = key_state.observed;
    return decision;
  }
  key_state.has_rows = true;

  float* hidden = SlotRows(decision.id);
  float* cell = cell_dim_ > 0 ? hidden + hidden_dim_ : nullptr;
  ++key_state.fused;
  model_.fusion().StepRow(hidden, cell, key_state.fused, row,
                          decide_scratch_.data());
  ++key_state.observed;

  decision.halt_probability = model_.policy().HaltProbabilityRow(hidden);
  decision.observed_items = key_state.observed;
  if (decision.halt_probability > 0.5) {
    key_state.predicted = Classify(hidden, &decision.confidence);
    key_state.halted = true;
    decision.halted_now = true;
    decision.predicted_label = key_state.predicted;
  }
  return decision;
}

OnlineDecision OnlineClassifier::Observe(const Item& item) {
  std::vector<float> row;
  EncodeBatch(&item, 1, &row);
  return DecideObserved(item.key, row.data());
}

std::vector<OnlineDecision> OnlineClassifier::ObserveBatch(
    const std::vector<Item>& items) {
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

int OnlineClassifier::ForceClassifyById(int32_t id, double* confidence,
                                        int* observed_items) {
  const int observed = id >= 0 ? keys_->states[id].observed : 0;
  if (observed_items != nullptr) *observed_items = observed;
  if (observed == 0) {
    if (confidence != nullptr) *confidence = 0.0;
    return -1;
  }
  KeyState& key_state = keys_->states[id];
  if (!key_state.halted || confidence != nullptr) {
    const int predicted = Classify(SlotRows(id), confidence);
    if (!key_state.halted) {
      key_state.predicted = predicted;
      key_state.halted = true;
    }
  }
  return key_state.predicted;
}

namespace {

// A fusion-state row is stored as a [1, cols] matrix record (rows, cols,
// floats).
void WriteStateRow(BinaryWriter* writer, const float* row, int cols) {
  writer->WriteInt32(1);
  writer->WriteInt32(cols);
  writer->WriteFloats(row, static_cast<size_t>(cols));
}

// Copies one stored row to `out`; anything but a single row of
// `expected_cols` floats is corruption.
bool ReadStateRow(BinaryReader* reader, int expected_cols, float* out) {
  const int rows = reader->ReadInt32();
  const int cols = reader->ReadInt32();
  std::vector<float> data = reader->ReadFloatVector();
  if (!reader->ok() || rows != 1 || cols != expected_cols ||
      data.size() != static_cast<size_t>(expected_cols)) {
    return false;
  }
  std::copy(data.begin(), data.end(), out);
  return true;
}

}  // namespace

void OnlineClassifier::WriteKeyState(BinaryWriter* writer, int key,
                                     int32_t id) const {
  const KeyState& state = keys_->states[id];
  writer->WriteInt32(key);
  writer->WriteInt32(state.halted ? 1 : 0);
  writer->WriteInt32(state.observed);
  writer->WriteInt32(state.position_in_key);
  writer->WriteInt32(state.predicted);
  writer->WriteInt32(state.fused);
  writer->WriteInt32(state.has_rows ? 1 : 0);
  if (state.has_rows) WriteStateRow(writer, SlotRows(id), hidden_dim_);
  const bool has_cell = state.has_rows && cell_dim_ > 0;
  writer->WriteInt32(has_cell ? 1 : 0);
  if (has_cell) WriteStateRow(writer, SlotRows(id) + hidden_dim_, cell_dim_);
}

bool OnlineClassifier::ReadKeyStates(BinaryReader* reader,
                                     const CorrelationTracker& tracker,
                                     int32_t num_base_keys,
                                     KeyTable* table) const {
  const int num_classes = model_.config().spec.num_classes;
  GrowKeys(table, tracker.num_keys());
  const int32_t count = reader->ReadCount(kMinTaggedValueBytes);
  int prev_key = -1;
  int32_t num_new_keys = 0;
  for (int32_t i = 0; i < count && reader->ok(); ++i) {
    const int key = reader->ReadInt32();
    KeyState state;
    state.halted = reader->ReadInt32() != 0;
    state.observed = reader->ReadInt32();
    state.position_in_key = reader->ReadInt32();
    state.predicted = reader->ReadInt32();
    state.fused = reader->ReadInt32();
    state.has_rows = reader->ReadInt32() != 0;
    // Keys come strictly ascending (the canonical order), each with its
    // tracker record.
    const int32_t id = tracker.FindKey(key);
    if (!reader->ok() || (i > 0 && key <= prev_key) || id < 0 ||
        state.observed < 0 || state.position_in_key < state.observed ||
        state.fused < 0 || state.predicted < -1 ||
        state.predicted >= num_classes) {
      return false;
    }
    prev_key = key;
    float* rows = table->slab.data() + static_cast<size_t>(id) * slot_width_;
    std::fill(rows, rows + slot_width_, 0.0f);  // a state not set yet
    if (state.has_rows && !ReadStateRow(reader, hidden_dim_, rows)) {
      return false;
    }
    const bool has_cell = reader->ReadInt32() != 0;
    // A state is a whole slot: the cell row comes with the hidden row
    // exactly when the fusion kind keeps one (kLstm, kMean). A record
    // without it would make StepRow read past the key's slot.
    if (has_cell != (state.has_rows && cell_dim_ > 0)) return false;
    if (has_cell && !ReadStateRow(reader, cell_dim_, rows + hidden_dim_)) {
      return false;
    }
    // ForceClassify and StepRow both read the state of any key with
    // observed items; a checkpoint without one is corrupt.
    if (state.observed > 0 && !state.has_rows) return false;
    table->states[id] = state;
    if (id >= num_base_keys) ++num_new_keys;
  }
  return reader->ok() && num_new_keys == tracker.num_keys() - num_base_keys;
}

void OnlineClassifier::Snapshot(BinaryWriter* writer) const {
  writer->WriteInt32(num_items_);
  // One key sort for the tracker's records and the key states, which are
  // the same key set: the canonical byte stream is key-sorted.
  CorrelationTracker::KeyOrder by_key;
  tracker_.Snapshot(writer, &by_key);
  writer->WriteInt32(static_cast<int32_t>(by_key.size()));
  for (const auto& [key, id] : by_key) WriteKeyState(writer, key, id);

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
  auto keys = std::make_unique<KeyTable>(memory_);
  if (!ReadKeyStates(reader, tracker, /*num_base_keys=*/0, keys.get())) {
    return false;
  }

  // The encoder is the only member mutated before the commit point below,
  // and its Restore is itself all-or-nothing (with the item count
  // cross-checked against this section's clock), so a failure anywhere
  // leaves *this untouched.
  if (!incremental_.Restore(reader, num_items)) return false;

  num_items_ = num_items;
  tracker_ = std::move(tracker);
  keys_ = std::move(keys);
  encoded_.clear();  // the ids it holds were the old tracker's
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
  // fresh window — without a state), counted as they are written.
  const size_t count_at = writer->WriteInt32Placeholder();
  int32_t count = 0;
  for (int key : dirty_sorted) {
    const int32_t id = FindKey(key);
    if (id < 0) continue;
    ++count;
    WriteKeyState(writer, key, id);
  }
  writer->PatchInt32(count_at, count);

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
  encoded_.clear();
  const int32_t num_base_keys = static_cast<int32_t>(keys_->states.size());
  if (!ReadKeyStates(reader, tracker_, num_base_keys, keys_.get())) {
    return false;
  }
  if (!incremental_.RestoreTail(reader, num_items)) return false;
  num_items_ = num_items;
  return true;
}

}  // namespace kvec
