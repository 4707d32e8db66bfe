#include "core/correlation.h"

#include <algorithm>

#include "tensor/ops.h"
#include "util/check.h"
#include "util/key_order.h"

namespace kvec {
namespace {

// A checkpointed open session is well formed when its recency position is
// -1 (never indexed) or a seen stream position, and its items are seen
// positions in strictly ascending order (the value-match merge relies on
// the order).
bool ValidSession(int last_index, const std::vector<int>& item_indices,
                  int next_index) {
  if (last_index < -1 || last_index >= next_index) return false;
  int previous = -1;
  for (int index : item_indices) {
    if (index <= previous || index >= next_index) return false;
    previous = index;
  }
  return true;
}

}  // namespace

CorrelationTracker::CorrelationTracker(const CorrelationOptions& options,
                                       std::pmr::memory_resource* memory)
    : options_(options),
      memory_(memory),
      state_(std::make_unique<State>(memory)) {
  KVEC_CHECK_GE(options_.session_field, 0);
  KVEC_CHECK_GT(options_.value_correlation_window, 0);
}

CorrelationTracker::RecordStore::~RecordStore() {
  int32_t left = size_;
  for (KeyRecord* chunk : chunks_) {
    std::destroy_n(chunk, std::min(left, kChunkRecords));
    alloc_.deallocate(chunk, kChunkRecords);
    left -= kChunkRecords;
  }
}

int32_t CorrelationTracker::RecordStore::Append(int key) {
  if ((size_ & kChunkMask) == 0) {
    chunks_.push_back(alloc_.allocate(kChunkRecords));
  }
  KeyRecord* record = chunks_.back() + (size_ & kChunkMask);
  alloc_.construct(record);  // uses-allocator: the vectors get the resource
  record->session.key = key;
  return size_++;
}

int32_t CorrelationTracker::State::Upsert(int key) {
  const auto [index, inserted] = keys.TryEmplace(key);
  if (inserted) *index = records.Append(key);
  return *index;
}

void CorrelationTracker::PushNewest(OpenSession** head, OpenSession* session) {
  session->newer = nullptr;
  session->older = *head;
  if (*head != nullptr) (*head)->newer = session;
  *head = session;
}

void CorrelationTracker::Unlink(State* state, OpenSession* session) {
  if (session->older != nullptr) session->older->newer = session->newer;
  if (session->newer != nullptr) {
    session->newer->older = session->older;
  } else {
    // The list head: repoint the value's entry, or drop it with the list.
    auto head = state->by_value.find(session->session_value);
    if (session->older != nullptr) {
      head->second = session->older;
    } else {
      state->by_value.erase(head);
    }
  }
  session->newer = nullptr;
  session->older = nullptr;
}

bool CorrelationTracker::RebuildValueIndex(State* state) {
  std::vector<OpenSession*> by_recency;
  by_recency.reserve(state->records.size());
  for (int32_t i = 0; i < state->records.size(); ++i) {
    KeyRecord& record = state->records[i];
    OpenSession& session = record.session;
    session.newer = nullptr;
    session.older = nullptr;
    if (record.has_session && session.last_index >= 0) {
      by_recency.push_back(&session);
    }
  }
  std::sort(by_recency.begin(), by_recency.end(),
            [](const OpenSession* a, const OpenSession* b) {
              return a->last_index < b->last_index;
            });
  state->by_value.clear();
  for (size_t i = 0; i < by_recency.size(); ++i) {
    if (i > 0 && by_recency[i]->last_index == by_recency[i - 1]->last_index) {
      return false;  // two sessions cannot share a stream position
    }
    PushNewest(&state->by_value[by_recency[i]->session_value], by_recency[i]);
  }
  return true;
}

void CorrelationTracker::AppendValueMatches(int index, int num_matches,
                                            std::vector<int>* visible) {
  // Keep only the most recent matches (largest stream positions).
  const int cap = options_.max_value_correlations;
  const int keep = cap > 0 && num_matches > cap ? cap : num_matches;
  if (runs_.size() == 1) {
    visible->insert(visible->end(), runs_[0].end - keep, runs_[0].end);
    return;
  }
  int lowest = index;
  for (const Run& run : runs_) lowest = std::min(lowest, *run.begin);
  const int num_words = (index - lowest + 63) / 64;

  if (num_words > 2 * num_matches) {
    // Sparse over a wide span: sorting the matches beats clearing and
    // scanning the bitmap.
    const auto first = visible->end() - visible->begin();
    for (const Run& run : runs_) {
      visible->insert(visible->end(), run.begin, run.end);
    }
    std::sort(visible->begin() + first, visible->end());
    visible->erase(visible->begin() + first, visible->end() - keep);
    return;
  }

  // Dense: set one bit per match, then read the bits out in ascending
  // order, skipping the oldest num_matches - keep. Every word read is
  // cleared, so the bitmap is all-zero again for the next item.
  if (union_bits_.size() < static_cast<size_t>(num_words)) {
    union_bits_.resize(num_words, 0);
  }
  uint64_t* bits = union_bits_.data();
  for (const Run& run : runs_) {
    for (const int* p = run.begin; p != run.end; ++p) {
      const int offset = *p - lowest;
      bits[offset >> 6] |= uint64_t{1} << (offset & 63);
    }
  }
  int skip = num_matches - keep;
  for (int w = 0; w < num_words; ++w) {
    uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    if (skip > 0) {
      const int count = __builtin_popcountll(word);
      if (count <= skip) {
        skip -= count;
        continue;
      }
      for (; skip > 0; --skip) word &= word - 1;
    }
    const int base = lowest + w * 64;
    for (; word != 0; word &= word - 1) {
      visible->push_back(base + __builtin_ctzll(word));
    }
  }
}

void CorrelationTracker::CollectVisible(int index, int key,
                                        const std::pmr::vector<int>& own_items,
                                        const OpenSession* head,
                                        std::vector<int>* visible) {
  // Value correlation: the other keys' open sessions carrying this value
  // whose last item lies inside the window. The list is newest-first, so
  // the first stale session ends the walk. A run longer than the cap
  // contributes only its most recent `cap` items.
  runs_.clear();
  int num_matches = 0;
  if (options_.use_value_correlation) {
    const int cap = options_.max_value_correlations;
    for (const OpenSession* session = head;
         session != nullptr &&
         index - session->last_index <= options_.value_correlation_window;
         session = session->older) {
      if (session->key == key || session->item_indices.empty()) {
        continue;  // same key is key correlation
      }
      const int* end =
          session->item_indices.data() + session->item_indices.size();
      const int* begin = session->item_indices.data();
      if (cap > 0 && end - begin > cap) begin = end - cap;
      runs_.push_back({begin, end});
      num_matches += static_cast<int>(end - begin);
    }
  }

  const size_t num_own =
      options_.use_key_correlation ? own_items.size() : size_t{0};
  visible->clear();
  visible->reserve(num_own + static_cast<size_t>(num_matches));
  // Same-key indices first, then the value matches: the canonical order.
  if (num_own > 0) visible->assign(own_items.begin(), own_items.end());
  if (!runs_.empty()) AppendValueMatches(index, num_matches, visible);
}

std::vector<int> CorrelationTracker::ObserveItem(const Item& item) {
  std::vector<int> visible;
  ObserveItem(item, &visible);
  return visible;
}

void CorrelationTracker::ObserveItem(const Item& item, int32_t id,
                                     std::vector<int>* visible) {
  const int index = next_index_++;
  KVEC_CHECK_LT(options_.session_field,
                static_cast<int>(item.value.size()));
  const int session_value = item.value[options_.session_field];
  State& state = *state_;
  KeyRecord& record = state.records[id];
  OpenSession*& head = state.by_value[session_value];
  if (visible != nullptr) {
    CollectVisible(index, item.key, record.items, head, visible);
  }

  // Update this key's state *after* computing visibility so an item never
  // reports itself. The item's position is the largest seen, so its
  // session moves to the front of its value's recency list.
  record.items.push_back(index);
  record.has_items = true;
  record.has_session = true;
  OpenSession& session = record.session;
  if (&session != head) {
    if (session.last_index >= 0) Unlink(&state, &session);
    PushNewest(&head, &session);
  }
  if (session.item_indices.empty() || session.session_value != session_value) {
    session.session_value = session_value;
    session.item_indices.clear();
  }
  session.item_indices.push_back(index);
  session.last_index = index;
}

void CorrelationTracker::WriteItems(BinaryWriter* writer,
                                    const std::pmr::vector<int>& items) {
  writer->WriteInts(items.data(), items.size());
}

bool CorrelationTracker::ReadItems(BinaryReader* reader, int next_index,
                                   std::pmr::vector<int>* items) {
  const std::vector<int> read = reader->ReadIntVector();
  if (!reader->ok()) return false;
  for (int index : read) {
    if (index < 0 || index >= next_index) return false;
  }
  items->assign(read.begin(), read.end());
  return true;
}

void CorrelationTracker::WriteSession(BinaryWriter* writer,
                                      const OpenSession& session) {
  writer->WriteInt32(session.session_value);
  writer->WriteInt32(session.last_index);
  writer->WriteInts(session.item_indices.data(), session.item_indices.size());
}

bool CorrelationTracker::ReadSession(BinaryReader* reader, int next_index,
                                     OpenSession* session) {
  const int session_value = reader->ReadInt32();
  const int last_index = reader->ReadInt32();
  const std::vector<int> item_indices = reader->ReadIntVector();
  if (!reader->ok() || !ValidSession(last_index, item_indices, next_index)) {
    return false;
  }
  session->session_value = session_value;
  session->last_index = last_index;
  session->item_indices.assign(item_indices.begin(), item_indices.end());
  return true;
}

void CorrelationTracker::Snapshot(BinaryWriter* writer,
                                  KeyOrder* by_key) const {
  // Echo the options so a checkpoint can never be restored into a tracker
  // with different correlation semantics.
  writer->WriteInt32(options_.use_key_correlation ? 1 : 0);
  writer->WriteInt32(options_.use_value_correlation ? 1 : 0);
  writer->WriteInt32(options_.value_correlation_window);
  writer->WriteInt32(options_.session_field);
  writer->WriteInt32(options_.max_value_correlations);
  writer->WriteInt32(next_index_);

  // Key-sorted iteration makes the byte stream canonical (the store holds
  // records in first-observation order, which a restored tracker does not
  // share). Each entry carries its record's id, so the write loops need no
  // lookup. The item lists come first, then the sessions.
  const RecordStore& records = state_->records;
  KeyOrder own_order;
  KeyOrder& order = by_key != nullptr ? *by_key : own_order;
  order.clear();
  order.reserve(records.size());
  int32_t num_items = 0;
  int32_t num_sessions = 0;
  for (int32_t id = 0; id < records.size(); ++id) {
    order.emplace_back(records[id].session.key, id);
    num_items += records[id].has_items ? 1 : 0;
    num_sessions += records[id].has_session ? 1 : 0;
  }
  SortByIntKey(&order, [](const auto& entry) { return entry.first; });
  writer->WriteInt32(num_items);
  for (const auto& [key, id] : order) {
    if (!records[id].has_items) continue;
    writer->WriteInt32(key);
    WriteItems(writer, records[id].items);
  }
  writer->WriteInt32(num_sessions);
  for (const auto& [key, id] : order) {
    if (!records[id].has_session) continue;
    writer->WriteInt32(key);
    WriteSession(writer, records[id].session);
  }
}

bool CorrelationTracker::Restore(BinaryReader* reader) {
  const bool use_key = reader->ReadInt32() != 0;
  const bool use_value = reader->ReadInt32() != 0;
  const int window = reader->ReadInt32();
  const int session_field = reader->ReadInt32();
  const int max_correlations = reader->ReadInt32();
  if (!reader->ok() || use_key != options_.use_key_correlation ||
      use_value != options_.use_value_correlation ||
      window != options_.value_correlation_window ||
      session_field != options_.session_field ||
      max_correlations != options_.max_value_correlations) {
    return false;
  }

  const int next_index = reader->ReadInt32();
  if (!reader->ok() || next_index < 0) return false;

  // Staged into the tracker's own resource; committed by a pointer swap.
  auto staged = std::make_unique<State>(memory_);
  // A key listed twice in either list is corruption.
  const int32_t num_keys = reader->ReadCount(kMinTaggedValueBytes);
  staged->keys.Reserve(num_keys);
  for (int32_t i = 0; i < num_keys && reader->ok(); ++i) {
    KeyRecord& record = staged->records[staged->Upsert(reader->ReadInt32())];
    if (record.has_items || !ReadItems(reader, next_index, &record.items)) {
      return false;
    }
    record.has_items = true;
  }

  const int32_t num_sessions = reader->ReadCount(kMinTaggedValueBytes);
  for (int32_t i = 0; i < num_sessions && reader->ok(); ++i) {
    KeyRecord& record = staged->records[staged->Upsert(reader->ReadInt32())];
    if (record.has_session ||
        !ReadSession(reader, next_index, &record.session)) {
      return false;
    }
    record.has_session = true;
  }
  if (!reader->ok() || !RebuildValueIndex(staged.get())) return false;

  next_index_ = next_index;
  state_ = std::move(staged);
  return true;
}

void CorrelationTracker::SnapshotDelta(
    BinaryWriter* writer, const std::vector<int>& dirty_sorted) const {
  writer->WriteInt32(next_index_);
  // Only dirty keys that actually carry tracker state are serialised (a
  // key can be dirtied by a force-close without ever reaching the
  // tracker's records in this window). Each key is looked up once, and
  // the count goes in front once the records are written.
  const size_t count_at = writer->WriteInt32Placeholder();
  int32_t count = 0;
  for (int key : dirty_sorted) {
    const int32_t id = FindKey(key);
    if (id < 0) continue;
    const KeyRecord& record = state_->records[id];
    ++count;
    writer->WriteInt32(key);
    writer->WriteInt32(record.has_items ? 1 : 0);
    if (record.has_items) WriteItems(writer, record.items);
    writer->WriteInt32(record.has_session ? 1 : 0);
    if (record.has_session) WriteSession(writer, record.session);
  }
  writer->PatchInt32(count_at, count);
}

bool CorrelationTracker::ApplyDelta(BinaryReader* reader,
                                    int expected_next_index) {
  const int next_index = reader->ReadInt32();
  if (!reader->ok() || next_index < next_index_ ||
      (expected_next_index >= 0 && next_index != expected_next_index)) {
    return false;
  }
  const int32_t num_keys = reader->ReadCount(kMinTaggedValueBytes);
  int prev_key = -1;
  bool first = true;
  for (int32_t i = 0; i < num_keys && reader->ok(); ++i) {
    const int key = reader->ReadInt32();
    if (!reader->ok() || (!first && key <= prev_key)) return false;
    first = false;
    prev_key = key;

    // A record is created only for a key the delta carries a list for.
    if (reader->ReadInt32() != 0) {
      KeyRecord& record = state_->records[state_->Upsert(key)];
      if (!ReadItems(reader, next_index, &record.items)) return false;
      record.has_items = true;
    }
    if (reader->ReadInt32() != 0) {
      KeyRecord& record = state_->records[state_->Upsert(key)];
      if (!ReadSession(reader, next_index, &record.session)) {
        return false;
      }
      record.has_session = true;
    }
  }
  // The upserts moved sessions between values and recency positions:
  // relink every list from the final state.
  if (!reader->ok() || !RebuildValueIndex(state_.get())) return false;
  next_index_ = next_index;
  return true;
}

EpisodeMask BuildEpisodeMask(const TangledSequence& episode,
                             const CorrelationOptions& options) {
  const int total = static_cast<int>(episode.items.size());
  KVEC_CHECK_GT(total, 0);
  EpisodeMask result;
  result.mask = Tensor::Full(total, total, ops::kNegInf);
  result.visible.resize(total);
  CorrelationTracker tracker(options);
  for (int i = 0; i < total; ++i) {
    result.visible[i] = tracker.ObserveItem(episode.items[i]);
    result.mask.Set(i, i, 0.0f);  // M_ii = 0
    for (int j : result.visible[i]) {
      KVEC_DCHECK(j < i);
      result.mask.Set(i, j, 0.0f);
    }
  }
  return result;
}

}  // namespace kvec
