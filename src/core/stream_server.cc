#include "core/stream_server.h"

#include <algorithm>

#include "tensor/tensor.h"
#include "util/check.h"
#include "util/key_order.h"

namespace kvec {

namespace {

// A window rotation releases a shard pool that holds at least this much.
// Below it, reusing the pool's cached chunks in the next window is
// cheaper than returning them and allocating anew.
constexpr size_t kReleasePoolBytes = size_t{4} << 20;

}  // namespace

void StreamServerStats::Merge(const StreamServerStats& other) {
  items_processed += other.items_processed;
  sequences_classified += other.sequences_classified;
  policy_halts += other.policy_halts;
  idle_timeouts += other.idle_timeouts;
  capacity_evictions += other.capacity_evictions;
  rotation_classifications += other.rotation_classifications;
  flush_classifications += other.flush_classifications;
  windows_started += other.windows_started;
  if (class_counts.size() < other.class_counts.size()) {
    class_counts.resize(other.class_counts.size(), 0);
  }
  for (size_t c = 0; c < other.class_counts.size(); ++c) {
    class_counts[c] += other.class_counts[c];
  }
  items_submitted += other.items_submitted;
  batches_shed += other.batches_shed;
  items_shed += other.items_shed;
  bytes_resident += other.bytes_resident;
  pool_blocks += other.pool_blocks;
  scratch_high_water += other.scratch_high_water;
  compactions += other.compactions;
  items_after_verdict += other.items_after_verdict;
}

StreamServer::StreamServer(const KvecModel& model,
                           const StreamServerConfig& config)
    : model_(model),
      config_(config),
      pool_(std::make_unique<ShardPool>()),
      engine_(std::make_unique<OnlineClassifier>(model, pool_->resource())),
      index_(std::make_unique<KeyIndex>(pool_->resource())) {
  KVEC_CHECK_GT(config_.max_window_items, 0);
  KVEC_CHECK_GT(config_.idle_timeout, 0);
  KVEC_CHECK_GT(config_.idle_check_interval, 0);
  KVEC_CHECK_GT(config_.max_open_keys, 0);
  stats_.class_counts.assign(model.config().spec.num_classes, 0);
}

void StreamServer::RecordEvent(const StreamEvent& event) {
  ++stats_.sequences_classified;
  if (event.predicted_label >= 0 &&
      event.predicted_label < static_cast<int>(stats_.class_counts.size())) {
    ++stats_.class_counts[event.predicted_label];
  }
  switch (event.cause) {
    case StreamEvent::Cause::kPolicyHalt:
      ++stats_.policy_halts;
      break;
    case StreamEvent::Cause::kIdleTimeout:
      ++stats_.idle_timeouts;
      break;
    case StreamEvent::Cause::kCapacityEviction:
      ++stats_.capacity_evictions;
      break;
    case StreamEvent::Cause::kWindowRotation:
      ++stats_.rotation_classifications;
      break;
    case StreamEvent::Cause::kFlush:
      ++stats_.flush_classifications;
      break;
  }
}

void StreamServer::KeyIndex::Unlink(int32_t id) {
  Slot& slot = slots[id];
  (slot.prev != kNone ? slots[slot.prev].next : head) = slot.next;
  (slot.next != kNone ? slots[slot.next].prev : tail) = slot.prev;
  slot.prev = slot.next = kNone;
}

void StreamServer::KeyIndex::Append(int32_t id) {
  Slot& slot = slots[id];
  slot.prev = tail;
  slot.next = kNone;
  (tail != kNone ? slots[tail].next : head) = id;
  tail = id;
}

void StreamServer::KeyIndex::Touch(int32_t id, int key, int64_t last_seen) {
  Slot& slot = slots[id];
  slot.last_seen = last_seen;
  if (id == tail) return;  // a closed slot is never the tail
  if (slot.open) {
    Unlink(id);
  } else {
    slot.open = true;
    slot.key = key;
    ++num_open;
  }
  Append(id);
}

void StreamServer::KeyIndex::Close(int32_t id) {
  if (!slots[id].open) return;
  Unlink(id);
  slots[id].open = false;
  --num_open;
}

bool StreamServer::KeyIndex::Open(const std::vector<OpenKeyRecord>& records,
                                  const OnlineClassifier& engine) {
  slots.resize(engine.num_keys());  // new keys' slots: closed
  for (const auto& [key, last_seen] : records) {
    const int32_t id = engine.FindKey(key);
    if (id < 0) return false;
    Touch(id, key, last_seen);
  }
  // One slot per engine key, open exactly when the key is undecided.
  for (int32_t id = 0; id < engine.num_keys(); ++id) {
    if (slots[id].open != engine.IsUndecidedById(id)) return false;
  }
  if (records.empty()) return true;  // the list order stands
  std::vector<int32_t> ids;
  ids.reserve(num_open);
  for (int32_t id = head; id != kNone; id = slots[id].next) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), [this](int32_t a, int32_t b) {
    return slots[a].last_seen != slots[b].last_seen
               ? slots[a].last_seen < slots[b].last_seen
               : slots[a].key < slots[b].key;
  });
  head = tail = kNone;
  for (int32_t id : ids) Append(id);
  return true;
}

void StreamServer::ForceClose(int32_t id, StreamEvent::Cause cause,
                              std::vector<StreamEvent>* events) {
  // ForceClassify mutates the key's engine state (halted/predicted) and
  // the close drops it from the serving index — both must reach the next
  // delta (as an engine upsert and a tombstone respectively).
  StreamEvent event;
  event.key = index_->slots[id].key;
  event.cause = cause;
  MarkDirty(event.key);
  event.predicted_label = engine_->ForceClassifyById(id, &event.confidence,
                                                     &event.observed_items);
  RecordEvent(event);
  events->push_back(event);
  index_->Close(id);
}

void StreamServer::CloseAllInKeyOrder(StreamEvent::Cause cause,
                                      std::vector<StreamEvent>* events) {
  std::vector<std::pair<int, int32_t>> keys;  // (key, id)
  keys.reserve(index_->num_open);
  for (int32_t id = index_->head; id != KeyIndex::kNone;
       id = index_->slots[id].next) {
    keys.emplace_back(index_->slots[id].key, id);
  }
  SortByIntKey(&keys, [](const auto& entry) { return entry.first; });
  for (const auto& [key, id] : keys) ForceClose(id, cause, events);
}

void StreamServer::RebuildEngine(ShardPool* pool) {
  auto engine = std::make_unique<OnlineClassifier>(model_, pool->resource());
  engine->AdoptEncoderArena(engine_.get());
  engine_ = std::move(engine);
  index_ = std::make_unique<KeyIndex>(pool->resource());
}

void StreamServer::RotateWindow(std::vector<StreamEvent>* events) {
  // Close everything still open under the old engine, then rebuild it.
  CloseAllInKeyOrder(StreamEvent::Cause::kWindowRotation, events);
  if (pool_->bytes_resident() < kReleasePoolBytes) {
    RebuildEngine(pool_.get());
  } else {
    // No key is open, so the next window needs nothing the pool holds.
    // Destruction order matters: the old engine and index (RebuildEngine),
    // then the old pool they allocated from.
    auto pool = std::make_unique<ShardPool>();
    RebuildEngine(pool.get());
    pool_ = std::move(pool);
    ++stats_.compactions;
  }
  window_items_ = 0;
  ++stats_.windows_started;
}

void StreamServer::EvictIdle(std::vector<StreamEvent>* events) {
  // Oldest-first walk of the recency list: stop at the first key still
  // inside its idle window. O(evicted), not O(open keys).
  while (index_->head != KeyIndex::kNone &&
         position_ - index_->slots[index_->head].last_seen >=
             config_.idle_timeout) {
    ForceClose(index_->head, StreamEvent::Cause::kIdleTimeout, events);
  }
}

void StreamServer::Bookkeep(const Item& item, const OnlineDecision& decision,
                            std::vector<StreamEvent>* events) {
  ++position_;
  ++window_items_;
  ++stats_.items_processed;
  // Every observed item mutates its key's engine state (tracker lists,
  // per-key position, fusion step) even when the key is already halted.
  MarkDirty(item.key);

  if (decision.already_halted) {
    // The engine still tracks the item (its visibility matters for other
    // keys), but the key's verdict was already emitted. The idle sweep
    // below must still run: these items advance the clock like any other.
    ++stats_.items_after_verdict;
  } else if (decision.halted_now) {
    index_->Close(decision.id);
    StreamEvent event;
    event.key = item.key;
    event.predicted_label = decision.predicted_label;
    event.observed_items = decision.observed_items;
    event.confidence = decision.confidence;
    event.cause = StreamEvent::Cause::kPolicyHalt;
    RecordEvent(event);
    events->push_back(event);
  } else {
    index_->Touch(decision.id, item.key, position_);
    if (index_->num_open > config_.max_open_keys) {
      // Evict the least recently active key: the head of the recency list.
      ForceClose(index_->head, StreamEvent::Cause::kCapacityEviction, events);
    }
  }

  if (position_ % config_.idle_check_interval == 0) EvictIdle(events);
}

std::vector<StreamEvent> StreamServer::Observe(const Item& item) {
  return ObserveItems(&item, 1);
}

std::vector<StreamEvent> StreamServer::ObserveBatch(
    const std::vector<Item>& items) {
  return ObserveItems(items.data(), static_cast<int>(items.size()));
}

std::vector<StreamEvent> StreamServer::ObserveItems(const Item* items,
                                                    int count) {
  // Belt and braces with OnlineClassifier's own guard: everything the
  // serving loop does (engine steps, forced closes, rotations) runs tapeless.
  InferenceMode inference_guard;
  std::vector<StreamEvent> events;
  const int embed = engine_->embed_dim();
  int begin = 0;
  while (begin < count) {
    if (window_items_ >= config_.max_window_items) RotateWindow(&events);
    // Encode up to the next rotation boundary in one microbatch. Encoding
    // ahead of the per-item bookkeeping below is safe: the tracker and K/V
    // caches depend only on the item stream, and the engine skips a row
    // only for a key already halted when the chunk starts — halts and
    // forced closes during the chunk only add verdicts, so every row
    // DecideObserved reads is computed. Rotations, which do reset the
    // encoder, land exactly on chunk boundaries because the window clock
    // ticks once per item.
    const int chunk =
        std::min(count - begin, config_.max_window_items - window_items_);
    engine_->EncodeBatch(items + begin, chunk, &rows_);
    index_->slots.resize(engine_->num_keys());  // new keys' slots: closed
    for (int i = 0; i < chunk; ++i) {
      const Item& item = items[begin + i];
      OnlineDecision decision = engine_->DecideObserved(
          item.key, rows_.data() + static_cast<size_t>(i) * embed);
      Bookkeep(item, decision, &events);
    }
    // The microbatch is drained: rewind the encoder's scratch arena so a
    // rare giant batch does not pin its high-water reservation forever.
    engine_->ResetEncodeScratch();
    begin += chunk;
  }
  return events;
}

void StreamServer::RefreshMemoryStats() const {
  stats_.bytes_resident = static_cast<int64_t>(pool_->bytes_resident() +
                                               engine_->encoder_resident_bytes());
  stats_.pool_blocks = static_cast<int64_t>(pool_->blocks_resident());
  // High-water over the server's lifetime, not the current engine's — a
  // window rotation replaces the engine (and its scratch arena) wholesale.
  stats_.scratch_high_water =
      std::max(stats_.scratch_high_water,
               static_cast<int64_t>(engine_->scratch_high_water()));
}

const StreamServerStats& StreamServer::stats() const {
  RefreshMemoryStats();
  return stats_;
}

void StreamServer::WriteHeader(BinaryWriter* writer) const {
  writer->WriteInt32(config_.max_window_items);
  writer->WriteInt32(config_.idle_timeout);
  writer->WriteInt32(config_.idle_check_interval);
  writer->WriteInt32(config_.max_open_keys);

  writer->WriteInt64(position_);
  writer->WriteInt32(window_items_);

  writer->WriteInt64(stats_.items_processed);
  writer->WriteInt64(stats_.sequences_classified);
  writer->WriteInt64(stats_.policy_halts);
  writer->WriteInt64(stats_.idle_timeouts);
  writer->WriteInt64(stats_.capacity_evictions);
  writer->WriteInt64(stats_.rotation_classifications);
  writer->WriteInt64(stats_.flush_classifications);
  writer->WriteInt32(stats_.windows_started);
  writer->WriteInt32(static_cast<int32_t>(stats_.class_counts.size()));
  for (int64_t count : stats_.class_counts) writer->WriteInt64(count);
  // The transport-layer counters (items_submitted / batches_shed /
  // items_shed) are intentionally absent: they belong to the sharded
  // ingest layer's process lifetime, not to serving state, and leaving
  // them out keeps the v1 snapshot layout byte-identical.
}

void StreamServer::CopyProcessLocal(const StreamServerStats& from,
                                    StreamServerStats* to) {
  to->compactions = from.compactions;
  to->items_after_verdict = from.items_after_verdict;
  to->scratch_high_water = from.scratch_high_water;
  to->bytes_resident = from.bytes_resident;
  to->pool_blocks = from.pool_blocks;
}

void StreamServer::KeepProcessLocalCounters(const StreamServer& live) {
  // stats() brings live's scratch high-water up to date first. The pool
  // gauges come along, and the next stats() read refreshes them.
  CopyProcessLocal(live.stats(), &stats_);
}

bool StreamServer::ReadHeader(BinaryReader* reader, Header* header) const {
  // The released-pool count, items_after_verdict and the memory gauges
  // are process-local (never serialized; see StreamServerStats): a restore
  // keeps the live values.
  header->config = config_;
  header->config.max_window_items = reader->ReadInt32();
  header->config.idle_timeout = reader->ReadInt32();
  header->config.idle_check_interval = reader->ReadInt32();
  header->config.max_open_keys = reader->ReadInt32();

  header->position = reader->ReadInt64();
  header->window_items = reader->ReadInt32();

  StreamServerStats& stats = header->stats;
  stats.items_processed = reader->ReadInt64();
  stats.sequences_classified = reader->ReadInt64();
  stats.policy_halts = reader->ReadInt64();
  stats.idle_timeouts = reader->ReadInt64();
  stats.capacity_evictions = reader->ReadInt64();
  stats.rotation_classifications = reader->ReadInt64();
  stats.flush_classifications = reader->ReadInt64();
  stats.windows_started = reader->ReadInt32();
  const int32_t num_classes = reader->ReadInt32();
  if (!reader->ok() || num_classes != model_.config().spec.num_classes) {
    return false;
  }
  stats.class_counts.resize(num_classes);
  for (int64_t& count : stats.class_counts) count = reader->ReadInt64();
  CopyProcessLocal(stats_, &stats);
  return reader->ok() && header->position >= 0 && header->window_items >= 0 &&
         header->window_items <= header->config.max_window_items;
}

void StreamServer::WriteOpenKeys(BinaryWriter* writer,
                                 const std::vector<OpenKeyRecord>& records) {
  writer->WriteInt32(static_cast<int32_t>(records.size()));
  for (const auto& [key, last_seen] : records) {
    writer->WriteInt32(key);
    writer->WriteInt64(last_seen);
  }
}

bool StreamServer::ReadOpenKeys(BinaryReader* reader, int64_t position,
                                std::vector<OpenKeyRecord>* records) {
  // A record's last_seen can never be ahead of the stream clock it was
  // written with.
  const int32_t count = reader->ReadCount(kMinTaggedValueBytes);
  records->clear();
  records->reserve(count);
  for (int32_t i = 0; i < count && reader->ok(); ++i) {
    const int key = reader->ReadInt32();
    const int64_t last_seen = reader->ReadInt64();
    // Strictly ascending keys are the canonical encoding: a repeated key
    // is corruption.
    if (last_seen < 0 || last_seen > position ||
        (i > 0 && key <= records->back().first)) {
      return false;
    }
    records->emplace_back(key, last_seen);
  }
  return reader->ok();
}

void StreamServer::Snapshot(BinaryWriter* writer) const {
  WriteHeader(writer);

  // Key-sorted for a canonical byte stream.
  std::vector<OpenKeyRecord> open;
  open.reserve(index_->num_open);
  for (int32_t id = index_->head; id != KeyIndex::kNone;
       id = index_->slots[id].next) {
    open.emplace_back(index_->slots[id].key, index_->slots[id].last_seen);
  }
  SortByIntKey(&open,
               [](const OpenKeyRecord& record) { return record.first; });
  WriteOpenKeys(writer, open);

  // Engine last: Restore stages everything above in temporaries and only
  // builds the (fresh) engine once the bookkeeping sections parsed.
  engine_->Snapshot(writer);
}

bool StreamServer::Restore(BinaryReader* reader) {
  Header header;
  if (!ReadHeader(reader, &header)) return false;
  const StreamServerConfig& config = header.config;
  if (config.max_window_items <= 0 || config.idle_timeout <= 0 ||
      config.idle_check_interval <= 0 || config.max_open_keys <= 0) {
    return false;
  }

  std::vector<OpenKeyRecord> open;
  if (!ReadOpenKeys(reader, header.position, &open) ||
      open.size() > static_cast<size_t>(config.max_open_keys)) {
    return false;
  }
  // Staged into the live shard pool (the pool just grows while the old
  // state still exists; a failed restore leaves only recyclable pool
  // space behind, which the next releasing rotation reclaims). A fresh
  // engine keeps the current one intact if the engine section is the part
  // that turns out to be corrupt; the index is built over its key ids.
  auto engine = std::make_unique<OnlineClassifier>(model_, pool_->resource());
  if (!engine->Restore(reader)) return false;
  auto index = std::make_unique<KeyIndex>(pool_->resource());
  if (!index->Open(open, *engine)) return false;
  // The snapshot is the last thing in its section: bytes after it are
  // corruption the container framing cannot see. Checked before the
  // commit below so a tainted checkpoint leaves *this untouched.
  if (!reader->AtEnd()) return false;

  config_ = config;
  position_ = header.position;
  window_items_ = header.window_items;
  stats_ = std::move(header.stats);
  index_ = std::move(index);
  engine_ = std::move(engine);
  // A full restore invalidates any delta baseline: the restored state is a
  // new world. The chain loader re-arms tracking after its commit.
  dirty_tracking_ = false;
  dirty_keys_ = DirtyKeyMap();
  pending_baseline_ = false;
  return true;
}

void StreamServer::StageDeltaBaseline() {
  pending_epoch_ = dirty_epoch_++;
  pending_engine_items_ = engine_->num_items_observed();
  pending_windows_started_ = stats_.windows_started;
  pending_baseline_ = true;
}

void StreamServer::CommitDeltaBaseline() {
  if (!pending_baseline_) return;
  // Keys re-dirtied after the staged snapshot carry a later epoch and must
  // survive into the next delta; the rest are clean again.
  DirtyKeyMap kept;
  for (const auto& [key, epoch] : dirty_keys_) {
    if (epoch > pending_epoch_) kept[key] = epoch;
  }
  dirty_keys_ = std::move(kept);
  base_engine_items_ = pending_engine_items_;
  base_windows_started_ = pending_windows_started_;
  pending_baseline_ = false;
  dirty_tracking_ = true;
}

void StreamServer::SnapshotDelta(BinaryWriter* writer) {
  StageDeltaBaseline();

  delta_dirty_.clear();
  for (const auto& [key, epoch] : dirty_keys_) delta_dirty_.push_back(key);
  SortIntKeys(&delta_dirty_);

  // The full snapshot's header: the config echo keeps a delta from ever
  // applying to a server with different serving semantics, and the stats
  // travel whole (a handful of scalars; the churn-proportional savings are
  // in the per-key payloads below).
  WriteHeader(writer);

  // When the engine was rebuilt since the base (window rotation), the
  // receiver rebuilds a fresh engine too and the encoder tail starts at 0.
  const bool engine_reset = stats_.windows_started != base_windows_started_;
  writer->WriteInt32(engine_reset ? 1 : 0);
  const int base_items = engine_reset ? 0 : base_engine_items_;

  // Serving-index upserts: dirty keys still open (canonical ascending).
  delta_open_.clear();
  delta_tombstones_.clear();
  for (int key : delta_dirty_) {
    const int32_t id = engine_->FindKey(key);
    if (id >= 0 && index_->slots[id].open) {
      delta_open_.emplace_back(key, index_->slots[id].last_seen);
    } else {
      delta_tombstones_.push_back(key);
    }
  }
  WriteOpenKeys(writer, delta_open_);
  // Tombstones: dirty keys no longer open (closed, evicted, or rotated
  // away since the base).
  writer->WriteInt32(static_cast<int32_t>(delta_tombstones_.size()));
  for (int key : delta_tombstones_) writer->WriteInt32(key);

  engine_->SnapshotDelta(writer, delta_dirty_, base_items);
}

bool StreamServer::ApplyDelta(BinaryReader* reader) {
  Header header;
  if (!ReadHeader(reader, &header)) return false;
  const StreamServerConfig& config = header.config;
  if (config.max_window_items != config_.max_window_items ||
      config.idle_timeout != config_.idle_timeout ||
      config.idle_check_interval != config_.idle_check_interval ||
      config.max_open_keys != config_.max_open_keys ||
      header.position < position_ ||
      header.stats.windows_started < stats_.windows_started) {
    return false;
  }

  const int engine_reset = reader->ReadInt32();
  if (!reader->ok() || (engine_reset != 0 && engine_reset != 1)) return false;

  std::vector<OpenKeyRecord> upserts;
  if (!ReadOpenKeys(reader, header.position, &upserts)) return false;
  // Tombstones close keys of the live index, whose ids stand until the
  // engine is rebuilt. Across a rotation the writer closed every key, so
  // the fresh index below starts empty and they change nothing.
  const int32_t num_tombstones = reader->ReadCount(kMinTaggedValueBytes);
  int prev_key = -1;
  for (int32_t i = 0; i < num_tombstones && reader->ok(); ++i) {
    const int key = reader->ReadInt32();
    // Strictly ascending is the canonical encoding; a duplicate (or
    // reordered) tombstone list is corruption, not a double-close.
    if (!reader->ok() || (i > 0 && key <= prev_key)) return false;
    prev_key = key;
    const int32_t id = engine_->FindKey(key);
    if (id >= 0) index_->Close(id);
  }
  if (!reader->ok()) return false;

  if (engine_reset != 0) {
    // Mirrors RotateWindow on the writer: a fresh engine and index, whose
    // delta then carries the whole young window from item 0. The live
    // pool stays even where the writer released its own: a staged
    // server's pool is new.
    RebuildEngine(pool_.get());
  }
  if (!engine_->ApplyDelta(reader)) return false;
  if (!reader->AtEnd()) return false;

  // The upserts may name keys the engine section just added: they apply
  // once it has assigned their ids.
  if (!index_->Open(upserts, *engine_) ||
      index_->num_open > config_.max_open_keys) {
    return false;
  }

  position_ = header.position;
  window_items_ = header.window_items;
  stats_ = std::move(header.stats);
  return true;
}

std::vector<StreamEvent> StreamServer::Flush() {
  std::vector<StreamEvent> events;
  CloseAllInKeyOrder(StreamEvent::Cause::kFlush, &events);
  return events;
}

}  // namespace kvec
