#include "core/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

KvrlEncoder::KvrlEncoder(const KvecConfig& config, Rng& rng)
    : config_(config), input_(config, rng) {
  KVEC_CHECK_GT(config.num_blocks, 0);
  blocks_.reserve(config.num_blocks);
  for (int i = 0; i < config.num_blocks; ++i) {
    blocks_.emplace_back(config.embed_dim, config.ffn_hidden_dim,
                         config.dropout, rng, config.num_heads);
  }
}

EncodeResult KvrlEncoder::Forward(const TangledSequence& episode,
                                  const EpisodeIndex& index, Rng& rng,
                                  bool training) const {
  EncodeResult result;
  result.mask = BuildEpisodeMask(episode, config_.correlation);
  Tensor h = input_.Forward(episode, index);
  result.attention_weights.reserve(blocks_.size());
  for (const AttentionBlock& block : blocks_) {
    AttentionResult block_result =
        block.Forward(h, result.mask.mask, rng, training);
    h = block_result.output;
    result.attention_weights.push_back(block_result.weights);
  }
  result.embeddings = h;
  return result;
}

void KvrlEncoder::CollectParameters(std::vector<Tensor>* out) {
  input_.CollectParameters(out);
  for (AttentionBlock& block : blocks_) block.CollectParameters(out);
}

// ---- IncrementalEncoder --------------------------------------------------

IncrementalEncoder::IncrementalEncoder(const KvrlEncoder& encoder)
    : encoder_(encoder),
      dim_(encoder.config().embed_dim),
      head_dim_(encoder.blocks().front().attention().head_dim()),
      num_heads_(encoder.blocks().front().attention().num_heads()) {
  for (const AttentionBlock& block : encoder.blocks()) {
    max_ffn_dim_ = std::max(max_ffn_dim_, block.ffn().first().weight().cols());
  }
}

float* IncrementalEncoder::KeyPanel(int block, int head) {
  const size_t block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
  return arena_.data() + block * block_stride +
         static_cast<size_t>(head) * capacity_ * head_dim_;
}

float* IncrementalEncoder::ValuePanel(int block, int head) {
  const size_t block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
  return arena_.data() + block * block_stride +
         static_cast<size_t>(capacity_) * dim_ +
         static_cast<size_t>(head) * capacity_ * head_dim_;
}

void IncrementalEncoder::AdoptArena(IncrementalEncoder* retiring) {
  KVEC_CHECK_EQ(num_items_, 0);
  KVEC_CHECK(&encoder_ == &retiring->encoder_);
  arena_ = std::move(retiring->arena_);
  capacity_ = retiring->capacity_;
  retiring->arena_ = std::vector<float>();
  retiring->capacity_ = 0;
  retiring->num_items_ = 0;
}

void IncrementalEncoder::EnsureCapacity(int min_items) {
  if (capacity_ >= min_items) return;
  int new_capacity = std::max(capacity_ * 2, 64);
  while (new_capacity < min_items) new_capacity *= 2;
  const int num_blocks = static_cast<int>(encoder_.blocks().size());
  std::vector<float> fresh(ArenaFloats(new_capacity));
  if (num_items_ > 0) {
    // Move the live [num_items_, head_dim] panels into the new layout.
    const size_t old_block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
    const size_t new_block_stride =
        2 * static_cast<size_t>(new_capacity) * dim_;
    const size_t live = static_cast<size_t>(num_items_) * head_dim_;
    for (int b = 0; b < num_blocks; ++b) {
      for (int h = 0; h < num_heads_; ++h) {
        // Keys.
        std::memcpy(fresh.data() + b * new_block_stride +
                        static_cast<size_t>(h) * new_capacity * head_dim_,
                    arena_.data() + b * old_block_stride +
                        static_cast<size_t>(h) * capacity_ * head_dim_,
                    live * sizeof(float));
        // Values.
        std::memcpy(fresh.data() + b * new_block_stride +
                        static_cast<size_t>(new_capacity) * dim_ +
                        static_cast<size_t>(h) * new_capacity * head_dim_,
                    arena_.data() + b * old_block_stride +
                        static_cast<size_t>(capacity_) * dim_ +
                        static_cast<size_t>(h) * capacity_ * head_dim_,
                    live * sizeof(float));
      }
    }
  }
  arena_ = std::move(fresh);
  capacity_ = new_capacity;
}

void IncrementalEncoder::ScatterKv(int block, int t, const float* k,
                                   const float* v) {
  for (int h = 0; h < num_heads_; ++h) {
    std::memcpy(KeyPanel(block, h) + static_cast<size_t>(t) * head_dim_,
                k + h * head_dim_, head_dim_ * sizeof(float));
    std::memcpy(ValuePanel(block, h) + static_cast<size_t>(t) * head_dim_,
                v + h * head_dim_, head_dim_ * sizeof(float));
  }
}

void IncrementalEncoder::LayerNormRow(const Tensor& gamma, const Tensor& beta,
                                      float* x, int n) {
  float mean = 0.0f;
  for (int i = 0; i < n; ++i) mean += x[i];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (int i = 0; i < n; ++i) var += (x[i] - mean) * (x[i] - mean);
  var /= static_cast<float>(n);
  const float inv_std = 1.0f / std::sqrt(var + 1e-5f);
  const float* g = gamma.data().data();
  const float* be = beta.data().data();
  for (int i = 0; i < n; ++i) {
    x[i] = g[i] * (x[i] - mean) * inv_std + be[i];
  }
}

void IncrementalEncoder::AttendRow(int block, const float* q,
                                   const std::vector<int>& targets,
                                   float* out) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const size_t count = targets.size();
  if (scores_.size() < count) scores_.resize(count);
  // Per head: the K/V panels are contiguous [t, head_dim] blocks, so each
  // gathered row is one sequential head_dim-long read.
  for (int head = 0; head < num_heads_; ++head) {
    const float* kp = KeyPanel(block, head);
    const float* vp = ValuePanel(block, head);
    const float* qh = q + head * head_dim_;
    kernels::GatherDots(qh, kp, targets.data(), static_cast<int>(count),
                        head_dim_, scores_.data());
    float max_score = -1e30f;
    for (size_t s = 0; s < count; ++s) {
      scores_[s] *= scale;
      max_score = std::max(max_score, scores_[s]);
    }
    float total = 0.0f;
    for (size_t s = 0; s < count; ++s) {
      scores_[s] = std::exp(scores_[s] - max_score);
      total += scores_[s];
    }
    for (size_t s = 0; s < count; ++s) scores_[s] /= total;
    kernels::GatherWeightedSum(scores_.data(), vp, targets.data(),
                               static_cast<int>(count), head_dim_,
                               out + head * head_dim_);
  }
}

void IncrementalEncoder::WriteGeometry(BinaryWriter* writer) const {
  writer->WriteInt32(dim_);
  writer->WriteInt32(head_dim_);
  writer->WriteInt32(num_heads_);
  writer->WriteInt32(static_cast<int>(encoder_.blocks().size()));
}

bool IncrementalEncoder::ReadGeometry(BinaryReader* reader) const {
  const int dim = reader->ReadInt32();
  const int head_dim = reader->ReadInt32();
  const int num_heads = reader->ReadInt32();
  const int blocks = reader->ReadInt32();
  return reader->ok() && dim == dim_ && head_dim == head_dim_ &&
         num_heads == num_heads_ &&
         blocks == static_cast<int>(encoder_.blocks().size());
}

void IncrementalEncoder::WritePanels(BinaryWriter* writer, int from) const {
  KVEC_DCHECK(from >= 0 && from <= num_items_);
  const int num_blocks = static_cast<int>(encoder_.blocks().size());
  const size_t skip = static_cast<size_t>(from) * head_dim_;
  const size_t rows = static_cast<size_t>(num_items_ - from) * head_dim_;
  const size_t block_stride = 2 * static_cast<size_t>(capacity_) * dim_;
  for (int b = 0; b < num_blocks; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      const float* keys = arena_.data() + b * block_stride +
                          static_cast<size_t>(h) * capacity_ * head_dim_;
      const float* values = keys + static_cast<size_t>(capacity_) * dim_;
      writer->WriteFloats(keys + skip, rows);
      writer->WriteFloats(values + skip, rows);
    }
  }
}

bool IncrementalEncoder::ReadPanels(BinaryReader* reader, int from, int to) {
  // Stage all panels before touching the arena: a truncated stream must not
  // leave a half-restored cache behind.
  const int num_blocks = static_cast<int>(encoder_.blocks().size());
  const size_t rows = static_cast<size_t>(to - from) * head_dim_;
  std::vector<std::vector<float>> panels;
  panels.reserve(static_cast<size_t>(num_blocks) * num_heads_ * 2);
  for (int i = 0; i < num_blocks * num_heads_ * 2; ++i) {
    panels.push_back(reader->ReadFloatVector());
    if (!reader->ok() || panels.back().size() != rows) return false;
  }

  if (to > 0) EnsureCapacity(to);
  const size_t skip = static_cast<size_t>(from) * head_dim_;
  size_t next = 0;
  for (int b = 0; b < num_blocks; ++b) {
    for (int h = 0; h < num_heads_; ++h) {
      if (rows > 0) {
        std::memcpy(KeyPanel(b, h) + skip, panels[next].data(),
                    rows * sizeof(float));
        std::memcpy(ValuePanel(b, h) + skip, panels[next + 1].data(),
                    rows * sizeof(float));
      }
      next += 2;
    }
  }
  num_items_ = to;
  return true;
}

void IncrementalEncoder::Snapshot(BinaryWriter* writer) const {
  WriteGeometry(writer);
  writer->WriteInt32(num_items_);
  WritePanels(writer, 0);
}

bool IncrementalEncoder::Restore(BinaryReader* reader, int expected_items) {
  if (!ReadGeometry(reader)) return false;
  const int num_items = reader->ReadInt32();
  if (!reader->ok() || num_items < 0 ||
      (expected_items >= 0 && num_items != expected_items)) {
    return false;
  }
  return ReadPanels(reader, 0, num_items);
}

void IncrementalEncoder::SnapshotTail(BinaryWriter* writer,
                                      int base_items) const {
  WriteGeometry(writer);
  writer->WriteInt32(base_items);
  writer->WriteInt32(num_items_);
  WritePanels(writer, base_items);
}

bool IncrementalEncoder::RestoreTail(BinaryReader* reader,
                                     int expected_items) {
  if (!ReadGeometry(reader)) return false;
  const int base_items = reader->ReadInt32();
  const int num_items = reader->ReadInt32();
  if (!reader->ok() || base_items != num_items_ || num_items < base_items ||
      (expected_items >= 0 && num_items != expected_items)) {
    return false;
  }
  return ReadPanels(reader, base_items, num_items);
}

std::vector<float> IncrementalEncoder::AppendItem(
    const Item& item, int position_in_key, const std::vector<int>& visible) {
  std::vector<float> row;
  AppendBatch(&item, &position_in_key, &visible, 1, &row);
  return row;
}

void IncrementalEncoder::AppendBatch(const Item* items,
                                     const int* positions_in_key,
                                     const std::vector<int>* visibles,
                                     int batch, std::vector<float>* rows,
                                     const uint8_t* needed) {
  KVEC_CHECK_GT(batch, 0);
  const int t0 = num_items_;
  EnsureCapacity(t0 + batch);
  num_items_ = t0 + batch;
  const int d = dim_;
  const size_t panel = static_cast<size_t>(batch) * d;
  const int num_blocks = static_cast<int>(encoder_.blocks().size());

  // All batch panels are bump allocations from the per-engine scratch
  // arena; nothing here survives the call (the owner also calls
  // ResetScratch() after the microbatch drains).
  scratch_.Reset();

  float* x = scratch_.AllocArray<float>(panel);
  float* q = scratch_.AllocArray<float>(panel);
  float* k = scratch_.AllocArray<float>(panel);
  float* v = scratch_.AllocArray<float>(panel);
  float* att_panel = scratch_.AllocArray<float>(panel);
  float* mixed_panel = scratch_.AllocArray<float>(panel);
  float* h = scratch_.AllocArray<float>(panel);
  float* hidden = scratch_.AllocArray<float>(
      static_cast<size_t>(batch) * max_ffn_dim_);
  float* f = scratch_.AllocArray<float>(panel);
  // The batch indices of the needed rows, ascending.
  int* kept = scratch_.AllocArray<int>(static_cast<size_t>(batch));
  int num_kept = 0;
  for (int i = 0; i < batch; ++i) {
    if (needed == nullptr || needed[i] != 0) kept[num_kept++] = i;
  }

  // ---- Input embedding rows, stacked into X [batch, d]. ----
  std::fill(x, x + panel, 0.0f);
  for (int i = 0; i < batch; ++i) {
    encoder_.input_embedding().AccumulateItemRow(
        items[i], positions_in_key[i], t0 + i, x + static_cast<size_t>(i) * d);
  }

  // ---- Attention blocks: one GemmNN per projection per block; attention
  // gathers and layer norms stay per-row. ----
  for (int b = 0; b < num_blocks; ++b) {
    const AttentionBlock& block = encoder_.blocks()[b];
    const MaskedSelfAttention& attention = block.attention();
    kernels::GemmNN(x, attention.key().weight().data().data(), k, batch, d, d,
                    /*accumulate=*/false);
    kernels::GemmNN(x, attention.value().weight().data().data(), v, batch, d,
                    d, /*accumulate=*/false);
    // Cache every row before any attention runs: later batch items may have
    // earlier ones in their visible sets.
    for (int i = 0; i < batch; ++i) {
      ScatterKv(b, t0 + i, k + static_cast<size_t>(i) * d,
                v + static_cast<size_t>(i) * d);
    }

    // The rows this block carries past its K/V: every row feeds the next
    // block's K/V, but the final block only serves the needed rows, which
    // it gathers into the compact panel `in` (h, free until the residual).
    const int m = b + 1 == num_blocks ? num_kept : batch;
    if (m == 0) break;
    const auto item_of = [&](int row) { return m == batch ? row : kept[row]; };
    const float* in = x;
    if (m < batch) {
      for (int row = 0; row < m; ++row) {
        std::memcpy(h + static_cast<size_t>(row) * d,
                    x + static_cast<size_t>(kept[row]) * d, d * sizeof(float));
      }
      in = h;
    }
    const size_t rows_panel = static_cast<size_t>(m) * d;

    kernels::GemmNN(in, attention.query().weight().data().data(), q, m, d, d,
                    /*accumulate=*/false);
    float* att = att_panel;
    for (int row = 0; row < m; ++row) {
      const int i = item_of(row);
      targets_.assign(visibles[i].begin(), visibles[i].end());
      targets_.push_back(t0 + i);
      AttendRow(b, q + static_cast<size_t>(row) * d, targets_,
                att + static_cast<size_t>(row) * d);
    }
    if (attention.output_projection() != nullptr) {
      kernels::GemmNN(att, attention.output_projection()->weight().data().data(),
                      mixed_panel, m, d, d, /*accumulate=*/false);
      att = mixed_panel;
    }

    // Residual + LN, FFN (batched GEMMs), residual + LN.
    for (size_t e = 0; e < rows_panel; ++e) h[e] = in[e] + att[e];
    for (int row = 0; row < m; ++row) {
      LayerNormRow(block.norm_attention().gamma(),
                   block.norm_attention().beta(),
                   h + static_cast<size_t>(row) * d, d);
    }

    const Linear& ffn1 = block.ffn().first();
    const Linear& ffn2 = block.ffn().second();
    const int ffn_dim = ffn1.weight().cols();
    const size_t hidden_panel = static_cast<size_t>(m) * ffn_dim;
    kernels::GemmNN(h, ffn1.weight().data().data(), hidden, m, d, ffn_dim,
                    /*accumulate=*/false);
    if (ffn1.bias().defined()) {
      kernels::AddBiasRows(hidden, ffn1.bias().data().data(), m, ffn_dim);
    }
    for (size_t e = 0; e < hidden_panel; ++e) {
      hidden[e] = hidden[e] > 0.0f ? hidden[e] : 0.0f;
    }
    kernels::GemmNN(hidden, ffn2.weight().data().data(), f, m, ffn_dim, d,
                    /*accumulate=*/false);
    if (ffn2.bias().defined()) {
      kernels::AddBiasRows(f, ffn2.bias().data().data(), m, d);
    }
    for (size_t e = 0; e < rows_panel; ++e) f[e] += h[e];
    for (int row = 0; row < m; ++row) {
      LayerNormRow(block.norm_ffn().gamma(), block.norm_ffn().beta(),
                   f + static_cast<size_t>(row) * d, d);
    }

    // The block's output panel is the next block's input panel.
    std::swap(x, f);
  }

  // After the final block x holds the kept rows, compacted.
  rows->assign(panel, 0.0f);
  for (int row = 0; row < num_kept; ++row) {
    std::memcpy(rows->data() + static_cast<size_t>(kept[row]) * d,
                x + static_cast<size_t>(row) * d, d * sizeof(float));
  }
}

}  // namespace kvec
