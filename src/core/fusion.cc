#include "core/fusion.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

EmbeddingFusion::EmbeddingFusion(const KvecConfig& config, Rng& rng)
    : kind_(config.fusion),
      embed_dim_(config.embed_dim),
      state_dim_(config.state_dim) {
  KVEC_CHECK_GT(embed_dim_, 0);
  if (kind_ == KvecConfig::FusionKind::kLstm) {
    KVEC_CHECK_GT(state_dim_, 0);
    lstm_ = std::make_unique<LstmFusionCell>(embed_dim_, state_dim_, rng);
  }
}

int EmbeddingFusion::output_dim() const {
  return kind_ == KvecConfig::FusionKind::kLstm ? state_dim_ : embed_dim_;
}

int EmbeddingFusion::cell_dim() const {
  switch (kind_) {
    case KvecConfig::FusionKind::kLstm:
      return state_dim_;
    case KvecConfig::FusionKind::kMean:
      return embed_dim_;
    case KvecConfig::FusionKind::kSum:
    case KvecConfig::FusionKind::kLast:
      break;
  }
  return 0;
}

int EmbeddingFusion::row_scratch_dim() const {
  return lstm_ != nullptr ? lstm_->row_scratch_dim() : 0;
}

FusionState EmbeddingFusion::InitialState() const {
  FusionState state;
  if (kind_ == KvecConfig::FusionKind::kLstm) {
    LstmState lstm_state = lstm_->InitialState();
    state.hidden = lstm_state.hidden;
    state.cell = lstm_state.cell;
  } else {
    state.hidden = Tensor::Zeros(1, embed_dim_);
    if (kind_ == KvecConfig::FusionKind::kMean) {
      state.cell = Tensor::Zeros(1, embed_dim_);  // running sum
    }
  }
  return state;
}

FusionState EmbeddingFusion::Step(const FusionState& previous,
                                  const Tensor& item_embedding) const {
  KVEC_CHECK(previous.defined());
  KVEC_CHECK_EQ(item_embedding.cols(), embed_dim_);
  FusionState next;
  next.count = previous.count + 1;
  switch (kind_) {
    case KvecConfig::FusionKind::kLstm: {
      LstmState in{previous.hidden, previous.cell};
      LstmState out = lstm_->Step(in, item_embedding);
      next.hidden = out.hidden;
      next.cell = out.cell;
      break;
    }
    case KvecConfig::FusionKind::kSum:
      next.hidden = ops::Add(previous.hidden, item_embedding);
      break;
    case KvecConfig::FusionKind::kMean:
      next.cell = ops::Add(previous.cell, item_embedding);
      next.hidden = ops::Affine(
          next.cell, 1.0f / static_cast<float>(next.count), 0.0f);
      break;
    case KvecConfig::FusionKind::kLast:
      next.hidden = item_embedding;
      break;
  }
  return next;
}

void EmbeddingFusion::StepRow(float* hidden, float* cell, int count,
                              const float* embedding, float* scratch) const {
  switch (kind_) {
    case KvecConfig::FusionKind::kLstm:
      lstm_->StepRow(hidden, cell, embedding, scratch);
      break;
    case KvecConfig::FusionKind::kSum:
      for (int j = 0; j < embed_dim_; ++j) hidden[j] += embedding[j];
      break;
    case KvecConfig::FusionKind::kMean: {
      const float scale = 1.0f / static_cast<float>(count);
      for (int j = 0; j < embed_dim_; ++j) {
        cell[j] += embedding[j];
        hidden[j] = kernels::Affine(cell[j], scale, 0.0f);
      }
      break;
    }
    case KvecConfig::FusionKind::kLast:
      std::copy(embedding, embedding + embed_dim_, hidden);
      break;
  }
}

void EmbeddingFusion::CollectParameters(std::vector<Tensor>* out) {
  if (lstm_ != nullptr) lstm_->CollectParameters(out);
}

}  // namespace kvec
