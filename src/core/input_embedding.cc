#include "core/input_embedding.h"

#include <algorithm>
#include <map>

#include "tensor/ops.h"
#include "util/check.h"

namespace kvec {

EpisodeIndex EpisodeIndex::Build(const TangledSequence& episode) {
  EpisodeIndex index;
  index.keys.reserve(episode.items.size());
  index.position_in_key.reserve(episode.items.size());
  std::map<int, int> counts;
  for (const Item& item : episode.items) {
    index.keys.push_back(item.key);
    index.position_in_key.push_back(counts[item.key]++);
  }
  return index;
}

bool ItemFitsEmbedding(const Item& item, const DatasetSpec& spec,
                       bool membership_embedding) {
  if (item.value.size() != spec.value_fields.size()) return false;
  for (size_t field = 0; field < item.value.size(); ++field) {
    if (item.value[field] < 0 ||
        item.value[field] >= spec.value_fields[field].vocab_size) {
      return false;
    }
  }
  return !membership_embedding ||
         std::min(item.key, spec.max_keys_per_episode - 1) >= 0;
}

InputEmbedding::InputEmbedding(const KvecConfig& config, Rng& rng)
    : config_(config),
      membership_embedding_(config.spec.max_keys_per_episode,
                            config.embed_dim, rng),
      position_embedding_(config.spec.max_sequence_length, config.embed_dim,
                          rng),
      time_embedding_(config.spec.max_episode_length, config.embed_dim, rng) {
  value_embeddings_.reserve(config.spec.value_fields.size());
  for (const ValueField& field : config.spec.value_fields) {
    value_embeddings_.emplace_back(field.vocab_size, config.embed_dim, rng);
  }
}

Tensor InputEmbedding::Forward(const TangledSequence& episode,
                               const EpisodeIndex& index) const {
  const int total = static_cast<int>(episode.items.size());
  KVEC_CHECK_GT(total, 0);
  KVEC_CHECK_EQ(index.keys.size(), episode.items.size());

  std::vector<Tensor> terms;
  // Value embeddings: one gather per value field.
  for (size_t field = 0; field < value_embeddings_.size(); ++field) {
    std::vector<int> ids(total);
    for (int i = 0; i < total; ++i) {
      ids[i] = episode.items[i].value[field];
    }
    terms.push_back(value_embeddings_[field].Forward(ids));
  }
  if (config_.use_membership_embedding) {
    std::vector<int> ids(total);
    for (int i = 0; i < total; ++i) {
      ids[i] = std::min(index.keys[i],
                        config_.spec.max_keys_per_episode - 1);
    }
    terms.push_back(membership_embedding_.Forward(ids));
  }
  if (config_.use_time_embeddings) {
    std::vector<int> position_ids(total);
    std::vector<int> time_ids(total);
    for (int i = 0; i < total; ++i) {
      position_ids[i] = std::min(index.position_in_key[i],
                                 config_.spec.max_sequence_length - 1);
      time_ids[i] = std::min(i, config_.spec.max_episode_length - 1);
    }
    terms.push_back(position_embedding_.Forward(position_ids));
    terms.push_back(time_embedding_.Forward(time_ids));
  }
  return ops::AddN(terms);
}

void InputEmbedding::AccumulateItemRow(const Item& item, int position_in_key,
                                       int time_index,
                                       std::vector<float>* row) const {
  KVEC_CHECK_EQ(static_cast<int>(row->size()), config_.embed_dim);
  AccumulateItemRow(item, position_in_key, time_index, row->data());
}

void InputEmbedding::AccumulateItemRow(const Item& item, int position_in_key,
                                       int time_index, float* row) const {
  const int d = config_.embed_dim;
  auto add_table_row = [&](const Embedding& embedding, int id) {
    KVEC_CHECK_GE(id, 0);
    KVEC_CHECK_LT(id, embedding.vocab_size());
    const float* src =
        embedding.table().data().data() + static_cast<size_t>(id) * d;
    for (int c = 0; c < d; ++c) row[c] += src[c];
  };
  for (size_t field = 0; field < value_embeddings_.size(); ++field) {
    add_table_row(value_embeddings_[field], item.value[field]);
  }
  if (config_.use_membership_embedding) {
    add_table_row(membership_embedding_,
                  std::min(item.key, config_.spec.max_keys_per_episode - 1));
  }
  if (config_.use_time_embeddings) {
    add_table_row(position_embedding_,
                  std::min(position_in_key,
                           config_.spec.max_sequence_length - 1));
    add_table_row(time_embedding_,
                  std::min(time_index, config_.spec.max_episode_length - 1));
  }
}

void InputEmbedding::CollectParameters(std::vector<Tensor>* out) {
  for (Embedding& embedding : value_embeddings_) {
    embedding.CollectParameters(out);
  }
  membership_embedding_.CollectParameters(out);
  position_embedding_.CollectParameters(out);
  time_embedding_.CollectParameters(out);
}

}  // namespace kvec
