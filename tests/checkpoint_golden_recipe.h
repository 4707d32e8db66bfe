// The fixed recipe behind the committed serving-checkpoint goldens
// (tests/data/stream_server_v1.ckpt and the v2 and v3 chains
// stream_server_v{2,3}_base.ckpt{,.delta.1}): a tiny untrained model, the
// per-server bounds, and the item stream. It must never change, or the
// committed bytes stop matching it.
#pragma once

#include "core/model.h"
#include "core/stream_server.h"
#include "data/types.h"

namespace kvec {
namespace golden {

inline KvecModel MakeModel() {
  DatasetSpec spec;
  spec.name = "golden";
  spec.value_fields = {{"field", 8}};
  spec.num_classes = 2;
  spec.max_keys_per_episode = 64;
  spec.max_sequence_length = 64;
  spec.max_episode_length = 64;
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 8;
  config.state_dim = 8;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 8;
  config.correlation.value_correlation_window = 16;
  config.correlation.max_value_correlations = 4;
  return KvecModel(config);
}

inline StreamServerConfig ServerConfig() {
  StreamServerConfig config;
  config.max_window_items = 64;
  config.idle_timeout = 40;
  config.idle_check_interval = 8;
  config.max_open_keys = 12;
  return config;
}

// Item `i` of the stream. The v1 golden holds items 0..119; each delta
// chain's base is cut at item 120 and its delta.1 carries items 120..179.
inline Item StreamItem(int i) {
  Item item;
  item.key = i % 23;
  item.value = {i % 3};
  item.time = i;
  return item;
}

}  // namespace golden
}  // namespace kvec
