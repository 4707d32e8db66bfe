#include "core/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace kvec {
namespace {

TrafficGeneratorConfig SmallTraffic() {
  TrafficGeneratorConfig config;
  config.num_classes = 3;
  config.concurrency = 3;
  config.avg_flow_length = 10.0;
  config.min_flow_length = 4;
  return config;
}

KvecConfig SmallConfig(const DatasetSpec& spec) {
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 12;
  config.num_blocks = 2;
  config.ffn_hidden_dim = 16;
  config.dropout = 0.0f;
  return config;
}

TEST(KvrlEncoderTest, OutputShapes) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(1);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  Rng init_rng(2);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(3);
  EncodeResult result = encoder.Forward(
      episode, EpisodeIndex::Build(episode), fwd_rng, /*training=*/false);
  const int total = static_cast<int>(episode.items.size());
  EXPECT_EQ(result.embeddings.rows(), total);
  EXPECT_EQ(result.embeddings.cols(), 12);
  ASSERT_EQ(result.attention_weights.size(), 2u);
  EXPECT_EQ(result.attention_weights[0].rows(), total);
}

TEST(KvrlEncoderTest, AttentionRespectsMask) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(4);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  Rng init_rng(5);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(6);
  EncodeResult result = encoder.Forward(
      episode, EpisodeIndex::Build(episode), fwd_rng, /*training=*/false);
  const int total = static_cast<int>(episode.items.size());
  for (const Tensor& weights : result.attention_weights) {
    for (int i = 0; i < total; ++i) {
      for (int j = 0; j < total; ++j) {
        if (result.mask.mask.At(i, j) != 0.0f) {
          EXPECT_EQ(weights.At(i, j), 0.0f);
        }
      }
    }
  }
}

TEST(KvrlEncoderTest, PrefixConsistency) {
  // Row t of the full encoding equals row t of encoding the t+1-prefix:
  // the causal-mask property enabling one-pass training (DESIGN.md §4.1).
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(7);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  Rng init_rng(8);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(9);
  EpisodeIndex index = EpisodeIndex::Build(episode);
  EncodeResult full = encoder.Forward(episode, index, fwd_rng, false);

  // Prefix of 60% of the episode.
  const int prefix_length = static_cast<int>(episode.items.size() * 6 / 10);
  TangledSequence prefix;
  prefix.labels = episode.labels;
  prefix.items.assign(episode.items.begin(),
                      episode.items.begin() + prefix_length);
  EncodeResult partial =
      encoder.Forward(prefix, EpisodeIndex::Build(prefix), fwd_rng, false);
  for (int t = 0; t < prefix_length; ++t) {
    for (int c = 0; c < config.embed_dim; ++c) {
      EXPECT_NEAR(full.embeddings.At(t, c), partial.embeddings.At(t, c),
                  1e-3f)
          << "row " << t << " col " << c;
    }
  }
}

TEST(IncrementalEncoderTest, MatchesBatchEncoder) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(10);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  Rng init_rng(11);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(12);
  EpisodeIndex index = EpisodeIndex::Build(episode);
  EncodeResult batch = encoder.Forward(episode, index, fwd_rng, false);

  IncrementalEncoder incremental(encoder);
  CorrelationTracker tracker(config.correlation);
  for (size_t t = 0; t < episode.items.size(); ++t) {
    std::vector<int> visible = tracker.ObserveItem(episode.items[t]);
    std::vector<float> row = incremental.AppendItem(
        episode.items[t], index.position_in_key[t], visible);
    for (int c = 0; c < config.embed_dim; ++c) {
      ASSERT_NEAR(row[c], batch.embeddings.At(static_cast<int>(t), c), 2e-3f)
          << "item " << t << " col " << c;
    }
  }
}

TEST(IncrementalEncoderTest, MatchesBatchUnderAblations) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(13);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  config.correlation.use_value_correlation = false;
  config.use_membership_embedding = false;
  Rng init_rng(14);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(15);
  EpisodeIndex index = EpisodeIndex::Build(episode);
  EncodeResult batch = encoder.Forward(episode, index, fwd_rng, false);

  IncrementalEncoder incremental(encoder);
  CorrelationTracker tracker(config.correlation);
  for (size_t t = 0; t < episode.items.size(); ++t) {
    std::vector<int> visible = tracker.ObserveItem(episode.items[t]);
    std::vector<float> row = incremental.AppendItem(
        episode.items[t], index.position_in_key[t], visible);
    for (int c = 0; c < config.embed_dim; ++c) {
      ASSERT_NEAR(row[c], batch.embeddings.At(static_cast<int>(t), c), 2e-3f);
    }
  }
}

TEST(IncrementalEncoderTest, MatchesBatchWithMultipleHeads) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(30);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  config.num_heads = 3;  // embed_dim 12 -> head_dim 4
  Rng init_rng(31);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(32);
  EpisodeIndex index = EpisodeIndex::Build(episode);
  EncodeResult batch = encoder.Forward(episode, index, fwd_rng, false);

  IncrementalEncoder incremental(encoder);
  CorrelationTracker tracker(config.correlation);
  for (size_t t = 0; t < episode.items.size(); ++t) {
    std::vector<int> visible = tracker.ObserveItem(episode.items[t]);
    std::vector<float> row = incremental.AppendItem(
        episode.items[t], index.position_in_key[t], visible);
    for (int c = 0; c < config.embed_dim; ++c) {
      ASSERT_NEAR(row[c], batch.embeddings.At(static_cast<int>(t), c), 2e-3f)
          << "item " << t << " col " << c;
    }
  }
}

TEST(KvrlEncoderTest, MultiHeadPrefixConsistency) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(33);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  config.num_heads = 2;
  Rng init_rng(34);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(35);
  EpisodeIndex index = EpisodeIndex::Build(episode);
  EncodeResult full = encoder.Forward(episode, index, fwd_rng, false);
  const int prefix_length = static_cast<int>(episode.items.size() / 2);
  TangledSequence prefix;
  prefix.labels = episode.labels;
  prefix.items.assign(episode.items.begin(),
                      episode.items.begin() + prefix_length);
  EncodeResult partial =
      encoder.Forward(prefix, EpisodeIndex::Build(prefix), fwd_rng, false);
  for (int t = 0; t < prefix_length; ++t) {
    for (int c = 0; c < config.embed_dim; ++c) {
      EXPECT_NEAR(full.embeddings.At(t, c), partial.embeddings.At(t, c),
                  1e-3f);
    }
  }
}

TEST(KvrlEncoderTest, GradientsReachAllParameters) {
  TrafficGenerator generator(SmallTraffic());
  Rng data_rng(16);
  TangledSequence episode = generator.GenerateEpisode(data_rng);
  KvecConfig config = SmallConfig(generator.spec());
  config.num_blocks = 1;
  Rng init_rng(17);
  KvrlEncoder encoder(config, init_rng);
  Rng fwd_rng(18);
  encoder.ZeroGrad();
  ops::SumAll(encoder
                  .Forward(episode, EpisodeIndex::Build(episode), fwd_rng,
                           /*training=*/false)
                  .embeddings)
      .Backward();
  int params_with_grad = 0, params_total = 0;
  for (const Tensor& param : encoder.Parameters()) {
    ++params_total;
    float total = 0.0f;
    for (float g : param.grad()) total += std::fabs(g);
    if (total > 0.0f) ++params_with_grad;
  }
  // All but possibly unused ablation tables receive gradient.
  EXPECT_GE(params_with_grad, params_total - 2);
}

#if defined(__AVX512F__) && defined(KVEC_RELEASE_BUILD) && \
    !defined(__SANITIZE_ADDRESS__)
// Final-block rows of a fixed two-block encoder (d = 16) for the stream
// items that attend to 1, 17 and 100 targets, appended as batches of 64
// and 36. The expected floats came from the Release build whose attention
// row called kernels::Dot per target and summed the values through memory,
// so any other reduction order in the gather changes a bit.
std::vector<std::vector<float>> PinnedAttentionRows(int num_heads) {
  TrafficGenerator generator(SmallTraffic());
  KvecConfig config = SmallConfig(generator.spec());
  config.embed_dim = 16;
  config.num_heads = num_heads;
  Rng init_rng(21);
  KvrlEncoder encoder(config, init_rng);

  constexpr int kItems = 100;
  Rng data_rng(22);
  std::vector<Item> items;
  while (static_cast<int>(items.size()) < kItems) {
    TangledSequence episode = generator.GenerateEpisode(data_rng);
    items.insert(items.end(), episode.items.begin(), episode.items.end());
  }
  items.resize(kItems);
  std::vector<int> positions(kItems);
  std::map<int, int> seen;
  std::vector<std::vector<int>> visibles(kItems);
  for (int i = 0; i < kItems; ++i) {
    positions[i] = seen[items[i].key]++;
    // Item 0 attends to itself; items 16 and 99 to every earlier item
    // (17 and 100 targets); the rest to their predecessor.
    const int first = i == 16 || i == 99 ? 0 : std::max(0, i - 1);
    for (int j = first; j < i; ++j) visibles[i].push_back(j);
  }

  IncrementalEncoder incremental(encoder);
  std::vector<float> first_rows, second_rows;
  incremental.AppendBatch(items.data(), positions.data(), visibles.data(), 64,
                          &first_rows);
  incremental.AppendBatch(items.data() + 64, positions.data() + 64,
                          visibles.data() + 64, kItems - 64, &second_rows);
  const auto row = [&](const std::vector<float>& rows, int i) {
    return std::vector<float>(rows.begin() + i * 16,
                              rows.begin() + (i + 1) * 16);
  };
  return {row(first_rows, 0), row(first_rows, 16), row(second_rows, 35)};
}

void ExpectPinnedRows(const std::vector<std::vector<float>>& got,
                      const std::vector<std::vector<float>>& want) {
  std::ostringstream actual;
  actual << std::hexfloat;
  for (const std::vector<float>& row : got) {
    actual << "{";
    for (float v : row) actual << v << "f, ";
    actual << "},\n";
  }
  ASSERT_EQ(got.size(), want.size()) << actual.str();
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << actual.str();
    for (size_t c = 0; c < got[r].size(); ++c) {
      uint32_t got_bits, want_bits;
      std::memcpy(&got_bits, &got[r][c], sizeof(got_bits));
      std::memcpy(&want_bits, &want[r][c], sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits)
          << "row " << r << " col " << c << "; rows are\n" << actual.str();
    }
  }
}

TEST(IncrementalEncoderTest, AttentionRowsKeepTheirBitsWithOneHead) {
  ExpectPinnedRows(PinnedAttentionRows(1),
                   {{0x1.d28f18p-2f, 0x1.4c416ap-1f, 0x1.54395ap-1f,
                     -0x1.a3bad4p-4f, -0x1.af9722p-1f, 0x1.85997cp+0f,
                     0x1.28bfp+0f, 0x1.6ea5e6p-1f, 0x1.75475ep-2f,
                     -0x1.08eb44p+1f, 0x1.9bdcd4p-1f, -0x1.c36e06p-3f,
                     -0x1.d5236ep+0f, 0x1.975b5ep-2f, -0x1.df30b8p-1f,
                     -0x1.7538cp-1f},
                    {0x1.06c5d4p+0f, -0x1.7ce01cp-1f, 0x1.35e1a4p+0f,
                     0x1.533536p+0f, -0x1.456ccp+0f, -0x1.50e842p-3f,
                     -0x1.aeb0eap-2f, 0x1.190a9ap-2f, 0x1.0382a4p-2f,
                     -0x1.1ab956p-1f, 0x1.6ba75ap-1f, 0x1.57b116p-2f,
                     -0x1.dec2e6p+0f, 0x1.1240eap+0f, 0x1.3deeeep-1f,
                     -0x1.ce32aap+0f},
                    {0x1.9624fap-1f, -0x1.314fdap+0f, 0x1.ec7b66p-6f,
                     -0x1.f13586p-7f, -0x1.e6a818p-4f, 0x1.68f24cp+0f,
                     0x1.4d6e62p-7f, -0x1.4fd0b6p-2f, 0x1.ae4c42p+0f,
                     -0x1.6f143cp-2f, 0x1.aa70b6p-4f, -0x1.9c32c2p-1f,
                     -0x1.154ea8p+1f, 0x1.c7c74ap+0f, -0x1.3b593ep-2f,
                     -0x1.085258p-1f}});
}

TEST(IncrementalEncoderTest, AttentionRowsKeepTheirBitsWithTwoHeads) {
  ExpectPinnedRows(PinnedAttentionRows(2),
                   {{-0x1.d634f6p-2f, 0x1.45d23ap+0f, -0x1.b39332p-1f,
                     0x1.1dcfap+0f, -0x1.d91fecp-1f, 0x1.afb438p-1f,
                     -0x1.46ed28p-8f, -0x1.68226cp+0f, -0x1.843a7ap-1f,
                     -0x1.d58c34p+0f, 0x1.854a5ep+0f, 0x1.8166dep-3f,
                     0x1.03cb34p-6f, -0x1.54e864p-1f, 0x1.b48b7cp-1f,
                     0x1.1825aep+0f},
                    {0x1.e88e5ep-1f, 0x1.1d7e42p-1f, -0x1.ccc08ap-2f,
                     0x1.688c88p+0f, -0x1.da6072p+0f, -0x1.ac9326p-1f,
                     0x1.164046p-3f, 0x1.2fb168p-2f, -0x1.6f5da2p+0f,
                     0x1.4f1e48p-1f, 0x1.ed3b48p-3f, -0x1.d96078p+0f,
                     0x1.423a5cp-1f, -0x1.8c5812p-4f, 0x1.621ccap+0f,
                     0x1.0a9808p-2f},
                    {0x1.9873b2p-1f, 0x1.15f50cp+0f, 0x1.2a4868p-7f,
                     0x1.d468a8p+0f, -0x1.23d6dap-1f, -0x1.378464p-4f,
                     0x1.89132cp-2f, -0x1.73dce2p+0f, 0x1.e05646p-5f,
                     -0x1.1ade66p-2f, -0x1.07cc4ep-1f, -0x1.1a338ep+1f,
                     0x1.f35218p-1f, -0x1.c8ea6ap-2f, -0x1.80b802p-1f,
                     0x1.26ff68p+0f}});
}
#endif

}  // namespace
}  // namespace kvec
