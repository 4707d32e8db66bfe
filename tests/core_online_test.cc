#include "core/online.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "reference_rollout.h"

namespace kvec {
namespace {

Dataset SmallDataset() {
  TrafficGeneratorConfig config;
  config.num_classes = 2;
  config.concurrency = 3;
  config.avg_flow_length = 10.0;
  config.min_flow_length = 5;
  config.handshake_sharpness = 6.0;
  TrafficGenerator generator(config);
  return GenerateDataset(generator, {10, 1, 3}, /*seed=*/31);
}

KvecConfig SmallModelConfig(const DatasetSpec& spec) {
  KvecConfig config = KvecConfig::ForSpec(spec);
  config.embed_dim = 12;
  config.state_dim = 12;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 3;
  config.seed = 17;
  return config;
}

TEST(OnlineClassifierTest, MatchesBatchEvaluation) {
  // The streaming engine must reproduce the Tensor reference rollout
  // (tests/reference_rollout.h): same halting position, same prediction
  // and the same confidence for every key. The second pass pins π(s) at
  // exactly 0.5 (zero policy weight and bias): Halt iff π(s) > 0.5 is
  // strict, so every key runs to its last item.
  Dataset dataset = SmallDataset();
  KvecConfig config = SmallModelConfig(dataset.spec);
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);

  for (bool pinned_policy : {false, true}) {
    SCOPED_TRACE(pinned_policy ? "policy pinned at 0.5" : "trained policy");
    if (pinned_policy) {
      // MainParameters ends with the policy's weight and bias, then the
      // classifier's weight and bias.
      std::vector<Tensor> params = model.MainParameters();
      for (size_t i = params.size() - 4; i < params.size() - 2; ++i) {
        std::fill(params[i].data().begin(), params[i].data().end(), 0.0f);
      }
    }
    for (const TangledSequence& episode : dataset.test) {
      const std::map<int, reference::Verdict> expected =
          reference::Rollout(model, episode);
      OnlineClassifier online(model);
      std::map<int, int> online_halt, online_pred;
      std::map<int, double> online_confidence;
      for (const Item& item : episode.items) {
        OnlineDecision decision = online.Observe(item);
        if (decision.halted_now) {
          online_halt[item.key] = decision.observed_items;
          online_pred[item.key] = decision.predicted_label;
          online_confidence[item.key] = decision.confidence;
        }
      }
      for (const auto& [key, label] : episode.labels) {
        if (!online.IsHalted(key)) {
          online_pred[key] =
              online.ForceClassify(key, &online_confidence[key]);
          online_halt[key] = episode.KeyLength(key);
        }
      }
      ASSERT_EQ(online_pred.size(), expected.size());
      for (const auto& [key, verdict] : expected) {
        if (pinned_policy) {
          EXPECT_EQ(verdict.observed_items, episode.KeyLength(key));
        }
        EXPECT_EQ(online_halt[key], verdict.observed_items)
            << "halt mismatch for key " << key;
        EXPECT_EQ(online_pred[key], verdict.predicted_label)
            << "prediction mismatch for key " << key;
        EXPECT_NEAR(online_confidence[key], verdict.confidence, 1e-5)
            << "confidence mismatch for key " << key;
      }
    }
  }
}

TEST(OnlineClassifierTest, HaltedKeysIgnoreFurtherItems) {
  Dataset dataset = SmallDataset();
  KvecConfig config = SmallModelConfig(dataset.spec);
  KvecModel model(config);  // untrained is fine for the API contract
  OnlineClassifier online(model);
  const TangledSequence& episode = dataset.test[0];
  int halted_key = -1;
  for (const Item& item : episode.items) {
    OnlineDecision decision = online.Observe(item);
    if (halted_key < 0 && decision.halted_now) halted_key = item.key;
    if (halted_key >= 0 && item.key == halted_key) {
      if (!decision.halted_now) {
        EXPECT_TRUE(decision.already_halted);
      }
    }
  }
}

TEST(OnlineClassifierTest, ForceClassifyUnknownKey) {
  Dataset dataset = SmallDataset();
  KvecConfig config = SmallModelConfig(dataset.spec);
  KvecModel model(config);
  OnlineClassifier online(model);
  EXPECT_EQ(online.ForceClassify(/*key=*/123), -1);
}

TEST(OnlineClassifierTest, ObservedCountsPerKey) {
  Dataset dataset = SmallDataset();
  KvecConfig config = SmallModelConfig(dataset.spec);
  KvecModel model(config);
  OnlineClassifier online(model);
  const TangledSequence& episode = dataset.test[0];
  std::map<int, int> fed;
  for (const Item& item : episode.items) {
    OnlineDecision decision = online.Observe(item);
    if (!decision.already_halted) {
      ++fed[item.key];
      EXPECT_EQ(decision.observed_items, fed[item.key]);
    }
  }
  EXPECT_EQ(online.num_items_observed(),
            static_cast<int>(episode.items.size()));
}

// ---- Restore validates each key's fusion-state record. ----

// A hand-built engine snapshot: one item of `base` under each of
// `tracker_keys`, in the tracker and the encoder cache, and a key record
// with one observed item for each of `engine_keys`, whose fusion rows are
// present as the flags say. The rows are full width, so only their
// presence decides whether a record is valid. A stream makes the two key
// lists equal.
std::string EngineSnapshot(const KvecModel& model, Item base,
                           const std::vector<int>& tracker_keys,
                           const std::vector<int>& engine_keys,
                           bool with_hidden = true, bool with_cell = true) {
  const KvecConfig& config = model.config();
  const int hidden_dim = model.fusion().output_dim();
  const int cell_dim = config.fusion == KvecConfig::FusionKind::kLstm
                           ? config.state_dim
                           : config.embed_dim;
  CorrelationTracker tracker(config.correlation);
  IncrementalEncoder encoder(model.encoder());
  for (int key : tracker_keys) {
    base.key = key;
    encoder.AppendItem(base, /*position_in_key=*/0, tracker.ObserveItem(base));
    base.time += 1.0;
  }
  BinaryWriter writer;
  writer.WriteInt32(static_cast<int32_t>(tracker_keys.size()));  // clock
  tracker.Snapshot(&writer);
  writer.WriteInt32(static_cast<int32_t>(engine_keys.size()));
  for (int key : engine_keys) {
    writer.WriteInt32(key);
    writer.WriteInt32(0);   // halted
    writer.WriteInt32(1);   // observed
    writer.WriteInt32(1);   // position_in_key
    writer.WriteInt32(-1);  // predicted
    writer.WriteInt32(1);   // items fused
    writer.WriteInt32(with_hidden ? 1 : 0);
    if (with_hidden) {
      writer.WriteInt32(1);
      writer.WriteInt32(hidden_dim);
      writer.WriteFloatVector(std::vector<float>(hidden_dim, 0.25f));
    }
    writer.WriteInt32(with_cell ? 1 : 0);
    if (with_cell) {
      writer.WriteInt32(1);
      writer.WriteInt32(cell_dim);
      writer.WriteFloatVector(std::vector<float>(cell_dim, 0.5f));
    }
  }
  encoder.Snapshot(&writer);
  return writer.buffer();
}

std::string EngineBytes(const OnlineClassifier& online) {
  BinaryWriter writer;
  online.Snapshot(&writer);
  return writer.buffer();
}

void ExpectRestore(const KvecModel& model, bool with_hidden, bool with_cell,
                   bool want_ok) {
  SCOPED_TRACE(testing::Message() << "hidden " << with_hidden << " cell "
                                  << with_cell);
  Dataset dataset = SmallDataset();
  OnlineClassifier online(model);
  for (const Item& item : dataset.test[0].items) online.Observe(item);
  const std::string before = EngineBytes(online);

  Item item;
  item.key = 5;
  item.value = dataset.test[0].items[0].value;
  item.time = 0.0;
  BinaryReader reader(
      EngineSnapshot(model, item, {5}, {5}, with_hidden, with_cell));
  ASSERT_EQ(online.Restore(&reader), want_ok);
  if (!want_ok) {
    EXPECT_EQ(EngineBytes(online), before) << "failed restore mutated";
    return;
  }
  // A valid record serves: the key folds its next item and classifies.
  item.time = 1.0;
  EXPECT_EQ(online.Observe(item).observed_items, 2);
  EXPECT_GE(online.ForceClassify(5), 0);
}

// A window rotation hands the retiring engine's K/V arena to the next
// window's engine (StreamServer::RebuildEngine). The arena moves whole, at
// full capacity, and is not regrown for a shorter window; the adopting
// engine decides and snapshots exactly like a freshly built one, because
// only the rows it writes itself are ever read.
TEST(OnlineClassifierTest, AdoptedArenaServesLikeAFreshEngine) {
  Dataset dataset = SmallDataset();
  KvecModel model(SmallModelConfig(dataset.spec));

  // The first window: every test episode, keys kept apart, so the arena
  // grows past its smallest capacity.
  OnlineClassifier retiring(model);
  int offset = 0;
  for (const TangledSequence& episode : dataset.test) {
    for (Item item : episode.items) {
      item.key += offset;
      retiring.Observe(item);
    }
    offset += 1000;
  }
  ASSERT_GT(retiring.num_items_observed(), 64);
  const size_t retiring_bytes = retiring.encoder_resident_bytes();

  OnlineClassifier next(model);
  next.AdoptEncoderArena(&retiring);
  const size_t adopted = next.encoder_resident_bytes();
  EXPECT_GT(adopted, 0u);
  EXPECT_EQ(adopted + retiring.encoder_resident_bytes(), retiring_bytes);

  // The next window is one episode, shorter than the adopted capacity.
  OnlineClassifier fresh(model);
  const std::vector<Item>& window = dataset.test[0].items;
  ASSERT_LT(static_cast<int>(window.size()), retiring.num_items_observed());
  for (const Item& item : window) {
    const OnlineDecision got = next.Observe(item);
    const OnlineDecision want = fresh.Observe(item);
    EXPECT_EQ(got.halted_now, want.halted_now);
    EXPECT_EQ(got.already_halted, want.already_halted);
    EXPECT_EQ(got.predicted_label, want.predicted_label);
    EXPECT_EQ(got.halt_probability, want.halt_probability);
    EXPECT_EQ(got.confidence, want.confidence);
    EXPECT_EQ(got.observed_items, want.observed_items);
  }
  for (const auto& [key, label] : dataset.test[0].labels) {
    double got_confidence = 0.0, want_confidence = 0.0;
    EXPECT_EQ(next.ForceClassify(key, &got_confidence),
              fresh.ForceClassify(key, &want_confidence));
    EXPECT_EQ(got_confidence, want_confidence);
  }
  EXPECT_EQ(EngineBytes(next), EngineBytes(fresh));
  // Same items, so the same scratch: the byte difference is the arena
  // alone, and the adopted one is larger than the fresh engine's.
  EXPECT_GT(next.encoder_resident_bytes(), fresh.encoder_resident_bytes());
  EXPECT_GE(next.encoder_resident_bytes(), adopted);
}

TEST(OnlineClassifierRestoreTest, GatedStateNeedsBothRows) {
  Dataset dataset = SmallDataset();
  for (auto kind :
       {KvecConfig::FusionKind::kLstm, KvecConfig::FusionKind::kMean}) {
    KvecConfig config = SmallModelConfig(dataset.spec);
    config.fusion = kind;
    config.state_dim = 10;  // distinct from embed_dim
    KvecModel model(config);
    ExpectRestore(model, /*with_hidden=*/true, /*with_cell=*/true, true);
    ExpectRestore(model, /*with_hidden=*/true, /*with_cell=*/false, false);
    ExpectRestore(model, /*with_hidden=*/false, /*with_cell=*/true, false);
    ExpectRestore(model, /*with_hidden=*/false, /*with_cell=*/false, false);
  }
}

TEST(OnlineClassifierRestoreTest, CelllessStateRejectsACell) {
  Dataset dataset = SmallDataset();
  for (auto kind :
       {KvecConfig::FusionKind::kSum, KvecConfig::FusionKind::kLast}) {
    KvecConfig config = SmallModelConfig(dataset.spec);
    config.fusion = kind;
    KvecModel model(config);
    ExpectRestore(model, /*with_hidden=*/true, /*with_cell=*/false, true);
    ExpectRestore(model, /*with_hidden=*/true, /*with_cell=*/true, false);
  }
}

// The engine's key states are indexed by the tracker's key ids, so a
// checkpoint whose engine keys and tracker records differ cannot be
// served: Restore rejects it and leaves the engine untouched.
TEST(OnlineClassifierRestoreTest, EngineKeysMustMatchTrackerRecords) {
  Dataset dataset = SmallDataset();
  KvecModel model(SmallModelConfig(dataset.spec));
  const Item base = dataset.test[0].items[0];
  OnlineClassifier online(model);
  for (const Item& item : dataset.test[0].items) online.Observe(item);
  const std::string before = EngineBytes(online);

  struct Case {
    std::vector<int> tracker_keys;
    std::vector<int> engine_keys;
  };
  const std::vector<Case> rejected = {
      {{5}, {5, 6}},  // an engine key with no tracker record
      {{5, 6}, {5}},  // a tracker record with no engine key
      {{5}, {6}},     // one of each
  };
  for (const Case& c : rejected) {
    BinaryReader reader(
        EngineSnapshot(model, base, c.tracker_keys, c.engine_keys));
    EXPECT_FALSE(online.Restore(&reader));
    EXPECT_EQ(EngineBytes(online), before) << "failed restore mutated";
  }
  BinaryReader reader(EngineSnapshot(model, base, {5, 6}, {5, 6}));
  ASSERT_TRUE(online.Restore(&reader));
  EXPECT_GE(online.ForceClassify(6), 0);
}

// Overwrites the first (or last) little-endian occurrence of `from` in
// `bytes`.
bool ReplaceInt32(std::string* bytes, int32_t from, int32_t to, bool last) {
  const std::string pattern(reinterpret_cast<const char*>(&from), sizeof(from));
  const size_t at = last ? bytes->rfind(pattern) : bytes->find(pattern);
  if (at == std::string::npos) return false;
  std::memcpy(bytes->data() + at, &to, sizeof(to));
  return true;
}

// The delta side: a delta's new tracker records and new engine keys must
// be the same keys. ApplyDelta may leave a failed target partially
// updated (callers stage into a scratch engine), so only the verdict is
// checked.
TEST(OnlineClassifierRestoreTest, ApplyDeltaEngineKeysMustMatchTrackerRecords) {
  Dataset dataset = SmallDataset();
  KvecModel model(SmallModelConfig(dataset.spec));
  Item item = dataset.test[0].items[0];
  OnlineClassifier live(model);
  item.key = 5;
  live.Observe(item);
  const std::string base = EngineBytes(live);
  item.key = 777777;
  item.time += 1.0;
  live.Observe(item);
  BinaryWriter writer;
  live.SnapshotDelta(&writer, {777777}, /*base_items=*/1);
  const std::string delta = writer.buffer();

  auto apply = [&](const std::string& bytes) {
    OnlineClassifier target(model);
    BinaryReader base_reader(base);
    EXPECT_TRUE(target.Restore(&base_reader));
    BinaryReader reader(bytes);
    return target.ApplyDelta(&reader);
  };
  EXPECT_TRUE(apply(delta));
  // The tracker's record renamed: the engine key has no tracker record.
  std::string renamed_record = delta;
  ASSERT_TRUE(ReplaceInt32(&renamed_record, 777777, 888888, /*last=*/false));
  EXPECT_FALSE(apply(renamed_record));
  // The engine's key renamed to a base key: the new tracker record has no
  // engine key.
  std::string renamed_key = delta;
  ASSERT_TRUE(ReplaceInt32(&renamed_key, 777777, 5, /*last=*/true));
  EXPECT_FALSE(apply(renamed_key));
}

#if defined(__AVX512F__) && defined(KVEC_RELEASE_BUILD) && \
    !defined(__SANITIZE_ADDRESS__)
// The serving decide of a fixed untrained model (d = 16, two heads, a
// 24-wide fusion cell: one full vector tile and an 8-column remainder in
// its gate products) over the first 24 items of a test episode. The
// expected halt probabilities, labels and confidences came from the Release
// build whose decide ran one GemmNN per gate, so a change in any gate's
// accumulation order changes a bit.
TEST(OnlineClassifierTest, DecideObservedKeepsItsBits) {
  Dataset dataset = SmallDataset();
  KvecConfig config = SmallModelConfig(dataset.spec);
  config.embed_dim = 16;
  config.state_dim = 24;
  config.num_heads = 2;
  KvecModel model(config);
  OnlineClassifier online(model);
  std::ostringstream actual;
  actual << std::hexfloat;
  std::vector<double> got;
  for (int i = 0; i < 24; ++i) {
    const OnlineDecision decision = online.Observe(dataset.test[0].items[i]);
    if (decision.already_halted) continue;
    got.push_back(decision.halt_probability);
    if (decision.halted_now) {
      got.push_back(decision.predicted_label);
      got.push_back(decision.confidence);
    }
  }
  for (double v : got) actual << v << ", ";
  const std::vector<double> want = {
      0x1.ed35acp-2, 0x1.03e1e4p-1, 0, 0x1.3be43017b22d6p-1,
      0x1.103dfep-1, 0, 0x1.1b7464032913ap-1, 0x1.d424b4p-2,
      0x1.bb78eap-2, 0x1.aedcccp-2, 0x1.978612p-2, 0x1.ddb9b4p-2,
      0x1.a8eccap-2, 0x1.d92dccp-2};
  ASSERT_EQ(got.size(), want.size()) << actual.str();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "value " << i << "; got " << actual.str();
  }
}
#endif

}  // namespace
}  // namespace kvec
