// Corruption-fuzz property test for ShardedStreamServer's checkpoint
// readers (RestoreCheckpoint, RestoreFromCheckpointChain).
//
// Property: feeding the restore path truncated, bit-flipped, or
// wrong-version checkpoint bytes NEVER crashes, hangs, over-allocates, or
// partially mutates the target server — a failed restore leaves the target
// exactly as it was, and a successful restore (possible when a flip lands
// in float payload bytes the framing cannot vet) leaves a server that is
// still structurally sound, i.e. can serve more items without tripping an
// invariant (the whole binary runs under ASan/UBSan in CI). The
// single-server cases corrupt the plain layout (one StreamServer section,
// composed here) and restore it into a 1-shard server, the only reader it
// still has; the sharded and chain cases corrupt what the server writes.
//
// ~1.2k seeded cases on an untrained tiny model, so the serving-layer
// bookkeeping dominates and the suite stays fast.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "gtest/gtest.h"
#include "stream_server_bytes.h"

namespace kvec {
namespace {

// Untrained model: weights are seed-deterministic and the fuzz property is
// about parsing, not prediction quality.
KvecModel MakeTinyModel() {
  DatasetSpec spec;
  spec.name = "fuzz";
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

// A stream that populates every state family: many interleaved keys, a few
// session values, bounds tight enough to trigger rotations and evictions.
std::vector<Item> MakeStream(int total_items) {
  std::vector<Item> items;
  items.reserve(total_items);
  for (int i = 0; i < total_items; ++i) {
    Item item;
    item.key = i % 23;
    item.value = {i % 3};
    item.time = i;
    items.push_back(item);
  }
  return items;
}

StreamServerConfig TightConfig() {
  StreamServerConfig config;
  config.max_window_items = 64;
  config.idle_timeout = 40;
  config.idle_check_interval = 8;
  config.max_open_keys = 12;
  return config;
}

// The target must be byte-for-byte unmutated after a failed restore; its
// re-encoded checkpoint is the cheapest complete fingerprint of its state.
void ExpectUntouched(const ShardedStreamServer& server,
                     const std::string& fingerprint, size_t case_index) {
  EXPECT_EQ(server.EncodeCheckpoint(), fingerprint)
      << "failed restore mutated the server, case " << case_index;
}

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = std::make_unique<KvecModel>(MakeTinyModel());
    stream_ = MakeStream(300);
    StreamServer source(*model_, TightConfig());
    for (const Item& item : stream_) source.Observe(item);
    pristine_ = PlainCheckpoint(source);
    ASSERT_GT(pristine_.size(), 64u);
    // What a 1-shard server fed the same stream encodes: the state the
    // pristine plain bytes restore.
    ShardedStreamServer fed_one_shard(*model_, OneShardConfig());
    for (const Item& item : stream_) fed_one_shard.Observe(item);
    pristine_one_shard_ = fed_one_shard.EncodeCheckpoint();

    // Fingerprint of a fresh, never-fed server (every fuzz target starts
    // in this state).
    ShardedStreamServer fresh(*model_, OneShardConfig());
    fresh_fingerprint_ = fresh.EncodeCheckpoint();
    fresh_snapshot_ = SnapshotBytes(StreamServer(*model_, TightConfig()));
  }

  static ShardedStreamServerConfig OneShardConfig() {
    ShardedStreamServerConfig config;
    config.num_shards = 1;
    config.shard = TightConfig();
    return config;
  }

  // Attempts a restore of `bytes` into a fresh 1-shard server and checks
  // the property; every 97th failing case additionally proves the target
  // still accepts the pristine checkpoint.
  void CheckCase(const std::string& bytes, size_t case_index) {
    ShardedStreamServer target(*model_, OneShardConfig());
    const bool restored = target.RestoreCheckpoint(bytes);
    CheckBareRestore(bytes, restored, case_index);
    if (!restored) {
      ExpectUntouched(target, fresh_fingerprint_, case_index);
      if (case_index % 97 == 0) {
        // A failed restore must not poison later restores.
        ASSERT_TRUE(target.RestoreCheckpoint(pristine_))
            << "case " << case_index;
        EXPECT_EQ(target.EncodeCheckpoint(), pristine_one_shard_)
            << "case " << case_index;
      }
    } else {
      // Framing accepted the bytes (e.g. a flip inside float payload).
      // The restored server must still be structurally sound: serve a few
      // items and flush without tripping any invariant.
      for (int i = 0; i < 8; ++i) target.Observe(stream_[i]);
      target.Flush();
    }
  }

  // When `bytes` still frame a version-1 plain section, the record codec
  // under the 1-shard reader gets the section's payload on a bare
  // StreamServer: the same verdict, and a failure leaves it untouched.
  void CheckBareRestore(const std::string& bytes, bool want_restored,
                        size_t case_index) {
    Checkpoint checkpoint;
    if (!CheckpointDecode(bytes, &checkpoint) ||
        checkpoint.version != kCheckpointFormatVersion) {
      return;
    }
    const CheckpointSection* section =
        checkpoint.Find(kCheckpointSectionStreamServer);
    if (section == nullptr) return;
    StreamServer bare(*model_, TightConfig());
    ASSERT_EQ(RestoreSnapshot(&bare, section->payload), want_restored)
        << "case " << case_index;
    if (!want_restored) {
      EXPECT_EQ(SnapshotBytes(bare), fresh_snapshot_)
          << "failed Restore mutated the bare server, case " << case_index;
    }
  }

  std::unique_ptr<KvecModel> model_;
  std::vector<Item> stream_;
  std::string pristine_;
  std::string pristine_one_shard_;
  std::string fresh_fingerprint_;
  std::string fresh_snapshot_;
};

TEST_F(CheckpointFuzzTest, TruncationsFailCleanly) {
  Rng rng(0xC0FFEE);
  size_t case_index = 0;
  // Every short prefix up to 64 bytes, then 350 random cuts.
  for (size_t cut = 0; cut < 64; ++cut) {
    CheckCase(pristine_.substr(0, cut), case_index++);
  }
  for (int i = 0; i < 350; ++i) {
    const size_t cut = static_cast<size_t>(
        rng.NextInt(static_cast<int>(pristine_.size())));
    CheckCase(pristine_.substr(0, cut), case_index++);
  }
}

TEST_F(CheckpointFuzzTest, BitFlipsNeverCrashOrPartiallyMutate) {
  Rng rng(0xBADF00D);
  for (int i = 0; i < 500; ++i) {
    std::string corrupt = pristine_;
    const int flips = 1 + rng.NextInt(8);
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.NextInt(static_cast<int>(corrupt.size())));
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.NextInt(8)));
    }
    CheckCase(corrupt, static_cast<size_t>(i));
  }
}

TEST_F(CheckpointFuzzTest, WrongVersionAndHeaderMutationsAreRejected) {
  size_t case_index = 0;
  // Version field (bytes 4..7): every small value plus sign-bit patterns.
  for (int32_t version : {-1, 0, 2, 3, 1000, INT32_MIN, INT32_MAX}) {
    std::string corrupt = pristine_;
    std::memcpy(&corrupt[4], &version, sizeof(version));
    ShardedStreamServer target(*model_, OneShardConfig());
    EXPECT_FALSE(target.RestoreCheckpoint(corrupt)) << "version " << version;
    ExpectUntouched(target, fresh_fingerprint_, case_index++);
  }
  // Magic, section count, and section length fields.
  Rng rng(0x5EED);
  for (int i = 0; i < 150; ++i) {
    std::string corrupt = pristine_;
    const size_t at = static_cast<size_t>(rng.NextInt(24));
    corrupt[at] = static_cast<char>(rng.NextUint64());
    CheckCase(corrupt, case_index++);
  }
  // Pure garbage of assorted sizes.
  for (int i = 0; i < 50; ++i) {
    std::string garbage(static_cast<size_t>(rng.NextInt(256)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextUint64());
    CheckCase(garbage, case_index++);
  }
}

TEST_F(CheckpointFuzzTest, ShardedRestoreFailsCleanlyOnCorruptShard) {
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.shard = TightConfig();
  ShardedStreamServer source(*model_, config);
  for (const Item& item : stream_) source.Observe(item);
  const std::string pristine = source.EncodeCheckpoint();

  Rng rng(0xD15EA5E);
  for (int i = 0; i < 200; ++i) {
    std::string corrupt = pristine;
    // Land flips in the back half so the second shard's payload — the last
    // section staged — is the one that breaks: a partial restore would
    // leave shard 0 swapped and shard 1 stale.
    const size_t at = corrupt.size() / 2 +
                      static_cast<size_t>(rng.NextInt(
                          static_cast<int>(corrupt.size() / 2)));
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.NextInt(8)));

    ShardedStreamServer target(*model_, config);
    const bool restored = target.RestoreCheckpoint(corrupt);
    if (!restored) {
      EXPECT_EQ(target.stats().items_processed, 0) << "case " << i;
      EXPECT_EQ(target.open_keys(), 0) << "case " << i;
      // All-or-nothing across shards: a fresh target must still accept the
      // pristine bytes after the failed attempt.
      if (i % 50 == 0) {
        ASSERT_TRUE(target.RestoreCheckpoint(pristine)) << "case " << i;
        EXPECT_EQ(target.EncodeCheckpoint(), pristine) << "case " << i;
      }
    } else {
      for (int j = 0; j < 8; ++j) target.Observe(stream_[j]);
      target.Flush();
    }
  }
}

// ---- Delta-chain corruption (PR 10) --------------------------------------
//
// Same property, applied to RestoreFromCheckpointChain: truncated,
// bit-flipped, wrong-fingerprint, reordered, or duplicate-tombstone delta
// files NEVER crash or partially mutate the target — a failed chain load
// leaves the target byte-for-byte fresh, and the original chain keeps
// loading after each corrupted attempt.
class DeltaChainFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = std::make_unique<KvecModel>(MakeTinyModel());
    stream_ = MakeStream(300);
    config_.num_shards = 2;
    config_.shard = TightConfig();
    base_ = ::testing::TempDir() + "/kvec_fuzz_chain.ckpt";
    RemoveChain();

    ShardedStreamServer source(*model_, config_);
    ShardedStreamServer::IncrementalCheckpointState state;
    size_t fed = 0;
    for (; fed < 150; ++fed) source.Observe(stream_[fed]);
    ASSERT_TRUE(source.CheckpointIncremental(base_, 0, &state));
    for (; fed < 225; ++fed) source.Observe(stream_[fed]);
    ASSERT_TRUE(source.CheckpointIncremental(base_, 0, &state));
    for (; fed < 300; ++fed) source.Observe(stream_[fed]);
    ASSERT_TRUE(source.CheckpointIncremental(base_, 0, &state));
    expected_ = source.EncodeCheckpoint();

    ASSERT_TRUE(Slurp(base_, &base_bytes_));
    ASSERT_TRUE(Slurp(Delta(1), &delta1_bytes_));
    ASSERT_TRUE(Slurp(Delta(2), &delta2_bytes_));
    // Every case below corrupts a chain of the version the writer writes.
    for (const std::string* link : {&delta1_bytes_, &delta2_bytes_}) {
      Checkpoint delta;
      ASSERT_TRUE(CheckpointDecode(*link, &delta));
      ASSERT_EQ(delta.version, kCheckpointDeltaFormatVersion);
    }

    ShardedStreamServer fresh(*model_, config_);
    fresh_fingerprint_ = fresh.EncodeCheckpoint();
  }

  void TearDown() override { RemoveChain(); }

  std::string Delta(int64_t seq) const {
    return ShardedStreamServer::DeltaPath(base_, seq);
  }

  void RemoveChain() {
    std::remove(Delta(2).c_str());
    std::remove(Delta(1).c_str());
    std::remove(base_.c_str());
  }

  static bool Slurp(const std::string& path, std::string* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    out->assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    return true;
  }

  void RestoreOriginalChain() {
    ASSERT_TRUE(AtomicWriteFile(base_, base_bytes_));
    ASSERT_TRUE(AtomicWriteFile(Delta(1), delta1_bytes_));
    ASSERT_TRUE(AtomicWriteFile(Delta(2), delta2_bytes_));
  }

  // A corrupted chain either fails closed with a byte-for-byte fresh
  // target, or (a flip landing in float payload the framing cannot vet)
  // loads a server that is still structurally sound.
  void CheckChainCase(size_t case_index) {
    ShardedStreamServer target(*model_, config_);
    const bool restored = target.RestoreFromCheckpointChain(base_);
    if (!restored) {
      EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_)
          << "failed chain load mutated the target, case " << case_index;
    } else {
      for (int i = 0; i < 8; ++i) target.Observe(stream_[i]);
      target.Flush();
    }
  }

  // The pristine chain must keep loading exactly after any corrupted
  // attempt (corruption lives in the files, never leaks into state).
  void ExpectPristineChainStillLoads() {
    RestoreOriginalChain();
    ShardedStreamServer target(*model_, config_);
    ASSERT_TRUE(target.RestoreFromCheckpointChain(base_));
    EXPECT_EQ(target.EncodeCheckpoint(), expected_);
  }

  std::unique_ptr<KvecModel> model_;
  std::vector<Item> stream_;
  ShardedStreamServerConfig config_;
  std::string base_;
  std::string expected_;
  std::string base_bytes_, delta1_bytes_, delta2_bytes_;
  std::string fresh_fingerprint_;
};

TEST_F(DeltaChainFuzzTest, DeltaTruncationsFailCleanly) {
  Rng rng(0xC0FFEE);
  size_t case_index = 0;
  // An existing-but-torn delta file is corruption, not end-of-chain: the
  // container framing must reject every proper prefix.
  for (size_t cut = 0; cut < 48; ++cut) {
    ASSERT_TRUE(AtomicWriteFile(Delta(1), delta1_bytes_.substr(0, cut)));
    ShardedStreamServer target(*model_, config_);
    EXPECT_FALSE(target.RestoreFromCheckpointChain(base_)) << "cut " << cut;
    EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_) << "cut " << cut;
    ++case_index;
  }
  for (int i = 0; i < 150; ++i) {
    const size_t cut = static_cast<size_t>(
        rng.NextInt(static_cast<int>(delta1_bytes_.size())));
    ASSERT_TRUE(AtomicWriteFile(Delta(1), delta1_bytes_.substr(0, cut)));
    CheckChainCase(case_index++);
  }
  // A MISSING delta.1 with delta.2 still present is end-of-chain at the
  // base — by design — and the stale delta.2 must not be picked up.
  std::remove(Delta(1).c_str());
  {
    ShardedStreamServer target(*model_, config_);
    ASSERT_TRUE(target.RestoreFromCheckpointChain(base_));
    Checkpoint base_only;
    ASSERT_TRUE(CheckpointDecode(base_bytes_, &base_only));
    ShardedStreamServer base_target(*model_, config_);
    ASSERT_TRUE(base_target.RestoreCheckpoint(base_bytes_));
    EXPECT_EQ(target.EncodeCheckpoint(), base_target.EncodeCheckpoint());
  }
  ExpectPristineChainStillLoads();
}

TEST_F(DeltaChainFuzzTest, DeltaBitFlipsNeverCrashOrPartiallyMutate) {
  Rng rng(0xBADF00D);
  const std::string* originals[3] = {&base_bytes_, &delta1_bytes_,
                                     &delta2_bytes_};
  for (int i = 0; i < 250; ++i) {
    const int which = rng.NextInt(3);
    std::string corrupt = *originals[which];
    const int flips = 1 + rng.NextInt(8);
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.NextInt(static_cast<int>(corrupt.size())));
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.NextInt(8)));
    }
    const std::string path =
        which == 0 ? base_ : Delta(which);
    ASSERT_TRUE(AtomicWriteFile(path, corrupt));
    CheckChainCase(static_cast<size_t>(i));
    ASSERT_TRUE(AtomicWriteFile(path, *originals[which]));
  }
  ExpectPristineChainStillLoads();
}

TEST_F(DeltaChainFuzzTest, WrongFingerprintsAndSequenceAreRejected) {
  Checkpoint delta;
  ASSERT_TRUE(CheckpointDecode(delta1_bytes_, &delta));
  const CheckpointSection* manifest =
      delta.Find(kCheckpointSectionDeltaManifest);
  ASSERT_NE(manifest, nullptr);
  BinaryReader reader(manifest->payload);
  const int64_t base_fp = reader.ReadInt64();
  const int64_t prev_fp = reader.ReadInt64();
  const int64_t seq = reader.ReadInt64();
  const int32_t num_shards = reader.ReadInt32();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.AtEnd());
  EXPECT_EQ(static_cast<uint64_t>(base_fp),
            CheckpointFingerprint(base_bytes_));
  EXPECT_EQ(base_fp, prev_fp);  // first link hangs off the base
  EXPECT_EQ(seq, 1);
  EXPECT_EQ(num_shards, 2);

  // One field off at a time: a delta cut against another base, spliced
  // after the wrong link, at the wrong position, or for another topology.
  struct Mutation {
    const char* name;
    int64_t base, prev, seq;
    int32_t shards;
  };
  const Mutation mutations[] = {
      {"wrong base fingerprint", base_fp ^ 1, prev_fp, seq, num_shards},
      {"wrong prev fingerprint", base_fp, prev_fp ^ 1, seq, num_shards},
      {"wrong sequence number", base_fp, prev_fp, seq + 1, num_shards},
      {"wrong shard count", base_fp, prev_fp, seq, num_shards + 1},
  };
  for (const Mutation& mutation : mutations) {
    BinaryWriter writer;
    writer.WriteInt64(mutation.base);
    writer.WriteInt64(mutation.prev);
    writer.WriteInt64(mutation.seq);
    writer.WriteInt32(mutation.shards);
    Checkpoint mutated = delta;
    for (CheckpointSection& section : mutated.sections) {
      if (section.id == kCheckpointSectionDeltaManifest) {
        section.payload = writer.buffer();
      }
    }
    ASSERT_TRUE(AtomicWriteFile(Delta(1), CheckpointEncode(mutated)));
    ShardedStreamServer target(*model_, config_);
    EXPECT_FALSE(target.RestoreFromCheckpointChain(base_)) << mutation.name;
    EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_) << mutation.name;
  }
  ExpectPristineChainStillLoads();
}

// `link` reframed at `version` with its manifest's two fingerprints
// replaced; sequence number, shard count and delta sections stay.
std::string Relink(const std::string& link, int32_t version,
                   uint64_t base_fp, uint64_t prev_fp) {
  Checkpoint delta;
  EXPECT_TRUE(CheckpointDecode(link, &delta));
  delta.version = version;
  for (CheckpointSection& section : delta.sections) {
    if (section.id != kCheckpointSectionDeltaManifest) continue;
    BinaryReader reader(section.payload);
    reader.ReadInt64();
    reader.ReadInt64();
    const int64_t seq = reader.ReadInt64();
    const int32_t num_shards = reader.ReadInt32();
    EXPECT_TRUE(reader.ok());
    BinaryWriter writer;
    writer.WriteInt64(static_cast<int64_t>(base_fp));
    writer.WriteInt64(static_cast<int64_t>(prev_fp));
    writer.WriteInt64(seq);
    writer.WriteInt32(num_shards);
    section.payload = writer.buffer();
  }
  return CheckpointEncode(delta);
}

// Each link of a mixed chain links correctly by its own version's hash, so
// only the mix can fail it. The same two links both at v2 do load.
TEST_F(DeltaChainFuzzTest, MixedVersionChainIsRejected) {
  const int32_t v2 = kCheckpointFnvDeltaFormatVersion;
  const int32_t v3 = kCheckpointDeltaFormatVersion;
  const uint64_t fnv_base = CheckpointFingerprintV2(base_bytes_);
  const uint64_t xxh_base = CheckpointFingerprint(base_bytes_);
  const std::string v2_link1 = Relink(delta1_bytes_, v2, fnv_base, fnv_base);
  const std::string v2_link2 = Relink(delta2_bytes_, v2, fnv_base,
                                      CheckpointFingerprintV2(v2_link1));
  const std::string v2_after_v3 = Relink(
      delta2_bytes_, v2, fnv_base, CheckpointFingerprintV2(delta1_bytes_));
  const std::string v3_after_v2 = Relink(delta2_bytes_, v3, xxh_base,
                                         CheckpointFingerprint(v2_link1));
  struct Chain {
    const char* name;
    const std::string* link1;
    const std::string* link2;
  };
  const Chain mixed[] = {{"v3 then v2", &delta1_bytes_, &v2_after_v3},
                         {"v2 then v3", &v2_link1, &v3_after_v2}};
  for (const Chain& chain : mixed) {
    ASSERT_TRUE(AtomicWriteFile(Delta(1), *chain.link1));
    ASSERT_TRUE(AtomicWriteFile(Delta(2), *chain.link2));
    ShardedStreamServer target(*model_, config_);
    EXPECT_FALSE(target.RestoreFromCheckpointChain(base_)) << chain.name;
    EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_) << chain.name;
  }
  ASSERT_TRUE(AtomicWriteFile(Delta(1), v2_link1));
  ASSERT_TRUE(AtomicWriteFile(Delta(2), v2_link2));
  {
    ShardedStreamServer target(*model_, config_);
    ASSERT_TRUE(target.RestoreFromCheckpointChain(base_));
    EXPECT_EQ(target.EncodeCheckpoint(), expected_);
  }
  ExpectPristineChainStillLoads();
}

TEST_F(DeltaChainFuzzTest, ReorderedChainIsRejected) {
  // Swap the two links on disk: delta 2's manifest says seq 2 / prev =
  // fp(delta 1), neither of which holds in slot 1.
  ASSERT_TRUE(AtomicWriteFile(Delta(1), delta2_bytes_));
  ASSERT_TRUE(AtomicWriteFile(Delta(2), delta1_bytes_));
  {
    ShardedStreamServer target(*model_, config_);
    EXPECT_FALSE(target.RestoreFromCheckpointChain(base_));
    EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_);
  }
  // Replaying the SAME link twice is just as dead: slot 2's copy claims
  // seq 1 and hangs off the base, not off itself.
  ASSERT_TRUE(AtomicWriteFile(Delta(1), delta1_bytes_));
  ASSERT_TRUE(AtomicWriteFile(Delta(2), delta1_bytes_));
  {
    ShardedStreamServer target(*model_, config_);
    EXPECT_FALSE(target.RestoreFromCheckpointChain(base_));
    EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_);
  }
  ExpectPristineChainStillLoads();
}

TEST_F(DeltaChainFuzzTest, DuplicateTombstoneIsRejected) {
  Checkpoint delta;
  ASSERT_TRUE(CheckpointDecode(delta1_bytes_, &delta));
  // Rebuild shard 0's delta payload value by value so the tombstone list
  // can be tampered with surgically; the engine tail rides along verbatim.
  size_t target_section = delta.sections.size();
  for (size_t i = 0; i < delta.sections.size(); ++i) {
    if (delta.sections[i].id != kCheckpointSectionShardDelta) continue;
    BinaryReader peek(delta.sections[i].payload);
    if (peek.ReadInt32() == 0) {
      target_section = i;
      break;
    }
  }
  ASSERT_LT(target_section, delta.sections.size());
  const std::string& payload = delta.sections[target_section].payload;

  BinaryReader reader(payload);
  BinaryWriter writer;
  writer.WriteInt32(reader.ReadInt32());  // shard id
  for (int i = 0; i < 4; ++i) writer.WriteInt32(reader.ReadInt32());  // config
  writer.WriteInt64(reader.ReadInt64());  // position
  writer.WriteInt32(reader.ReadInt32());  // window_items
  for (int i = 0; i < 7; ++i) writer.WriteInt64(reader.ReadInt64());  // stats
  writer.WriteInt32(reader.ReadInt32());  // windows_started
  const int32_t num_classes = reader.ReadInt32();
  writer.WriteInt32(num_classes);
  for (int32_t c = 0; c < num_classes; ++c) {
    writer.WriteInt64(reader.ReadInt64());
  }
  writer.WriteInt32(reader.ReadInt32());  // engine_reset
  const int32_t num_upserts = reader.ReadInt32();
  writer.WriteInt32(num_upserts);
  for (int32_t i = 0; i < num_upserts; ++i) {
    writer.WriteInt32(reader.ReadInt32());
    writer.WriteInt64(reader.ReadInt64());
  }
  const int32_t num_tombstones = reader.ReadInt32();
  ASSERT_TRUE(reader.ok());
  // The tight config guarantees closures between the base and delta 1.
  ASSERT_GE(num_tombstones, 1);
  std::vector<int32_t> tombstones(static_cast<size_t>(num_tombstones));
  for (int32_t& key : tombstones) key = reader.ReadInt32();
  ASSERT_TRUE(reader.ok());
  const std::string engine_tail =
      payload.substr(payload.size() - reader.remaining());

  // Control first: an untampered rebuild must be byte-identical, so the
  // mutated case below fails because of the duplicate and nothing else.
  {
    BinaryWriter control = writer;
    control.WriteInt32(num_tombstones);
    for (int32_t key : tombstones) control.WriteInt32(key);
    EXPECT_EQ(control.buffer() + engine_tail, payload);
  }

  // The same key twice: a double-close is corruption, not idempotent.
  writer.WriteInt32(num_tombstones + 1);
  for (int32_t key : tombstones) writer.WriteInt32(key);
  writer.WriteInt32(tombstones.back());
  delta.sections[target_section].payload = writer.buffer() + engine_tail;
  ASSERT_TRUE(AtomicWriteFile(Delta(1), CheckpointEncode(delta)));
  ShardedStreamServer target(*model_, config_);
  EXPECT_FALSE(target.RestoreFromCheckpointChain(base_));
  EXPECT_EQ(target.EncodeCheckpoint(), fresh_fingerprint_);
  ExpectPristineChainStillLoads();
}

}  // namespace
}  // namespace kvec
