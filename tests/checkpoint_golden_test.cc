// Format-compatibility pin for the serving checkpoint container.
//
// A v1 StreamServer checkpoint produced by a fixed generator (tiny
// untrained model, deterministic 120-item stream) is committed under
// tests/data/. This test loads it, asserts the decoded frame and the
// leading payload fields, and restores its section into a
// compatibly-shaped server (a 1-shard ShardedStreamServer reads the whole
// file; core_sharded_stream_server_test pins that). If either the container layout or the StreamServer section
// layout changes, this test fails — the fix is to bump
// kCheckpointFormatVersion deliberately (and add a new golden), never to
// regenerate this file in place.
//
// Regenerating (only when adding a NEW version's golden):
//   KVEC_REGEN_GOLDEN=tests/data/stream_server_v1.ckpt ./checkpoint_golden_test
// then update the pinned constants below from the printed values.
//
// The delta goldens are two-shard chains (base + delta.1) produced by the
// same tiny recipe: stream_server_v2_base.ckpt links by FNV-1a (version
// 2, read-only) and stream_server_v3_base.ckpt by XXH64 (version 3, what
// CheckpointIncremental writes). Their bases are the same bytes and their
// deltas differ only in the version field and the two manifest
// fingerprints. They pin the delta container frame and manifest, the
// kernel-independent layout of every link against a fresh replay, and
// the events a chain-restored server serves. Their floats come from the
// -march=native kernels, so no check compares them, and the suite passes
// on the scalar kernel build too. The regeneration command line writes a
// chain at the current delta version (never over a committed golden):
//   KVEC_REGEN_GOLDEN_V2=tests/data/stream_server_v3_base.ckpt
//       ./checkpoint_golden_test
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "checkpoint_golden_recipe.h"
#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "util/serialize.h"
#include "gtest/gtest.h"
#include "stream_server_bytes.h"

namespace kvec {
namespace {

#ifndef KVEC_TEST_DATA_DIR
#define KVEC_TEST_DATA_DIR "tests/data"
#endif

constexpr char kGoldenFile[] = "/stream_server_v1.ckpt";

void FeedGoldenStream(StreamServer* server) {
  for (int i = 0; i < 120; ++i) server->Observe(golden::StreamItem(i));
}

TEST(CheckpointGoldenTest, RegenerateGolden) {
  const char* out_path = std::getenv("KVEC_REGEN_GOLDEN");
  if (out_path == nullptr) {
    GTEST_SKIP() << "set KVEC_REGEN_GOLDEN=<path> to write a fresh golden";
  }
  KvecModel model = golden::MakeModel();
  StreamServer server(model, golden::ServerConfig());
  FeedGoldenStream(&server);
  // The plain layout: one StreamServer section, which no server writes.
  ASSERT_TRUE(AtomicWriteFile(out_path, PlainCheckpoint(server)));
  const StreamServerStats& stats = server.stats();
  std::printf(
      "golden written to %s\n  open_keys=%d items=%lld classified=%lld "
      "halts=%lld idle=%lld capacity=%lld rotation=%lld windows=%d\n",
      out_path, server.open_keys(),
      static_cast<long long>(stats.items_processed),
      static_cast<long long>(stats.sequences_classified),
      static_cast<long long>(stats.policy_halts),
      static_cast<long long>(stats.idle_timeouts),
      static_cast<long long>(stats.capacity_evictions),
      static_cast<long long>(stats.rotation_classifications),
      stats.windows_started);
}

TEST(CheckpointGoldenTest, FrameDecodesAtVersion1) {
  Checkpoint checkpoint;
  ASSERT_TRUE(
      CheckpointLoad(std::string(KVEC_TEST_DATA_DIR) + kGoldenFile,
                     &checkpoint))
      << "committed golden missing or unreadable";
  EXPECT_EQ(checkpoint.version, 1);
  ASSERT_EQ(checkpoint.sections.size(), 1u);
  EXPECT_EQ(checkpoint.sections[0].id, kCheckpointSectionStreamServer);
}

TEST(CheckpointGoldenTest, PayloadFieldsDecodeAsWritten) {
  Checkpoint checkpoint;
  ASSERT_TRUE(CheckpointLoad(
      std::string(KVEC_TEST_DATA_DIR) + kGoldenFile, &checkpoint));
  const CheckpointSection* section =
      checkpoint.Find(kCheckpointSectionStreamServer);
  ASSERT_NE(section, nullptr);

  // Leading fields of the v1 StreamServer payload, in layout order. A
  // layout change (reordered fields, new field without a version bump)
  // breaks these reads.
  BinaryReader reader(section->payload);
  EXPECT_EQ(reader.ReadInt32(), 64);   // max_window_items
  EXPECT_EQ(reader.ReadInt32(), 40);   // idle_timeout
  EXPECT_EQ(reader.ReadInt32(), 8);    // idle_check_interval
  EXPECT_EQ(reader.ReadInt32(), 12);   // max_open_keys
  EXPECT_EQ(reader.ReadInt64(), 120);  // stream position
  EXPECT_EQ(reader.ReadInt32(), 56);   // window_items (120 items, 1 rotation)
  EXPECT_EQ(reader.ReadInt64(), 120);  // stats.items_processed
  ASSERT_TRUE(reader.ok());
}

TEST(CheckpointGoldenTest, RestoresIntoCompatibleServer) {
  Checkpoint checkpoint;
  ASSERT_TRUE(CheckpointLoad(
      std::string(KVEC_TEST_DATA_DIR) + kGoldenFile, &checkpoint));
  const CheckpointSection* section =
      checkpoint.Find(kCheckpointSectionStreamServer);
  ASSERT_NE(section, nullptr);
  KvecModel model = golden::MakeModel();
  StreamServer server(model, golden::ServerConfig());
  ASSERT_TRUE(RestoreSnapshot(&server, section->payload));
  // Pinned from generation time (see RegenerateGolden's printout).
  const StreamServerStats& stats = server.stats();
  EXPECT_EQ(server.open_keys(), 10);
  EXPECT_EQ(stats.items_processed, 120);
  EXPECT_EQ(stats.sequences_classified, 36);
  EXPECT_EQ(stats.policy_halts, 24);
  EXPECT_EQ(stats.idle_timeouts, 0);
  EXPECT_EQ(stats.capacity_evictions, 4);
  EXPECT_EQ(stats.rotation_classifications, 8);
  EXPECT_EQ(stats.flush_classifications, 0);
  EXPECT_EQ(stats.windows_started, 2);
  EXPECT_EQ(stats.policy_halts + stats.idle_timeouts +
                stats.capacity_evictions + stats.rotation_classifications +
                stats.flush_classifications,
            stats.sequences_classified);
}

TEST(CheckpointGoldenTest, UnknownSectionsAreSkipped) {
  Checkpoint checkpoint;
  ASSERT_TRUE(CheckpointLoad(
      std::string(KVEC_TEST_DATA_DIR) + kGoldenFile, &checkpoint));
  // A future writer may append sections this reader has never heard of;
  // they must not break restore.
  // kvec-lint: allow-next(section-id) deliberately unknown future id
  checkpoint.sections.push_back({999, std::string("future payload")});
  KvecModel model = golden::MakeModel();
  ShardedStreamServerConfig config;
  config.num_shards = 1;
  config.shard = golden::ServerConfig();
  ShardedStreamServer server(model, config);
  ASSERT_TRUE(server.RestoreCheckpoint(CheckpointEncode(checkpoint)));
  EXPECT_EQ(server.stats().items_processed, 120);
}

// ---- Version-2 delta golden (PR 10) --------------------------------------

constexpr char kDeltaGoldenBase[] = "/stream_server_v2_base.ckpt";

ShardedStreamServerConfig GoldenShardedConfig() {
  ShardedStreamServerConfig config;
  config.num_shards = 2;
  config.shard = golden::ServerConfig();
  return config;
}

// The v1 stream extended: the base is cut at item 120 (the v1 golden's
// cut) and delta 1 carries items 120..179.
void FeedGoldenRange(ShardedStreamServer* server, int from, int to) {
  for (int i = from; i < to; ++i) server->Observe(golden::StreamItem(i));
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(CheckpointGoldenTest, RegenerateDeltaGolden) {
  const char* out_base = std::getenv("KVEC_REGEN_GOLDEN_V2");
  if (out_base == nullptr) {
    GTEST_SKIP() << "set KVEC_REGEN_GOLDEN_V2=<base path> to write a fresh "
                    "delta golden (base + .delta.1)";
  }
  KvecModel model = golden::MakeModel();
  ShardedStreamServer server(model, GoldenShardedConfig());
  ShardedStreamServer::IncrementalCheckpointState state;
  FeedGoldenRange(&server, 0, 120);
  ASSERT_TRUE(server.CheckpointIncremental(out_base, 0, &state));
  FeedGoldenRange(&server, 120, 180);
  ASSERT_TRUE(server.CheckpointIncremental(out_base, 0, &state));
  const StreamServerStats stats = server.stats();
  std::printf(
      "delta golden written to %s{,.delta.1}\n  open_keys=%d items=%lld "
      "classified=%lld windows=%d\n",
      out_base, server.open_keys(),
      static_cast<long long>(stats.items_processed),
      static_cast<long long>(stats.sequences_classified),
      stats.windows_started);
}

TEST(CheckpointGoldenTest, DeltaFrameDecodesAtVersion2) {
  const std::string base_path =
      std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenBase;
  const std::string delta_path = ShardedStreamServer::DeltaPath(base_path, 1);

  Checkpoint delta;
  ASSERT_TRUE(CheckpointLoad(delta_path, &delta))
      << "committed delta golden missing or unreadable";
  EXPECT_EQ(delta.version, kCheckpointFnvDeltaFormatVersion);
  ASSERT_EQ(delta.sections.size(), 3u);
  EXPECT_EQ(delta.sections[0].id, kCheckpointSectionDeltaManifest);
  EXPECT_EQ(delta.sections[1].id, kCheckpointSectionShardDelta);
  EXPECT_EQ(delta.sections[2].id, kCheckpointSectionShardDelta);

  // Manifest layout: base fingerprint, previous-link fingerprint (the base
  // again for link 1), sequence number, shard count.
  BinaryReader reader(delta.sections[0].payload);
  const uint64_t stored_base = static_cast<uint64_t>(reader.ReadInt64());
  const uint64_t stored_prev = static_cast<uint64_t>(reader.ReadInt64());
  EXPECT_EQ(reader.ReadInt64(), 1);  // seq
  EXPECT_EQ(reader.ReadInt32(), 2);  // num_shards
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(stored_base, CheckpointFingerprintV2(SlurpFile(base_path)));
  EXPECT_EQ(stored_prev, stored_base);
}

constexpr char kDeltaGoldenV3Base[] = "/stream_server_v3_base.ckpt";

// The v3 golden is the v2 golden relinked: the same base bytes, the same
// delta sections, and a manifest whose fingerprints are XXH64.
TEST(CheckpointGoldenTest, DeltaFrameDecodesAtVersion3) {
  const std::string base_path =
      std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenV3Base;
  const std::string v2_base_path =
      std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenBase;
  EXPECT_EQ(SlurpFile(base_path), SlurpFile(v2_base_path));

  Checkpoint delta;
  Checkpoint v2_delta;
  ASSERT_TRUE(
      CheckpointLoad(ShardedStreamServer::DeltaPath(base_path, 1), &delta))
      << "committed delta golden missing or unreadable";
  ASSERT_TRUE(
      CheckpointLoad(ShardedStreamServer::DeltaPath(v2_base_path, 1), &v2_delta));
  EXPECT_EQ(delta.version, 3);
  ASSERT_EQ(delta.sections.size(), 3u);
  EXPECT_EQ(delta.sections[0].id, kCheckpointSectionDeltaManifest);
  for (size_t i = 1; i < delta.sections.size(); ++i) {
    EXPECT_EQ(delta.sections[i].id, kCheckpointSectionShardDelta);
    EXPECT_EQ(delta.sections[i].payload, v2_delta.sections[i].payload)
        << "section " << i;
  }

  BinaryReader reader(delta.sections[0].payload);
  const uint64_t stored_base = static_cast<uint64_t>(reader.ReadInt64());
  const uint64_t stored_prev = static_cast<uint64_t>(reader.ReadInt64());
  EXPECT_EQ(reader.ReadInt64(), 1);  // seq
  EXPECT_EQ(reader.ReadInt32(), 2);  // num_shards
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(stored_base, CheckpointFingerprint(SlurpFile(base_path)));
  EXPECT_EQ(stored_prev, stored_base);
}

// The values of a tagged BinaryWriter stream with every float payload
// dropped (float-vector lengths kept): what the kernel build cannot
// change. The committed chain's K/V panels and fusion states were computed
// by the -march=native kernels, and the scalar fallback rounds them
// differently (separate multiply and add, no FMA); everything else —
// headers, open-key, tracker and key-state records, geometry, counts —
// must match on both builds. Empty on a malformed stream.
std::string KernelIndependentValues(const std::string& payload) {
  std::string kept;
  size_t at = 0;
  auto take = [&](size_t bytes, bool keep) {
    if (at + bytes > payload.size()) return false;
    if (keep) kept.append(payload, at, bytes);
    at += bytes;
    return true;
  };
  while (at < payload.size()) {
    int32_t tag = 0;
    if (at + sizeof(tag) > payload.size()) return std::string();
    std::memcpy(&tag, payload.data() + at, sizeof(tag));
    take(sizeof(tag), true);
    bool ok = true;
    switch (tag) {
      case serialize_internal::kTagInt32:
        ok = take(4, true);
        break;
      case serialize_internal::kTagInt64:
      case serialize_internal::kTagDouble:
        ok = take(8, true);
        break;
      case serialize_internal::kTagFloat:
        ok = take(4, false);
        break;
      case serialize_internal::kTagString:
      case serialize_internal::kTagFloatVec:
      case serialize_internal::kTagIntVec: {
        int64_t length = 0;
        if (at + sizeof(length) > payload.size()) return std::string();
        std::memcpy(&length, payload.data() + at, sizeof(length));
        const size_t element = tag == serialize_internal::kTagString ? 1 : 4;
        ok = length >= 0 && take(sizeof(length), true) &&
             take(static_cast<size_t>(length) * element,
                  tag != serialize_internal::kTagFloatVec);
        break;
      }
      default:
        ok = false;
    }
    if (!ok) return std::string();
  }
  return kept;
}

// Section by section: same ids, and the same kernel-independent values.
// A delta manifest opens with the fingerprints of the base and the
// previous link, which hash those links' floats; DeltaFrameDecodesAtVersion3
// pins the committed ones, so they are left out here.
void ExpectSameLayout(const Checkpoint& committed, const Checkpoint& replayed) {
  EXPECT_EQ(committed.version, replayed.version);
  ASSERT_EQ(committed.sections.size(), replayed.sections.size());
  for (size_t i = 0; i < committed.sections.size(); ++i) {
    SCOPED_TRACE("section " + std::to_string(i));
    const int32_t id = committed.sections[i].id;
    EXPECT_EQ(id, replayed.sections[i].id);
    const size_t fingerprints =
        id == kCheckpointSectionDeltaManifest
            ? 2 * (sizeof(int32_t) + sizeof(int64_t))
            : 0;
    const std::string kept = KernelIndependentValues(
        committed.sections[i].payload.substr(fingerprints));
    ASSERT_FALSE(kept.empty());
    EXPECT_EQ(kept, KernelIndependentValues(
                        replayed.sections[i].payload.substr(fingerprints)));
  }
}

// The committed v3 chain (base + delta.1) has the layout a fresh replay
// of the generator's stream writes on this build. The v2 chain carries the
// same sections (DeltaFrameDecodesAtVersion3).
TEST(CheckpointGoldenTest, DeltaChainLayoutMatchesAReplay) {
  const std::string base_path =
      std::string(KVEC_TEST_DATA_DIR) + kDeltaGoldenV3Base;
  const std::string replay_path = "checkpoint_golden_test_replay.ckpt";
  KvecModel model = golden::MakeModel();
  ShardedStreamServer replayed(model, GoldenShardedConfig());
  ShardedStreamServer::IncrementalCheckpointState state;
  FeedGoldenRange(&replayed, 0, 120);
  ASSERT_TRUE(replayed.CheckpointIncremental(replay_path, 0, &state));
  FeedGoldenRange(&replayed, 120, 180);
  ASSERT_TRUE(replayed.CheckpointIncremental(replay_path, 0, &state));

  for (int64_t seq = 0; seq <= 1; ++seq) {
    SCOPED_TRACE("link " + std::to_string(seq));
    const std::string committed_path =
        seq == 0 ? base_path : ShardedStreamServer::DeltaPath(base_path, seq);
    const std::string replay_link =
        seq == 0 ? replay_path
                 : ShardedStreamServer::DeltaPath(replay_path, seq);
    Checkpoint committed;
    Checkpoint replay;
    ASSERT_TRUE(CheckpointLoad(committed_path, &committed));
    ASSERT_TRUE(CheckpointLoad(replay_link, &replay));
    ExpectSameLayout(committed, replay);
  }
  std::remove(ShardedStreamServer::DeltaPath(replay_path, 1).c_str());
  std::remove(replay_path.c_str());
}

// Each committed chain restores into a server that serves any
// continuation exactly as a fresh replay of the generator's 180 items
// does. Confidences may differ in their last bits on the scalar kernels
// (the restored K/V came from the native ones); keys, labels, causes and
// counts may not.
void ExpectChainRestoresIntoCompatibleServer(const std::string& base_path) {
  KvecModel model = golden::MakeModel();
  ShardedStreamServer restored(model, GoldenShardedConfig());
  ASSERT_TRUE(restored.RestoreFromCheckpointChain(base_path));
  EXPECT_EQ(restored.stats().items_processed, 180);

  ShardedStreamServer replayed(model, GoldenShardedConfig());
  FeedGoldenRange(&replayed, 0, 180);
  EXPECT_EQ(restored.open_keys(), replayed.open_keys());

  auto serve = [](ShardedStreamServer* server) {
    std::vector<StreamEvent> events;
    for (int i = 180; i < 300; ++i) {
      for (const StreamEvent& event :
           server->Observe(golden::StreamItem(i))) {
        events.push_back(event);
      }
    }
    for (const StreamEvent& event : server->Flush()) events.push_back(event);
    return events;
  };
  const std::vector<StreamEvent> want = serve(&replayed);
  const std::vector<StreamEvent> got = serve(&restored);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].predicted_label, want[i].predicted_label);
    EXPECT_EQ(got[i].observed_items, want[i].observed_items);
    EXPECT_EQ(got[i].cause, want[i].cause);
    EXPECT_NEAR(got[i].confidence, want[i].confidence, 1e-4);
  }
  const StreamServerStats got_stats = restored.stats();
  const StreamServerStats want_stats = replayed.stats();
  EXPECT_EQ(got_stats.items_processed, want_stats.items_processed);
  EXPECT_EQ(got_stats.sequences_classified, want_stats.sequences_classified);
  EXPECT_EQ(got_stats.class_counts, want_stats.class_counts);
}

TEST(CheckpointGoldenTest, DeltaChainRestoresIntoCompatibleServer) {
  for (const char* golden : {kDeltaGoldenBase, kDeltaGoldenV3Base}) {
    SCOPED_TRACE(golden);
    ExpectChainRestoresIntoCompatibleServer(std::string(KVEC_TEST_DATA_DIR) +
                                            golden);
  }
}

// A copy of each committed chain, restored with `state` and checkpointed
// twice more. A v3 chain grows: delta.2 and delta.3 follow the committed
// link. A v2 chain is never extended with v3 links: the next checkpoint
// writes a fresh base and drops the v2 delta, and a v3 delta.1 follows.
// Either way the chain on disk restores to the live server's state.
TEST(CheckpointGoldenTest, ContinuedChainsExtendAtV3AndRebaseAtV2) {
  const std::string copy_path = "checkpoint_golden_test_continued.ckpt";
  auto delta_path = [&copy_path](int64_t seq) {
    return ShardedStreamServer::DeltaPath(copy_path, seq);
  };
  auto remove_copy = [&] {
    for (int64_t seq = 3; seq >= 1; --seq) {
      std::remove(delta_path(seq).c_str());
    }
    std::remove(copy_path.c_str());
  };
  KvecModel model = golden::MakeModel();
  for (const bool v2 : {true, false}) {
    SCOPED_TRACE(v2 ? "v2 chain" : "v3 chain");
    const std::string golden =
        std::string(KVEC_TEST_DATA_DIR) +
        (v2 ? kDeltaGoldenBase : kDeltaGoldenV3Base);
    remove_copy();
    ASSERT_TRUE(AtomicWriteFile(copy_path, SlurpFile(golden)));
    ASSERT_TRUE(AtomicWriteFile(
        delta_path(1), SlurpFile(ShardedStreamServer::DeltaPath(golden, 1))));

    ShardedStreamServer server(model, GoldenShardedConfig());
    ShardedStreamServer::IncrementalCheckpointState state;
    ASSERT_TRUE(server.RestoreFromCheckpointChain(copy_path, &state));
    if (v2) {
      EXPECT_EQ(state.base_fingerprint, 0u);
      EXPECT_EQ(state.prev_fingerprint, 0u);
      EXPECT_EQ(state.deltas_written, 0);
    } else {
      EXPECT_EQ(state.base_fingerprint,
                CheckpointFingerprint(SlurpFile(copy_path)));
      EXPECT_EQ(state.prev_fingerprint,
                CheckpointFingerprint(SlurpFile(delta_path(1))));
      EXPECT_EQ(state.deltas_written, 1);
    }

    FeedGoldenRange(&server, 180, 240);
    ASSERT_TRUE(server.CheckpointIncremental(copy_path, 0, &state));
    FeedGoldenRange(&server, 240, 300);
    ASSERT_TRUE(server.CheckpointIncremental(copy_path, 0, &state));

    const int64_t last = v2 ? 1 : 3;
    EXPECT_EQ(state.deltas_written, last);
    if (v2) {
      // The fresh base holds items 0..239, so its bytes left the golden's.
      EXPECT_NE(SlurpFile(copy_path), SlurpFile(golden));
      EXPECT_EQ(state.base_fingerprint,
                CheckpointFingerprint(SlurpFile(copy_path)));
    } else {
      EXPECT_EQ(SlurpFile(copy_path), SlurpFile(golden));
    }
    for (int64_t seq = 1; seq <= last; ++seq) {
      Checkpoint delta;
      ASSERT_TRUE(CheckpointLoad(delta_path(seq), &delta)) << "seq " << seq;
      EXPECT_EQ(delta.version, kCheckpointDeltaFormatVersion) << "seq " << seq;
    }
    Checkpoint stale;
    EXPECT_FALSE(CheckpointLoad(delta_path(last + 1), &stale));

    ShardedStreamServer restored(model, GoldenShardedConfig());
    ASSERT_TRUE(restored.RestoreFromCheckpointChain(copy_path));
    EXPECT_EQ(restored.stats().items_processed, 300);
    EXPECT_EQ(restored.EncodeCheckpoint(), server.EncodeCheckpoint());
  }
  remove_copy();
}

}  // namespace
}  // namespace kvec
