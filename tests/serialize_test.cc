#include "util/serialize.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "data/types.h"
#include "gtest/gtest.h"
#include "net/frame.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace kvec {
namespace {

TEST(SerializeTest, RoundTripAllTypes) {
  BinaryWriter writer;
  writer.WriteInt32(-42);
  writer.WriteInt64(1234567890123LL);
  writer.WriteFloat(3.25f);
  writer.WriteString("hello kvec");
  writer.WriteFloatVector({1.0f, -2.5f, 0.0f});
  writer.WriteIntVector({7, 8, 9});

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadInt32(), -42);
  EXPECT_EQ(reader.ReadInt64(), 1234567890123LL);
  EXPECT_EQ(reader.ReadFloat(), 3.25f);
  EXPECT_EQ(reader.ReadString(), "hello kvec");
  EXPECT_EQ(reader.ReadFloatVector(), (std::vector<float>{1.0f, -2.5f, 0.0f}));
  EXPECT_EQ(reader.ReadIntVector(), (std::vector<int>{7, 8, 9}));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.ok());
}

// A count written as a placeholder and patched after the records it counts
// gives the bytes of writing it directly, also when the records grow the
// buffer past its first megabyte (a remap that moves it) in between.
TEST(SerializeTest, PatchedPlaceholderMatchesADirectWrite) {
  const std::vector<int> records(600000, 7);
  BinaryWriter patched;
  patched.WriteInt64(5);
  const size_t at = patched.WriteInt32Placeholder();
  patched.WriteIntVector(records);
  patched.PatchInt32(at, -123456);

  BinaryWriter direct;
  direct.WriteInt64(5);
  direct.WriteInt32(-123456);
  direct.WriteIntVector(records);
  EXPECT_EQ(patched.view(), direct.view());
}

TEST(SerializeTest, EmptyContainers) {
  BinaryWriter writer;
  writer.WriteString("");
  writer.WriteFloatVector({});
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_TRUE(reader.ok());
}

TEST(SerializeTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/kvec_serialize_test.bin";
  BinaryWriter writer;
  writer.WriteInt32(99);
  writer.WriteFloatVector({0.5f, 1.5f});
  ASSERT_TRUE(AtomicWriteFile(path, writer.view()));

  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  BinaryReader reader(bytes);
  EXPECT_EQ(reader.ReadInt32(), 99);
  EXPECT_EQ(reader.ReadFloatVector(), (std::vector<float>{0.5f, 1.5f}));
  EXPECT_TRUE(reader.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileReportsNotOk) {
  std::string bytes;
  EXPECT_FALSE(ReadFileBytes("/nonexistent/kvec.bin", &bytes));
}

// ---- Fail-closed reads (the reader must never abort, allocate huge
// buffers, or read out of bounds on untrusted bytes). ----

TEST(SerializeTest, TypeMismatchFailsClosed) {
  BinaryWriter writer;
  writer.WriteInt32(1);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadFloat(), 0.0f);
  EXPECT_FALSE(reader.ok());
  // Once failed, every later read fails too — even one the bytes could
  // have satisfied.
  EXPECT_EQ(reader.ReadInt32(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, TruncatedVectorFailsClosed) {
  BinaryWriter writer;
  writer.WriteFloatVector({1.0f, 2.0f, 3.0f});
  std::string truncated = writer.buffer().substr(0, 10);
  BinaryReader reader(truncated);
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, EveryTruncationPointFailsClosed) {
  BinaryWriter writer;
  writer.WriteInt32(7);
  writer.WriteString("abc");
  writer.WriteIntVector({1, 2, 3});
  const std::string& full = writer.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader reader(full.substr(0, cut));
    reader.ReadInt32();
    reader.ReadString();
    reader.ReadIntVector();
    EXPECT_FALSE(reader.ok()) << "cut at " << cut;
  }
}

TEST(SerializeTest, OversizedLengthPrefixFailsWithoutAllocating) {
  // Hand-craft a float vector whose length prefix claims 2^60 elements:
  // the reader must reject it by comparing against the bytes remaining,
  // not by trying to allocate.
  BinaryWriter writer;
  writer.WriteFloatVector({1.0f, 2.0f});
  std::string bytes = writer.buffer();
  const int64_t huge = int64_t{1} << 60;
  std::memcpy(&bytes[4], &huge, sizeof(huge));  // after the 4-byte tag
  BinaryReader reader(bytes);
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, NegativeLengthPrefixFailsClosed) {
  BinaryWriter writer;
  writer.WriteString("abcd");
  std::string bytes = writer.buffer();
  const int64_t negative = -5;
  std::memcpy(&bytes[4], &negative, sizeof(negative));
  BinaryReader reader(bytes);
  EXPECT_TRUE(reader.ReadString().empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, RemainingTracksConsumption) {
  BinaryWriter writer;
  writer.WriteInt32(5);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.remaining(), writer.buffer().size());
  reader.ReadInt32();
  EXPECT_EQ(reader.remaining(), 0u);
}

// Writes `count` as an element count followed by `elements` int32s (8
// bytes each on the wire).
std::string CountedInts(int32_t count, int elements) {
  BinaryWriter writer;
  writer.WriteInt32(count);
  for (int i = 0; i < elements; ++i) writer.WriteInt32(i);
  return writer.buffer();
}

TEST(ReadCountTest, NegativeCountFailsClosed) {
  BinaryReader reader(CountedInts(-1, 2));
  EXPECT_EQ(reader.ReadCount(kMinTaggedValueBytes), 0);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadInt32(), 0);  // and stays failed
}

TEST(ReadCountTest, ExactlyBackedCountPasses) {
  BinaryReader reader(CountedInts(3, 3));
  EXPECT_EQ(reader.ReadCount(kMinTaggedValueBytes), 3);
  EXPECT_TRUE(reader.ok());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(reader.ReadInt32(), i);
  EXPECT_TRUE(reader.AtEnd());

  BinaryReader empty(CountedInts(0, 0));
  EXPECT_EQ(empty.ReadCount(kMinTaggedValueBytes), 0);
  EXPECT_TRUE(empty.ok());
}

TEST(ReadCountTest, CountOneOverTheBytesFailsClosed) {
  BinaryReader reader(CountedInts(4, 3));
  EXPECT_EQ(reader.ReadCount(kMinTaggedValueBytes), 0);
  EXPECT_FALSE(reader.ok());
  // The per-element floor scales the bound: three 8-byte values back one
  // 24-byte element, not two.
  BinaryReader wide(CountedInts(2, 3));
  EXPECT_EQ(wide.ReadCount(3 * kMinTaggedValueBytes), 0);
  EXPECT_FALSE(wide.ok());
}

TEST(ReadCountTest, AlreadyFailedReaderStaysFailed) {
  BinaryWriter writer;
  writer.WriteFloat(1.0f);
  writer.WriteInt32(0);  // a count that would pass on a healthy reader
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadInt32(), 0);  // tag mismatch fails the reader
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadCount(kMinTaggedValueBytes), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(ReadCountTest, DecodeItemsRejectsAnUnbackedItemCount) {
  const std::vector<Item> sent = {{1, {2}, 0.5}, {3, {4, 5}, 1.5}};
  std::string payload = net::EncodeItems(sent);
  std::vector<Item> decoded;
  ASSERT_TRUE(net::DecodeItems(payload, &decoded));
  ASSERT_EQ(decoded.size(), sent.size());

  // The count sits after its 4-byte tag. A count the item bytes cannot back
  // fails at the guard, before DecodeItems clears or reserves its output.
  const int32_t unbacked = 1 << 20;
  std::memcpy(&payload[4], &unbacked, sizeof(unbacked));
  EXPECT_FALSE(net::DecodeItems(payload, &decoded));
  EXPECT_EQ(decoded.size(), sent.size());
}

// ---- Checkpoint container ----

Checkpoint MakeTwoSectionCheckpoint() {
  Checkpoint checkpoint;
  // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
  checkpoint.sections.push_back({1, std::string("alpha")});
  // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
  checkpoint.sections.push_back({7, std::string("\x00\x01\x02", 3)});
  return checkpoint;
}

TEST(CheckpointContainerTest, EncodeDecodeRoundTrip) {
  const std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  Checkpoint decoded;
  ASSERT_TRUE(CheckpointDecode(bytes, &decoded));
  EXPECT_EQ(decoded.version, kCheckpointFormatVersion);
  ASSERT_EQ(decoded.sections.size(), 2u);
  EXPECT_EQ(decoded.sections[0].id, 1);
  EXPECT_EQ(decoded.sections[0].payload, "alpha");
  EXPECT_EQ(decoded.sections[1].id, 7);
  EXPECT_EQ(decoded.sections[1].payload, std::string("\x00\x01\x02", 3));
  ASSERT_NE(decoded.Find(7), nullptr);
  EXPECT_EQ(decoded.Find(7)->payload.size(), 3u);
  EXPECT_EQ(decoded.Find(99), nullptr);
}

TEST(CheckpointContainerTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/kvec_checkpoint_test.ckpt";
  ASSERT_TRUE(CheckpointSave(path, MakeTwoSectionCheckpoint()));
  Checkpoint decoded;
  ASSERT_TRUE(CheckpointLoad(path, &decoded));
  EXPECT_EQ(decoded.sections.size(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointContainerTest, RejectsBadMagic) {
  std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  bytes[0] ^= 0xff;
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(bytes, &decoded));
}

TEST(CheckpointContainerTest, RejectsFutureVersion) {
  Checkpoint future = MakeTwoSectionCheckpoint();
  future.version = kCheckpointMaxFormatVersion + 1;
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(CheckpointEncode(future), &decoded));
  future.version = 0;
  EXPECT_FALSE(CheckpointDecode(CheckpointEncode(future), &decoded));
}

TEST(CheckpointContainerTest, AcceptsEveryKnownVersion) {
  for (int32_t v = kCheckpointFormatVersion; v <= kCheckpointMaxFormatVersion;
       ++v) {
    Checkpoint known = MakeTwoSectionCheckpoint();
    known.version = v;
    Checkpoint decoded;
    ASSERT_TRUE(CheckpointDecode(CheckpointEncode(known), &decoded));
    EXPECT_EQ(decoded.version, v);
  }
}

TEST(AtomicWriteFileTest, WritesAndReplaces) {
  const std::string path = ::testing::TempDir() + "/atomic_write_test.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "first"));
  ASSERT_TRUE(AtomicWriteFile(path, std::string("\x00second\xff", 9)));
  std::ifstream in(path, std::ios::binary);
  std::string read((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(read, std::string("\x00second\xff", 9));
  std::remove(path.c_str());
}

TEST(CheckpointFingerprintTest, SensitiveToEveryByte) {
  const std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  const uint64_t base = CheckpointFingerprint(bytes);
  EXPECT_EQ(base, CheckpointFingerprint(bytes));  // deterministic
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(CheckpointFingerprint(mutated), base) << "byte " << i;
  }
}

// Published XXH64 (seed 0) vectors: the empty input, inputs shorter than
// one 32-byte stripe, and one longer than a stripe.
TEST(Xxh64Test, MatchesPublishedVectors) {
  EXPECT_EQ(CheckpointFingerprint(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(CheckpointFingerprint("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(CheckpointFingerprint("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(CheckpointFingerprint("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
}

// Fed in pieces, the streaming hash gives the one-shot digest whatever the
// split points: random ones, and ones 1-31 bytes either side of a stripe
// boundary, so every carry length is exercised.
TEST(Xxh64Test, StreamingEqualsOneShot) {
  Rng rng(20261020);
  std::string bytes(1000, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.NextInt(256));
  auto streamed = [&bytes](const std::vector<size_t>& cuts) {
    Xxh64 hash;
    size_t from = 0;
    for (const size_t cut : cuts) {
      hash.Update(bytes.data() + from, cut - from);
      from = cut;
    }
    hash.Update(bytes.data() + from, bytes.size() - from);
    return hash.Digest();
  };
  const uint64_t want = CheckpointFingerprint(bytes);
  for (size_t stripe = 1; stripe <= 3; ++stripe) {
    for (size_t offset = 1; offset < Xxh64::kStripeBytes; ++offset) {
      const size_t boundary = stripe * Xxh64::kStripeBytes;
      EXPECT_EQ(streamed({boundary - offset}), want)
          << "cut " << offset << " before stripe " << stripe;
      EXPECT_EQ(streamed({boundary + offset}), want)
          << "cut " << offset << " after stripe " << stripe;
      EXPECT_EQ(streamed({boundary - offset, boundary + offset}), want)
          << offset << " bytes either side of stripe " << stripe;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<size_t> cuts;
    const int pieces = 1 + rng.NextInt(12);
    for (int i = 0; i < pieces; ++i) {
      cuts.push_back(static_cast<size_t>(
          rng.NextInt(static_cast<int>(bytes.size()) + 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    EXPECT_EQ(streamed(cuts), want) << "trial " << trial;
  }
}

// The v2 chain verifier stays FNV-1a 64 (published vectors).
TEST(CheckpointFingerprintTest, VersionTwoIsFnv1a) {
  EXPECT_EQ(CheckpointFingerprintV2(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(CheckpointFingerprintV2("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(CheckpointFingerprintV2("foobar"), 0x85944171f73967e8ull);
}

TEST(CheckpointContainerTest, RejectsEveryTruncationPoint) {
  const std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Checkpoint decoded;
    EXPECT_FALSE(CheckpointDecode(bytes.substr(0, cut), &decoded))
        << "cut at " << cut;
  }
}

TEST(CheckpointContainerTest, RejectsTrailingGarbage) {
  std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  bytes.push_back('x');
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(bytes, &decoded));
}

TEST(CheckpointContainerTest, RejectsOversizedSectionCount) {
  std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  const int32_t huge = 1 << 30;
  std::memcpy(&bytes[8], &huge, sizeof(huge));  // section-count field
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(bytes, &decoded));
}

// ---- Byte identity of the inline writer ----

// The wire format spelled out independently of BinaryWriter: a 4-byte tag,
// then the raw value, or an int64 element count and the raw elements.
class ReferenceEncoder {
 public:
  void Int32(int32_t value) { Tagged(0x4b561001, &value, sizeof(value)); }
  void Int64(int64_t value) { Tagged(0x4b561002, &value, sizeof(value)); }
  void Float(float value) { Tagged(0x4b561003, &value, sizeof(value)); }
  void Double(double value) { Tagged(0x4b561007, &value, sizeof(value)); }
  void String(const std::string& value) {
    Sized(0x4b561004, value.data(), value.size(), 1);
  }
  void Floats(const std::vector<float>& values) {
    Sized(0x4b561005, values.data(), values.size(), sizeof(float));
  }
  void Ints(const std::vector<int>& values) {
    Sized(0x4b561006, values.data(), values.size(), sizeof(int));
  }
  const std::string& bytes() const { return bytes_; }

 private:
  void Raw(const void* data, size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }
  void Tagged(int32_t tag, const void* value, size_t size) {
    Raw(&tag, sizeof(tag));
    Raw(value, size);
  }
  void Sized(int32_t tag, const void* values, size_t count, size_t elem) {
    const int64_t length = static_cast<int64_t>(count);
    Raw(&tag, sizeof(tag));
    Raw(&length, sizeof(length));
    if (count != 0) Raw(values, count * elem);
  }
  std::string bytes_;
};

// Seeded random sequences of every Write* kind — including empty vectors
// and strings and vectors large enough to jump several growth steps at
// once — must produce exactly the reference bytes, past 1 MB in total.
TEST(BinaryWriterBytesTest, MatchesReferenceEncoderOnRandomSequences) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    BinaryWriter writer;
    ReferenceEncoder reference;
    size_t checked_up_to = 0;
    while (reference.bytes().size() < (size_t{3} << 19)) {
      // Mostly short vectors; now and then a long one (up to 64k elements).
      const int length = rng.NextBernoulli(0.02) ? rng.NextInt(1 << 16)
                         : rng.NextBernoulli(0.2) ? 0
                                                  : rng.NextInt(40);
      switch (rng.NextInt(9)) {
        case 0: {
          const int32_t v = static_cast<int32_t>(rng.NextUint64());
          writer.WriteInt32(v);
          reference.Int32(v);
          break;
        }
        case 1: {
          const int64_t v = static_cast<int64_t>(rng.NextUint64());
          writer.WriteInt64(v);
          reference.Int64(v);
          break;
        }
        case 2: {
          const float v = static_cast<float>(rng.NextGaussian());
          writer.WriteFloat(v);
          reference.Float(v);
          break;
        }
        case 3: {
          const double v = rng.NextGaussian();
          writer.WriteDouble(v);
          reference.Double(v);
          break;
        }
        case 4: {
          std::string v(static_cast<size_t>(length), '\0');
          for (char& c : v) c = static_cast<char>(rng.NextInt(256));
          writer.WriteString(v);
          reference.String(v);
          break;
        }
        case 5:
        case 6: {
          std::vector<float> v(static_cast<size_t>(length));
          for (float& x : v) x = static_cast<float>(rng.NextGaussian());
          if (rng.NextBernoulli(0.5)) {
            writer.WriteFloatVector(v);
          } else {
            writer.WriteFloats(v.data(), v.size());
          }
          reference.Floats(v);
          break;
        }
        default: {
          std::vector<int> v(static_cast<size_t>(length));
          for (int& x : v) x = static_cast<int>(rng.NextUint64());
          if (rng.NextBernoulli(0.5)) {
            writer.WriteIntVector(v);
          } else {
            writer.WriteInts(v.data(), v.size());
          }
          reference.Ints(v);
          break;
        }
      }
      // Compare the new suffix after every write, so a mismatch names the
      // write that caused it.
      ASSERT_EQ(writer.view().size(), reference.bytes().size())
          << "seed " << seed;
      ASSERT_EQ(writer.view().substr(checked_up_to),
                std::string_view(reference.bytes()).substr(checked_up_to))
          << "seed " << seed << " at byte " << checked_up_to;
      checked_up_to = reference.bytes().size();
    }
    EXPECT_EQ(writer.buffer(), reference.bytes());

    // Copies carry the same bytes; a moved-from writer is empty and
    // reusable.
    BinaryWriter copy = writer;
    EXPECT_EQ(copy.view(), writer.view());
    BinaryWriter moved = std::move(copy);
    EXPECT_EQ(moved.view(), writer.view());
    EXPECT_TRUE(copy.view().empty());  // NOLINT(bugprone-use-after-move)
    copy.WriteInt32(5);
    ReferenceEncoder five;
    five.Int32(5);
    EXPECT_EQ(copy.buffer(), five.bytes());
  }
}

// Clear keeps the buffer (a heap block, or from 1 MB on a mapping) and
// drops its bytes: what is written after it reads exactly as a fresh
// writer's bytes, with nothing left over from the longer contents before.
TEST(BinaryWriterBytesTest, ClearedWriterWritesLikeAFreshOne) {
  BinaryWriter writer;
  for (size_t large : {size_t{100}, size_t{3} << 19}) {
    SCOPED_TRACE(large);
    const std::vector<int> big(large, 7);
    writer.WriteInts(big.data(), big.size());
    writer.Clear();
    EXPECT_TRUE(writer.view().empty());
    BinaryWriter fresh;
    for (BinaryWriter* target : {&writer, &fresh}) {
      target->WriteInt32(-3);
      target->WriteString("after clear");
    }
    EXPECT_EQ(writer.buffer(), fresh.buffer());
    writer.Clear();
  }
}

// ---- CheckpointWrite: the one atomic checkpoint file writer ----

std::string SlurpFile(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes)) << path;
  return bytes;
}

bool FileExists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

TEST(CheckpointWriteTest, FileEqualsEncodeAndFingerprintEqualsFile) {
  // A large payload (several write chunks) between an empty one and a
  // short one.
  BinaryWriter big;
  for (int i = 0; i < 200000; ++i) big.WriteInt32(i * 7919);
  for (const int32_t version :
       {kCheckpointFormatVersion, kCheckpointDeltaFormatVersion}) {
    Checkpoint checkpoint;
    checkpoint.version = version;
    // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
    checkpoint.sections.push_back({3, std::string()});
    // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
    checkpoint.sections.push_back({9, big.buffer()});
    // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
    checkpoint.sections.push_back({4, std::string("\x00tail", 5)});
    std::vector<CheckpointSectionView> views;
    for (const CheckpointSection& section : checkpoint.sections) {
      views.push_back({section.id, section.payload});
    }

    const std::string path = ::testing::TempDir() + "/kvec_ckpt_write.ckpt";
    uint64_t fingerprint = 0;
    ASSERT_TRUE(CheckpointWrite(path, version, views, &fingerprint));
    const std::string file = SlurpFile(path);
    EXPECT_EQ(file, CheckpointEncode(checkpoint));
    EXPECT_EQ(fingerprint, CheckpointFingerprint(file));
    EXPECT_FALSE(FileExists(path + ".tmp"));

    // CheckpointSave frames through the same writer.
    ASSERT_TRUE(CheckpointSave(path, checkpoint));
    EXPECT_EQ(SlurpFile(path), file);
    std::remove(path.c_str());
  }
}

TEST(CheckpointWriteTest, UnwritablePathFails) {
  uint64_t fingerprint = 42;
  EXPECT_FALSE(CheckpointWrite("/nonexistent/dir/kvec.ckpt",
                               kCheckpointFormatVersion, {}, &fingerprint));
  EXPECT_EQ(fingerprint, 42u);  // untouched on failure
}

// Fails every write to a checkpoint's ".tmp" file after the first
// `good_writes`, like a disk filling up part-way through a save.
// The count lives outside the hook because every firing runs a copy of it.
void FailWritesAfter(int good_writes) {
  auto writes = std::make_shared<int>(0);
  FaultInjection::Arm("checkpoint.write", [good_writes, writes](const char*) {
    return ++*writes > good_writes;
  });
}

// A full save that fails after it started writing must return false and
// leave the previous file byte-identical (the bug: CheckpointSave used to
// truncate the target in place before writing).
TEST(CheckpointWriteTest, FailedSaveKeepsTheOldFile) {
  const std::string path = ::testing::TempDir() + "/kvec_atomic_save.ckpt";
  Checkpoint old_checkpoint = MakeTwoSectionCheckpoint();
  ASSERT_TRUE(CheckpointSave(path, old_checkpoint));
  const std::string old_bytes = SlurpFile(path);

  Checkpoint replacement = MakeTwoSectionCheckpoint();
  replacement.sections[0].payload = std::string(1 << 20, 'n');
  // Header (3 writes) and the first section (3 writes) land in the .tmp;
  // the second section's header fails.
  for (const int good_writes : {0, 3, 6}) {
    FailWritesAfter(good_writes);
    EXPECT_FALSE(CheckpointSave(path, replacement)) << good_writes;
    EXPECT_GE(FaultInjection::FireCount("checkpoint.write"), good_writes + 1);
    FaultInjection::DisarmAll();
    EXPECT_EQ(SlurpFile(path), old_bytes) << good_writes;
    EXPECT_FALSE(FileExists(path + ".tmp")) << good_writes;
  }
  ASSERT_TRUE(CheckpointSave(path, replacement));  // and a retry succeeds
  EXPECT_EQ(SlurpFile(path), CheckpointEncode(replacement));
  std::remove(path.c_str());
}

TEST(CheckpointWriteTest, FailedAtomicWriteKeepsTheOldFile) {
  const std::string path = ::testing::TempDir() + "/kvec_atomic_params.bin";
  BinaryWriter old_writer;
  old_writer.WriteFloatVector({1.0f, 2.0f});
  ASSERT_TRUE(AtomicWriteFile(path, old_writer.view()));

  BinaryWriter new_writer;
  new_writer.WriteFloatVector(std::vector<float>(1 << 18, 3.0f));
  FailWritesAfter(0);
  EXPECT_FALSE(AtomicWriteFile(path, new_writer.view()));
  FaultInjection::DisarmAll();
  EXPECT_EQ(SlurpFile(path), old_writer.buffer());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(ReadFileBytesTest, ReadsWholeFileAndReportsMissing) {
  const std::string path = ::testing::TempDir() + "/kvec_read_bytes.bin";
  std::string bytes(300000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131);
  }
  ASSERT_TRUE(AtomicWriteFile(path, bytes));
  std::string read = "stale";
  ASSERT_TRUE(ReadFileBytes(path, &read));
  EXPECT_EQ(read, bytes);
  ASSERT_TRUE(AtomicWriteFile(path, ""));
  ASSERT_TRUE(ReadFileBytes(path, &read));
  EXPECT_TRUE(read.empty());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFileBytes(path, &read));
  // A directory opens for reading but is not a file to load.
  EXPECT_FALSE(ReadFileBytes(::testing::TempDir(), &read));
  Checkpoint checkpoint;
  EXPECT_FALSE(CheckpointLoad(::testing::TempDir(), &checkpoint));
}

}  // namespace
}  // namespace kvec
