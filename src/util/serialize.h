// Minimal binary serialisation for model and serving-state checkpoints.
//
// Format: little-endian, length-prefixed. Writers/readers are symmetric and
// every value carries a magic tag per kind, so truncated or mismatched
// bytes fail loudly instead of producing garbage parameters.
//
// BinaryReader fails CLOSED: any read past the end of the buffer, any tag
// mismatch, and any implausible length prefix (negative, or larger than the
// bytes actually remaining) flips ok() to false and returns a zero/empty
// value. Once failed, every later read also fails and the buffer position
// stops advancing — callers can run a whole restore sequence and check
// ok() once at the end, and corrupted input can never trigger an abort, an
// oversized allocation, or an out-of-bounds copy. (Earlier revisions
// aborted via KVEC_CHECK and trusted length prefixes, which made every
// caller responsible for pre-validating untrusted bytes.)
//
// On top of the value layer sits the checkpoint container used for serving
// state (StreamServer / ShardedStreamServer): a magic number, a format
// version, and length-prefixed sections keyed by an integer id. Readers
// skip sections whose id they do not recognise, so a version bump is only
// needed when an existing section's payload layout changes.
//
// Three container versions exist today:
//   * version 1 — full checkpoints (the complete serving state; the layout
//     pinned byte-for-byte by tests/data/stream_server_v1.ckpt).
//   * version 2 — delta checkpoints (docs/SERVING.md "Incremental
//     checkpoints"): a chain manifest carrying the base checkpoint's
//     fingerprint plus one dirty-key delta section per shard. Deltas never
//     stand alone; they are applied on top of a restored version-1 base in
//     chain order, with fingerprint linkage validated link by link. The
//     manifest's fingerprints are FNV-1a 64 (CheckpointFingerprintV2).
//     Read-only: nothing writes version 2 any more.
//   * version 3 — the same delta sections and manifest layout, with XXH64
//     fingerprints (CheckpointFingerprint). The only delta version written.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace kvec {

// Per-kind value tags (shared by BinaryWriter's inline writes and
// BinaryReader's checks).
namespace serialize_internal {
inline constexpr int32_t kTagInt32 = 0x4b561001;
inline constexpr int32_t kTagInt64 = 0x4b561002;
inline constexpr int32_t kTagFloat = 0x4b561003;
inline constexpr int32_t kTagString = 0x4b561004;
inline constexpr int32_t kTagFloatVec = 0x4b561005;
inline constexpr int32_t kTagIntVec = 0x4b561006;
inline constexpr int32_t kTagDouble = 0x4b561007;
}  // namespace serialize_internal

// Bytes of the smallest tagged value (an int32: tag plus payload), the
// floor BinaryReader::ReadCount callers pass for lists of records.
inline constexpr size_t kMinTaggedValueBytes = 8;

// Appends tagged values to a growable byte buffer. Every write is inline:
// one capacity check, then the tag, any length prefix and the value are
// copied in place. The buffer doubles when full and is never zero-filled:
// below 1 MB it is a heap block grown with realloc; from 1 MB on it is an
// anonymous mapping of its own, grown by remapping its pages rather than
// copying them and unmapped when the writer dies (Clear keeps it).
// Checkpoint snapshots write tens of MB through here one value at a time.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter& other);
  BinaryWriter(BinaryWriter&& other) noexcept;
  BinaryWriter& operator=(const BinaryWriter&) = delete;
  BinaryWriter& operator=(BinaryWriter&&) = delete;

  void WriteInt32(int32_t value) {
    WriteScalar(serialize_internal::kTagInt32, value);
  }
  void WriteInt64(int64_t value) {
    WriteScalar(serialize_internal::kTagInt64, value);
  }
  void WriteFloat(float value) {
    WriteScalar(serialize_internal::kTagFloat, value);
  }
  void WriteDouble(double value) {
    WriteScalar(serialize_internal::kTagDouble, value);
  }
  void WriteString(const std::string& value) {
    WriteSized(serialize_internal::kTagString, value.data(), value.size(), 1);
  }
  void WriteFloatVector(const std::vector<float>& values) {
    WriteFloats(values.data(), values.size());
  }
  // Same wire format as WriteFloatVector, straight from a raw buffer (no
  // intermediate std::vector copy; used by the encoder arena snapshot).
  void WriteFloats(const float* values, size_t count) {
    WriteSized(serialize_internal::kTagFloatVec, values, count, sizeof(float));
  }
  void WriteIntVector(const std::vector<int>& values) {
    WriteInts(values.data(), values.size());
  }
  // Same wire format as WriteIntVector, straight from a raw buffer (used by
  // the pmr-backed per-key state, whose vectors are not std::vector).
  void WriteInts(const int* values, size_t count) {
    WriteSized(serialize_internal::kTagIntVec, values, count, sizeof(int));
  }

  // Writes an int32 whose value is not known yet and returns where it
  // starts; PatchInt32 sets it later. A record list writes its count this
  // way ahead of records it filters while writing, without collecting them
  // first.
  size_t WriteInt32Placeholder() {
    const size_t at = size_;
    WriteInt32(0);
    return at;
  }
  void PatchInt32(size_t at, int32_t value) {
    std::memcpy(data_ + at + sizeof(serialize_internal::kTagInt32), &value,
                sizeof(value));
  }

  // Drops the bytes written so far and keeps the buffer, so the next
  // writes land in pages that are already mapped and faulted in.
  void Clear() { size_ = 0; }

  // The bytes written so far; valid until the next write, Clear or move.
  std::string_view view() const { return {data_, size_}; }
  // A copy of the bytes written so far.
  std::string buffer() const { return std::string(view()); }

 private:
  // Reserves `size` more bytes at the end and returns where they start.
  char* Extend(size_t size) {
    if (size > capacity_ - size_) Grow(size);
    char* out = data_ + size_;
    size_ += size;
    return out;
  }
  // Out-of-line slow path: at least doubles the capacity.
  void Grow(size_t size);

  template <typename T>
  void WriteScalar(int32_t tag, T value) {
    char* out = Extend(sizeof(tag) + sizeof(value));
    std::memcpy(out, &tag, sizeof(tag));
    std::memcpy(out + sizeof(tag), &value, sizeof(value));
  }

  void WriteSized(int32_t tag, const void* values, size_t count,
                  size_t elem_size) {
    const int64_t length = static_cast<int64_t>(count);
    const size_t bytes = count * elem_size;
    char* out = Extend(sizeof(tag) + sizeof(length) + bytes);
    std::memcpy(out, &tag, sizeof(tag));
    std::memcpy(out + sizeof(tag), &length, sizeof(length));
    // Empty containers hand over a null data().
    if (bytes != 0) {
      std::memcpy(out + sizeof(tag) + sizeof(length), values, bytes);
    }
  }

  char* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
  bool mapped_ = false;  // data_ is a mapping of capacity_ bytes
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string buffer);

  // All reads fail closed: on truncation, tag mismatch, or a bad length
  // prefix they set ok() to false and return 0 / an empty value.
  int32_t ReadInt32();
  int64_t ReadInt64();
  float ReadFloat();
  double ReadDouble();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  std::vector<int> ReadIntVector();
  // Reads the int32 element count of a record list whose every element
  // takes at least `min_bytes_per_element` bytes. A negative count, or one
  // the bytes left after it cannot back, fails the reader, so a corrupted
  // count can never drive a reserve or spin a loop over a near-empty
  // reader. Returns 0 on failure.
  int32_t ReadCount(size_t min_bytes_per_element);

  bool ok() const { return ok_; }
  bool AtEnd() const { return position_ == buffer_.size(); }
  // Bytes not yet consumed.
  size_t remaining() const { return buffer_.size() - position_; }

 private:
  // Returns false (and fails the reader) instead of reading past the end.
  bool Consume(void* data, size_t size);
  // Reads and validates the tag of one value.
  bool ConsumeTag(int32_t expected);
  // Reads a length prefix and validates 0 <= size and size * elem_size <=
  // remaining(); on failure fails the reader and returns false.
  bool ConsumeSize(size_t elem_size, int64_t* size);
  void Fail() { ok_ = false; }

  std::string buffer_;
  size_t position_ = 0;
  bool ok_ = true;
};

// ---- Checkpoint container ------------------------------------------------
//
// Layout (all raw little-endian, no per-value tags at the frame level):
//   uint32  magic          'KVCP'
//   int32   format version
//   int32   section count
//   per section:
//     int32 id
//     int64 payload length in bytes
//     byte* payload
//
// Payloads are opaque to the container (by convention they are BinaryWriter
// value streams). Unknown section ids are preserved by decode; consumers
// skip what they do not recognise.

inline constexpr uint32_t kCheckpointMagic = 0x4b564350u;  // "PCVK" on disk
// Version 1: full checkpoints. Pinned byte-for-byte by the v1 golden; a
// `Checkpoint` defaults to this so the full path can never silently drift.
inline constexpr int32_t kCheckpointFormatVersion = 1;
// Version 3: delta checkpoints (chain manifest + per-shard dirty-key
// deltas) linked by XXH64. Only `ShardedStreamServer::CheckpointIncremental`
// emits these. Version 2 (the same layout linked by FNV-1a) is read-only.
inline constexpr int32_t kCheckpointDeltaFormatVersion = 3;
inline constexpr int32_t kCheckpointFnvDeltaFormatVersion = 2;
// Highest version CheckpointDecode accepts.
inline constexpr int32_t kCheckpointMaxFormatVersion = kCheckpointDeltaFormatVersion;

// ---- Section-id registry -------------------------------------------------
//
// Every section id in the checkpoint container namespace is defined here and
// nowhere else (enforced by the `section-id` lint rule), so two subsystems
// can never collide on an id without the clash being visible in one file.
//
// Serving state (full checkpoints, version 1). The plain layout (one
// StreamServer section, the v1 golden's) is read-only: only a 1-shard
// ShardedStreamServer still reads it, and nothing writes it.
inline constexpr int32_t kCheckpointSectionStreamServer = 1;
inline constexpr int32_t kCheckpointSectionShardManifest = 2;
inline constexpr int32_t kCheckpointSectionShard = 3;
// Delta chains (versions 2 and 3):
inline constexpr int32_t kCheckpointSectionDeltaManifest = 4;
inline constexpr int32_t kCheckpointSectionShardDelta = 5;
// Model bundles (src/cli/model_io.h owns the payload layouts):
inline constexpr int32_t kCheckpointSectionModelConfig = 16;
inline constexpr int32_t kCheckpointSectionModelParams = 17;

struct CheckpointSection {
  int32_t id = 0;
  std::string payload;
};

struct Checkpoint {
  int32_t version = kCheckpointFormatVersion;
  std::vector<CheckpointSection> sections;

  // First section with this id, or nullptr.
  const CheckpointSection* Find(int32_t id) const;
};

// Parses `bytes`; returns false (leaving `*out` unspecified) on a bad
// magic, an unknown future version, a malformed frame, or truncation.
// Never aborts and never allocates more than `bytes.size()` payload.
bool CheckpointDecode(const std::string& bytes, Checkpoint* out);

// One section of a checkpoint about to be written, borrowing its payload
// (typically a BinaryWriter's view()) instead of copying it.
struct CheckpointSectionView {
  int32_t id = 0;
  std::string_view payload;
};

// Writes the checkpoint framed from `version` and `sections` to `path`:
// the header and each payload go straight to a sibling ".tmp" file, which
// is renamed over `path` once complete, so a failure or crash mid-write
// leaves either the old file or the complete new one, never a torn one.
// The file's bytes equal CheckpointEncode of the same sections. XXH64 is
// folded over them in the same pass; on success `*fingerprint` (if
// non-null) receives CheckpointFingerprint of the file. Returns false on
// I/O failure, having removed the ".tmp" file.
bool CheckpointWrite(const std::string& path, int32_t version,
                     const std::vector<CheckpointSectionView>& sections,
                     uint64_t* fingerprint = nullptr);

// Frames a checkpoint into a byte string (always succeeds). The view form
// frames straight from borrowed payloads, with no copy before the framing.
std::string CheckpointEncode(int32_t version,
                             const std::vector<CheckpointSectionView>& sections);
std::string CheckpointEncode(const Checkpoint& checkpoint);

// File entry points: Save frames + writes atomically (CheckpointWrite),
// Load reads + parses.
bool CheckpointSave(const std::string& path, int32_t version,
                    const std::vector<CheckpointSectionView>& sections);
bool CheckpointSave(const std::string& path, const Checkpoint& checkpoint);
bool CheckpointLoad(const std::string& path, Checkpoint* out);

// ---- Fingerprints ----------------------------------------------------------
//
// XXH64 with seed 0 (Collet, xxHash specification,
// https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md), fed in
// pieces of any size: Update carries the tail of an unfinished 32-byte
// stripe over to the next call, so a digest depends only on the
// concatenated bytes, not on how they were split. Each stripe feeds four
// independent 8-byte lanes, where FNV-1a waits on one multiply per byte.
class Xxh64 {
 public:
  static constexpr size_t kStripeBytes = 32;

  Xxh64();
  void Update(const void* data, size_t size);
  // The hash of every byte passed to Update so far; Update may go on.
  uint64_t Digest() const;

 private:
  uint64_t lanes_[4];
  uint64_t total_ = 0;
  unsigned char carry_[kStripeBytes];
  size_t carry_size_ = 0;
};

// XXH64 of the encoded bytes. Version-3 delta manifests embed the base
// checkpoint's fingerprint (and the previous link's) so a delta can never be
// applied to a base it was not cut against. Not cryptographic — this guards
// against operational mix-ups and reordering, not adversaries.
uint64_t CheckpointFingerprint(const std::string& bytes);

// FNV-1a 64 of the encoded bytes: the fingerprint version-2 delta
// manifests carry. Only the chain loader verifies with it; nothing writes
// it.
uint64_t CheckpointFingerprintV2(const std::string& bytes);

// Writes `bytes` to `path` via a sibling ".tmp" file + rename (the same
// writer CheckpointWrite uses).
bool AtomicWriteFile(const std::string& path, std::string_view bytes);

// Reads the whole file at `path` into `*out` with one sized read. Returns
// false if the file cannot be opened or read.
bool ReadFileBytes(const std::string& path, std::string* out);

}  // namespace kvec

