#include "util/serialize.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"

namespace kvec {

using serialize_internal::kTagDouble;
using serialize_internal::kTagFloat;
using serialize_internal::kTagFloatVec;
using serialize_internal::kTagInt32;
using serialize_internal::kTagInt64;
using serialize_internal::kTagIntVec;
using serialize_internal::kTagString;

namespace {

// From this capacity on a writer's buffer is a mapping of its own. Left to
// malloc, multi-MB buffers that grow and die every checkpoint moved glibc's
// dynamic mmap threshold and left tens of MB of freed heap resident from
// one checkpoint to the next, at a level that varied from run to run.
constexpr size_t kMappedBytes = size_t{1} << 20;

void* MapBytes(size_t size) {
  void* data = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return data == MAP_FAILED ? nullptr : data;
}

// Grows mapping `data` from `old_size` to `size` bytes, keeping its first
// `used` bytes.
void* RemapBytes(char* data, size_t old_size, size_t size, size_t used) {
#ifdef __linux__
  (void)used;
  void* grown = mremap(data, old_size, size, MREMAP_MAYMOVE);
  return grown == MAP_FAILED ? nullptr : grown;
#else
  void* grown = MapBytes(size);
  if (grown != nullptr) {
    std::memcpy(grown, data, used);
    munmap(data, old_size);
  }
  return grown;
#endif
}

void FreeBuffer(char* data, size_t capacity, bool mapped) {
  if (mapped) {
    munmap(data, capacity);
  } else {
    // kvec-lint: allow-next(pool-discipline) a writer's small heap buffer (see Grow)
    std::free(data);
  }
}

}  // namespace

BinaryWriter::~BinaryWriter() { FreeBuffer(data_, capacity_, mapped_); }

BinaryWriter::BinaryWriter(const BinaryWriter& other) {
  if (other.size_ != 0) {
    std::memcpy(Extend(other.size_), other.data_, other.size_);
  }
}

BinaryWriter::BinaryWriter(BinaryWriter&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

void BinaryWriter::Grow(size_t size) {
  constexpr size_t kMinCapacity = 256;
  const size_t capacity =
      std::max({size_ + size, 2 * capacity_, kMinCapacity});
  void* grown = nullptr;
  if (capacity < kMappedBytes) {
    // kvec-lint: allow-next(pool-discipline) transient serialisation buffer, not per-key state
    grown = std::realloc(data_, capacity);
  } else if (mapped_) {
    grown = RemapBytes(data_, capacity_, capacity, size_);
  } else {
    grown = MapBytes(capacity);
    if (grown != nullptr) {
      if (size_ != 0) std::memcpy(grown, data_, size_);
      FreeBuffer(data_, capacity_, /*mapped=*/false);
      mapped_ = true;
    }
  }
  KVEC_CHECK(grown != nullptr)
      << "BinaryWriter: cannot grow to " << capacity << " bytes";
  data_ = static_cast<char*>(grown);
  capacity_ = capacity;
}

BinaryReader::BinaryReader(std::string buffer) : buffer_(std::move(buffer)) {}

bool BinaryReader::Consume(void* data, size_t size) {
  if (!ok_) return false;
  if (size > buffer_.size() - position_) {
    Fail();
    return false;
  }
  if (size == 0) return true;  // empty containers hand over a null data()
  std::memcpy(data, buffer_.data() + position_, size);
  position_ += size;
  return true;
}

bool BinaryReader::ConsumeTag(int32_t expected) {
  int32_t tag = 0;
  if (!Consume(&tag, sizeof(tag))) return false;
  if (tag != expected) {
    Fail();
    return false;
  }
  return true;
}

bool BinaryReader::ConsumeSize(size_t elem_size, int64_t* size) {
  if (!Consume(size, sizeof(*size))) return false;
  if (*size < 0 ||
      static_cast<uint64_t>(*size) > remaining() / elem_size) {
    // A corrupted prefix must fail before it drives an allocation.
    Fail();
    return false;
  }
  return true;
}

int32_t BinaryReader::ReadInt32() {
  if (!ConsumeTag(kTagInt32)) return 0;
  int32_t value = 0;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0;
}

int64_t BinaryReader::ReadInt64() {
  if (!ConsumeTag(kTagInt64)) return 0;
  int64_t value = 0;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0;
}

float BinaryReader::ReadFloat() {
  if (!ConsumeTag(kTagFloat)) return 0.0f;
  float value = 0.0f;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0.0f;
}

double BinaryReader::ReadDouble() {
  if (!ConsumeTag(kTagDouble)) return 0.0;
  double value = 0.0;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0.0;
}

std::string BinaryReader::ReadString() {
  if (!ConsumeTag(kTagString)) return std::string();
  int64_t size = 0;
  if (!ConsumeSize(1, &size)) return std::string();
  std::string value(static_cast<size_t>(size), '\0');
  if (!Consume(value.data(), value.size())) return std::string();
  return value;
}

std::vector<float> BinaryReader::ReadFloatVector() {
  if (!ConsumeTag(kTagFloatVec)) return {};
  int64_t size = 0;
  if (!ConsumeSize(sizeof(float), &size)) return {};
  std::vector<float> values(static_cast<size_t>(size));
  if (!Consume(values.data(), values.size() * sizeof(float))) return {};
  return values;
}

std::vector<int> BinaryReader::ReadIntVector() {
  if (!ConsumeTag(kTagIntVec)) return {};
  int64_t size = 0;
  if (!ConsumeSize(sizeof(int), &size)) return {};
  std::vector<int> values(static_cast<size_t>(size));
  if (!Consume(values.data(), values.size() * sizeof(int))) return {};
  return values;
}

int32_t BinaryReader::ReadCount(size_t min_bytes_per_element) {
  const int32_t count = ReadInt32();
  if (count < 0 ||
      static_cast<size_t>(count) > remaining() / min_bytes_per_element) {
    Fail();
    return 0;
  }
  return count;
}

// ---- Checkpoint container ------------------------------------------------

namespace {

// Raw little-endian frame parser with explicit bounds checks (the frame
// deliberately avoids the tagged value layer so its layout is fixed and
// documented in serialize.h).
class FrameReader {
 public:
  explicit FrameReader(const std::string& bytes) : bytes_(bytes) {}

  bool Read(void* data, size_t size) {
    if (size > bytes_.size() - position_) return false;
    std::memcpy(data, bytes_.data() + position_, size);
    position_ += size;
    return true;
  }

  bool ReadPayload(int64_t size, std::string* out) {
    if (size < 0 ||
        static_cast<uint64_t>(size) > bytes_.size() - position_) {
      return false;
    }
    out->assign(bytes_.data() + position_, static_cast<size_t>(size));
    position_ += static_cast<size_t>(size);
    return true;
  }

  size_t remaining() const { return bytes_.size() - position_; }

 private:
  const std::string& bytes_;
  size_t position_ = 0;
};

}  // namespace

const CheckpointSection* Checkpoint::Find(int32_t id) const {
  for (const CheckpointSection& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

namespace {

std::vector<CheckpointSectionView> SectionViews(const Checkpoint& checkpoint) {
  std::vector<CheckpointSectionView> views;
  views.reserve(checkpoint.sections.size());
  for (const CheckpointSection& section : checkpoint.sections) {
    views.push_back({section.id, section.payload});
  }
  return views;
}

// The one container framing routine (layout in serialize.h): emits the
// header and every section through `sink->Write(data, size)`, stopping at
// the first write that fails.
template <typename Sink>
bool FrameCheckpoint(int32_t version,
                     const std::vector<CheckpointSectionView>& sections,
                     Sink* sink) {
  const int32_t count = static_cast<int32_t>(sections.size());
  if (!sink->Write(&kCheckpointMagic, sizeof(kCheckpointMagic)) ||
      !sink->Write(&version, sizeof(version)) ||
      !sink->Write(&count, sizeof(count))) {
    return false;
  }
  for (const CheckpointSectionView& section : sections) {
    const int64_t length = static_cast<int64_t>(section.payload.size());
    if (!sink->Write(&section.id, sizeof(section.id)) ||
        !sink->Write(&length, sizeof(length)) ||
        !sink->Write(section.payload.data(), section.payload.size())) {
      return false;
    }
  }
  return true;
}

class StringSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  bool Write(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
    return true;
  }

 private:
  std::string* out_;
};

// Streams bytes to `path`.tmp, folding XXH64 over each chunk right after
// writing it (while it is still in cache), and renames the file over
// `path` on Commit. Destroying an uncommitted writer removes the ".tmp".
class AtomicFileSink {
 public:
  explicit AtomicFileSink(const std::string& path)
      : path_(path),
        tmp_(path + ".tmp"),
        file_(std::fopen(tmp_.c_str(), "wb")) {}

  ~AtomicFileSink() {
    if (file_ != nullptr) {
      std::fclose(file_);
      std::remove(tmp_.c_str());
    }
  }

  AtomicFileSink(const AtomicFileSink&) = delete;
  AtomicFileSink& operator=(const AtomicFileSink&) = delete;

  bool Write(const void* data, size_t size) {
    // Tests force a disk-full failure part-way through a file here.
    if (file_ == nullptr || KVEC_FAULT_POINT("checkpoint.write")) {
      return false;
    }
    constexpr size_t kChunkBytes = size_t{256} << 10;
    const char* bytes = static_cast<const char*>(data);
    while (size > 0) {
      const size_t chunk = std::min(size, kChunkBytes);
      if (std::fwrite(bytes, 1, chunk, file_) != chunk) return false;
      fingerprint_.Update(bytes, chunk);
      bytes += chunk;
      size -= chunk;
    }
    return true;
  }

  // Closes the file and renames it over the target. False (and the
  // ".tmp" removed) if either step fails.
  bool Commit() {
    if (file_ == nullptr) return false;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!closed || std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_.c_str());
      return false;
    }
    return true;
  }

  uint64_t fingerprint() const { return fingerprint_.Digest(); }

 private:
  const std::string path_;
  const std::string tmp_;
  std::FILE* file_;
  Xxh64 fingerprint_;
};

}  // namespace

std::string CheckpointEncode(
    int32_t version, const std::vector<CheckpointSectionView>& sections) {
  constexpr size_t kHeaderBytes = 3 * sizeof(int32_t);
  constexpr size_t kSectionHeaderBytes = sizeof(int32_t) + sizeof(int64_t);
  size_t total = kHeaderBytes;
  for (const CheckpointSectionView& section : sections) {
    total += kSectionHeaderBytes + section.payload.size();
  }
  std::string out;
  out.reserve(total);
  StringSink sink(&out);
  FrameCheckpoint(version, sections, &sink);
  return out;
}

std::string CheckpointEncode(const Checkpoint& checkpoint) {
  return CheckpointEncode(checkpoint.version, SectionViews(checkpoint));
}

bool CheckpointDecode(const std::string& bytes, Checkpoint* out) {
  FrameReader frame(bytes);
  uint32_t magic = 0;
  if (!frame.Read(&magic, sizeof(magic)) || magic != kCheckpointMagic) {
    return false;
  }
  int32_t version = 0;
  if (!frame.Read(&version, sizeof(version))) return false;
  // Future versions are unreadable by design: the writer bumps the version
  // exactly when an existing payload layout changes.
  if (version < 1 || version > kCheckpointMaxFormatVersion) return false;
  int32_t count = 0;
  if (!frame.Read(&count, sizeof(count))) return false;
  // Each section costs at least its 12-byte header: a corrupted count
  // cannot demand more sections than the remaining bytes could hold.
  constexpr size_t kSectionHeaderBytes =
      sizeof(int32_t) + sizeof(int64_t);
  if (count < 0 ||
      static_cast<uint64_t>(count) > frame.remaining() / kSectionHeaderBytes) {
    return false;
  }
  Checkpoint checkpoint;
  checkpoint.version = version;
  checkpoint.sections.reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    CheckpointSection section;
    int64_t length = 0;
    if (!frame.Read(&section.id, sizeof(section.id)) ||
        !frame.Read(&length, sizeof(length)) ||
        !frame.ReadPayload(length, &section.payload)) {
      return false;
    }
    checkpoint.sections.push_back(std::move(section));
  }
  if (frame.remaining() != 0) return false;  // trailing garbage
  *out = std::move(checkpoint);
  return true;
}

bool CheckpointWrite(const std::string& path, int32_t version,
                     const std::vector<CheckpointSectionView>& sections,
                     uint64_t* fingerprint) {
  AtomicFileSink sink(path);
  if (!FrameCheckpoint(version, sections, &sink) || !sink.Commit()) {
    return false;
  }
  if (fingerprint != nullptr) *fingerprint = sink.fingerprint();
  return true;
}

bool CheckpointSave(const std::string& path, int32_t version,
                    const std::vector<CheckpointSectionView>& sections) {
  // Tests force the disk-full / yanked-volume shape here; callers must
  // treat a false as "no new checkpoint at `path`" (any old one survives).
  if (KVEC_FAULT_POINT("checkpoint.save")) return false;
  return CheckpointWrite(path, version, sections);
}

bool CheckpointSave(const std::string& path, const Checkpoint& checkpoint) {
  return CheckpointSave(path, checkpoint.version, SectionViews(checkpoint));
}

bool CheckpointLoad(const std::string& path, Checkpoint* out) {
  std::string contents;
  return ReadFileBytes(path, &contents) && CheckpointDecode(contents, out);
}

// ---- Fingerprints ----------------------------------------------------------

namespace {

// XXH64's primes (xxHash specification, section "XXH64 algorithm").
constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

inline uint64_t RotateLeft(uint64_t value, int bits) {
  return (value << bits) | (value >> (64 - bits));
}

inline uint64_t LoadWord(const unsigned char* bytes) {
  uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

inline uint64_t XxRound(uint64_t lane, uint64_t word) {
  return RotateLeft(lane + word * kXxPrime2, 31) * kXxPrime1;
}

// Keeps `lane` in a general register. Left alone, GCC packs the four
// lanes into one AVX-512 vector, whose 64-bit multiply (vpmullq) has
// several times the latency of the scalar one: 3.6 GB/s against 5.0 over
// 32 MB (BM_CheckpointFingerprint). xxHash's own implementation guards
// its lanes the same way.
inline void KeepScalar(uint64_t& lane) {
#if defined(__GNUC__)
  __asm__("" : "+r"(lane));
#else
  (void)lane;
#endif
}

// Folds every whole stripe of [bytes, bytes + size) into `lanes`, one
// 8-byte word per lane per stripe, and returns the bytes it consumed.
size_t ConsumeStripes(uint64_t* lanes, const unsigned char* bytes,
                      size_t size) {
  uint64_t lane0 = lanes[0];
  uint64_t lane1 = lanes[1];
  uint64_t lane2 = lanes[2];
  uint64_t lane3 = lanes[3];
  const size_t consumed = size - size % Xxh64::kStripeBytes;
  for (size_t at = 0; at < consumed; at += Xxh64::kStripeBytes) {
    lane0 = XxRound(lane0, LoadWord(bytes + at));
    lane1 = XxRound(lane1, LoadWord(bytes + at + 8));
    lane2 = XxRound(lane2, LoadWord(bytes + at + 16));
    lane3 = XxRound(lane3, LoadWord(bytes + at + 24));
    KeepScalar(lane0);
    KeepScalar(lane1);
    KeepScalar(lane2);
    KeepScalar(lane3);
  }
  lanes[0] = lane0;
  lanes[1] = lane1;
  lanes[2] = lane2;
  lanes[3] = lane3;
  return consumed;
}

// FNV-1a 64: byte-serial, one dependent multiply per byte.
uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

// Seed 0: the lanes start at (P1 + P2, P2, 0, -P1).
Xxh64::Xxh64()
    : lanes_{kXxPrime1 + kXxPrime2, kXxPrime2, 0, 0 - kXxPrime1} {}

void Xxh64::Update(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  total_ += size;
  if (carry_size_ != 0) {
    const size_t take = std::min(size, kStripeBytes - carry_size_);
    if (take != 0) std::memcpy(carry_ + carry_size_, bytes, take);
    carry_size_ += take;
    bytes += take;
    size -= take;
    if (carry_size_ < kStripeBytes) return;
    ConsumeStripes(lanes_, carry_, kStripeBytes);
    carry_size_ = 0;
  }
  const size_t consumed = ConsumeStripes(lanes_, bytes, size);
  carry_size_ = size - consumed;
  if (carry_size_ != 0) std::memcpy(carry_, bytes + consumed, carry_size_);
}

uint64_t Xxh64::Digest() const {
  uint64_t hash = kXxPrime5;  // seed 0, fewer than one stripe in all
  if (total_ >= kStripeBytes) {
    hash = RotateLeft(lanes_[0], 1) + RotateLeft(lanes_[1], 7) +
           RotateLeft(lanes_[2], 12) + RotateLeft(lanes_[3], 18);
    for (const uint64_t lane : lanes_) {
      hash = (hash ^ XxRound(0, lane)) * kXxPrime1 + kXxPrime4;
    }
  }
  hash += total_;
  // The carry holds the input's last total_ % 32 bytes.
  const unsigned char* tail = carry_;
  size_t left = carry_size_;
  for (; left >= 8; tail += 8, left -= 8) {
    hash = RotateLeft(hash ^ XxRound(0, LoadWord(tail)), 27) * kXxPrime1 +
           kXxPrime4;
  }
  if (left >= 4) {
    uint32_t word = 0;
    std::memcpy(&word, tail, sizeof(word));
    hash = RotateLeft(hash ^ (word * kXxPrime1), 23) * kXxPrime2 + kXxPrime3;
    tail += 4;
    left -= 4;
  }
  for (; left > 0; ++tail, --left) {
    hash = RotateLeft(hash ^ (*tail * kXxPrime5), 11) * kXxPrime1;
  }
  hash ^= hash >> 33;
  hash *= kXxPrime2;
  hash ^= hash >> 29;
  hash *= kXxPrime3;
  hash ^= hash >> 32;
  return hash;
}

uint64_t CheckpointFingerprint(const std::string& bytes) {
  Xxh64 hash;
  hash.Update(bytes.data(), bytes.size());
  return hash.Digest();
}

uint64_t CheckpointFingerprintV2(const std::string& bytes) {
  return Fnv1a(bytes.data(), bytes.size());
}

bool AtomicWriteFile(const std::string& path, std::string_view bytes) {
  AtomicFileSink sink(path);
  return sink.Write(bytes.data(), bytes.size()) && sink.Commit();
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  // file_size fails for anything but a regular file: a directory opens
  // for reading on Linux and reports a size no read can satisfy.
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return false;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  out->resize(static_cast<size_t>(size));
  const bool read =
      std::fread(out->data(), 1, out->size(), file) == out->size();
  std::fclose(file);
  return read;
}

}  // namespace kvec
