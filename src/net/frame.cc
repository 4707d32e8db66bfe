#include "net/frame.h"

#include <cstring>

#include "util/serialize.h"

namespace kvec {
namespace net {
namespace {

// Bound on one item's value-field arity inside a decoded batch. Real specs
// have a handful of value fields; a frame claiming more is hostile.
constexpr int64_t kMaxValueFields = 4096;

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
bool ConsumeRaw(const std::string& buffer, size_t* cursor, T* out) {
  if (buffer.size() - *cursor < sizeof(T)) return false;
  std::memcpy(out, buffer.data() + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

// Shared epilogue of every payload decoder: the reader must have consumed
// the payload exactly — trailing bytes are corruption, not padding.
bool Finish(const BinaryReader& reader) {
  return reader.ok() && reader.AtEnd();
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kIngestBatch:
      return "ingest_batch";
    case FrameType::kStatsQuery:
      return "stats_query";
    case FrameType::kFlush:
      return "flush";
    case FrameType::kHelloAck:
      return "hello_ack";
    case FrameType::kIngestAck:
      return "ingest_ack";
    case FrameType::kStatsReply:
      return "stats_reply";
    case FrameType::kFlushAck:
      return "flush_ack";
    case FrameType::kError:
      return "error";
  }
  return "unknown";
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed:
      return "MALFORMED";
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kShuttingDown:
      return "SHUTTING_DOWN";
    case ErrorCode::kUnsupported:
      return "UNSUPPORTED";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  const uint32_t magic = kFrameMagic;
  const uint16_t version = kFrameProtocolVersion;
  const uint16_t type = static_cast<uint16_t>(frame.type);
  const uint64_t request_id = frame.request_id;
  const uint32_t payload_len = static_cast<uint32_t>(frame.payload.size());
  AppendRaw(&out, &magic, sizeof(magic));
  AppendRaw(&out, &version, sizeof(version));
  AppendRaw(&out, &type, sizeof(type));
  AppendRaw(&out, &request_id, sizeof(request_id));
  AppendRaw(&out, &payload_len, sizeof(payload_len));
  out.append(frame.payload);
  return out;
}

FrameDecoder::FrameDecoder(uint32_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::Reset() {
  buffer_.clear();
  consumed_ = 0;
  malformed_ = false;
  malformed_reason_.clear();
}

void FrameDecoder::Feed(const char* data, size_t size) {
  if (malformed_ || size == 0) return;
  // Compact once the consumed prefix dominates, so the buffer stays
  // bounded by (one frame + one read chunk) instead of the whole stream.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

FrameDecoder::Status FrameDecoder::Next(Frame* out, std::string* error) {
  if (malformed_) {
    if (error != nullptr) *error = malformed_reason_;
    return Status::kMalformed;
  }
  if (buffered_bytes() < kFrameHeaderBytes) return Status::kNeedMore;

  // Parse and validate the fixed header BEFORE touching the payload: a
  // hostile length prefix must be rejected here, while the only bytes
  // buffered are the 20 the peer actually sent.
  size_t cursor = consumed_;
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t type = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  ConsumeRaw(buffer_, &cursor, &magic);
  ConsumeRaw(buffer_, &cursor, &version);
  ConsumeRaw(buffer_, &cursor, &type);
  ConsumeRaw(buffer_, &cursor, &request_id);
  ConsumeRaw(buffer_, &cursor, &payload_len);
  if (magic != kFrameMagic) {
    malformed_ = true;
    malformed_reason_ = "bad frame magic";
  } else if (version != kFrameProtocolVersion) {
    malformed_ = true;
    malformed_reason_ =
        "unsupported protocol version " + std::to_string(version);
  } else if (payload_len > max_frame_bytes_) {
    malformed_ = true;
    malformed_reason_ = "frame payload of " + std::to_string(payload_len) +
                        " bytes exceeds the " +
                        std::to_string(max_frame_bytes_) + "-byte cap";
  }
  if (malformed_) {
    if (error != nullptr) *error = malformed_reason_;
    return Status::kMalformed;
  }

  if (buffered_bytes() - kFrameHeaderBytes < payload_len) {
    return Status::kNeedMore;  // torn frame: wait for the rest
  }
  out->type = static_cast<FrameType>(type);
  out->request_id = request_id;
  out->payload.assign(buffer_, cursor, payload_len);
  consumed_ = cursor + payload_len;
  return Status::kFrame;
}

// ---- Payload codecs ------------------------------------------------------

std::string EncodeHello(const HelloRequest& hello) {
  BinaryWriter writer;
  writer.WriteInt32(hello.num_value_fields);
  writer.WriteInt32(hello.num_classes);
  return writer.buffer();
}

bool DecodeHello(const std::string& payload, HelloRequest* out) {
  BinaryReader reader(payload);
  out->num_value_fields = reader.ReadInt32();
  out->num_classes = reader.ReadInt32();
  return Finish(reader);
}

std::string EncodeItems(const std::vector<Item>& items) {
  BinaryWriter writer;
  writer.WriteInt32(static_cast<int32_t>(items.size()));
  for (const Item& item : items) {
    writer.WriteInt32(item.key);
    writer.WriteIntVector(item.value);
    writer.WriteDouble(item.time);
  }
  return writer.buffer();
}

bool DecodeItems(const std::string& payload, std::vector<Item>* out) {
  BinaryReader reader(payload);
  // Every item is at least 3 tagged values (> 24 bytes); a count the
  // remaining bytes cannot possibly hold fails before the reserve.
  const int32_t count = reader.ReadCount(3 * kMinTaggedValueBytes);
  if (!reader.ok()) return false;
  out->clear();
  out->reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    Item item;
    item.key = reader.ReadInt32();
    item.value = reader.ReadIntVector();
    item.time = reader.ReadDouble();
    if (!reader.ok() ||
        static_cast<int64_t>(item.value.size()) > kMaxValueFields) {
      return false;
    }
    out->push_back(std::move(item));
  }
  return Finish(reader);
}

std::string EncodeIngestAck(const IngestAck& ack) {
  BinaryWriter writer;
  writer.WriteInt64(ack.accepted);
  writer.WriteInt64(ack.shed);
  return writer.buffer();
}

bool DecodeIngestAck(const std::string& payload, IngestAck* out) {
  BinaryReader reader(payload);
  out->accepted = reader.ReadInt64();
  out->shed = reader.ReadInt64();
  return Finish(reader);
}

std::string EncodeStatsReply(const StatsReply& stats) {
  BinaryWriter writer;
  writer.WriteInt64(stats.items_submitted);
  writer.WriteInt64(stats.items_processed);
  writer.WriteInt64(stats.items_shed);
  writer.WriteInt64(stats.sequences_classified);
  writer.WriteInt64(stats.open_keys);
  return writer.buffer();
}

bool DecodeStatsReply(const std::string& payload, StatsReply* out) {
  BinaryReader reader(payload);
  out->items_submitted = reader.ReadInt64();
  out->items_processed = reader.ReadInt64();
  out->items_shed = reader.ReadInt64();
  out->sequences_classified = reader.ReadInt64();
  out->open_keys = reader.ReadInt64();
  return Finish(reader);
}

std::string EncodeFlushAck(const FlushAck& ack) {
  BinaryWriter writer;
  writer.WriteInt64(ack.events);
  return writer.buffer();
}

bool DecodeFlushAck(const std::string& payload, FlushAck* out) {
  BinaryReader reader(payload);
  out->events = reader.ReadInt64();
  return Finish(reader);
}

std::string EncodeError(const ErrorFrame& error) {
  BinaryWriter writer;
  writer.WriteInt32(static_cast<int32_t>(error.code));
  writer.WriteString(error.message);
  writer.WriteInt64(error.accepted);
  writer.WriteInt64(error.shed);
  return writer.buffer();
}

bool DecodeError(const std::string& payload, ErrorFrame* out) {
  BinaryReader reader(payload);
  out->code = static_cast<ErrorCode>(reader.ReadInt32());
  out->message = reader.ReadString();
  out->accepted = reader.ReadInt64();
  out->shed = reader.ReadInt64();
  return Finish(reader);
}

}  // namespace net
}  // namespace kvec
