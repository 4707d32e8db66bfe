// Wire framing for the TCP ingest protocol (docs/SERVING.md, "Network
// front end").
//
// Every message on the wire is one length-prefixed frame:
//
//   uint32  magic           'KVNF' — rejects non-protocol peers instantly
//   uint16  protocol version
//   uint16  frame type      (FrameType below)
//   uint64  request id      echoed verbatim in the response frame
//   uint32  payload length  in bytes, hard-capped by max_frame_bytes
//   byte*   payload         a BinaryWriter value stream (util/serialize.h)
//
// All header fields are raw little-endian, matching the checkpoint
// container's convention. The header is fixed-size (20 bytes), so a
// decoder can validate magic, version, AND the length prefix before a
// single payload byte is buffered — a corrupt or malicious length (the
// classic hostile 4 GiB prefix) is rejected up front and can never drive
// an allocation. Payloads are decoded through the fail-closed
// BinaryReader, so truncated or reordered values inside a structurally
// valid frame also fail cleanly instead of producing garbage items.
//
// FrameDecoder is incremental: feed it whatever chunks recv() produced and
// pull complete frames out. Its buffered bytes are bounded by
// max_frame_bytes + one header + one read chunk, never by what a hostile
// length prefix claims.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/types.h"

namespace kvec {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x4b564e46u;  // "FNVK" on the wire
inline constexpr uint16_t kFrameProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;
// Default hard cap on one frame's payload. Generous for microbatches (a
// 4 MiB frame holds ~100k items) yet small enough that max_connections
// concurrent read buffers stay bounded.
inline constexpr uint32_t kDefaultMaxFrameBytes = 4u << 20;

// Request types occupy [1, 63], responses [64, 126], errors 127. A server
// answers every request frame with exactly one response or error frame
// carrying the same request id.
enum class FrameType : uint16_t {
  // Requests (client → server).
  kHello = 1,        // schema registration cold path; must precede ingest
  kIngestBatch = 2,  // microbatch hot path
  kStatsQuery = 3,   // merged serving/transport stats
  kFlush = 4,        // force-classify all open keys
  // Responses (server → client).
  kHelloAck = 64,
  kIngestAck = 65,
  kStatsReply = 66,
  kFlushAck = 67,
  kError = 127,
};

// Error-frame codes. kMalformed closes the connection (the stream can no
// longer be trusted); kOverloaded keeps it open and tells the client to
// back off; kShuttingDown means the server is draining.
enum class ErrorCode : int32_t {
  kMalformed = 1,
  kOverloaded = 2,
  kShuttingDown = 3,
  kUnsupported = 4,
};

const char* FrameTypeName(FrameType type);
const char* ErrorCodeName(ErrorCode code);

struct Frame {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  std::string payload;
};

// Frames `frame` into wire bytes (header + payload). Always succeeds; the
// caller is responsible for keeping payloads under the peer's cap.
std::string EncodeFrame(const Frame& frame);

// Incremental frame decoder over a byte stream.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,   // no complete frame buffered yet
    kFrame,      // *out holds the next frame
    kMalformed,  // bad magic/version or oversized length: close the peer
  };

  explicit FrameDecoder(uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

  // Appends raw received bytes. Safe to call with any chunking, including
  // one byte at a time (torn frames are the normal case, not an error).
  void Feed(const char* data, size_t size);

  // Extracts the next complete frame. After kMalformed the decoder is
  // poisoned: every later call also reports kMalformed (the byte stream
  // has lost synchronisation and must be abandoned).
  Status Next(Frame* out, std::string* error);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  // Drops every buffered byte and the poisoned state: the decoder of a new
  // connection.
  void Reset();

 private:
  const uint32_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out as frames
  bool malformed_ = false;
  std::string malformed_reason_;
};

// ---- Payload codecs ------------------------------------------------------
//
// Every payload is a BinaryWriter value stream; decode helpers return
// false on any truncation/corruption (BinaryReader fails closed and the
// helpers demand the payload is fully consumed).

// kHello: the client's dataset shape. The server accepts only a shape its
// model can embed (same guard as the CLI's SpecCompatible).
struct HelloRequest {
  int32_t num_value_fields = 0;
  int32_t num_classes = 0;
};
std::string EncodeHello(const HelloRequest& hello);
bool DecodeHello(const std::string& payload, HelloRequest* out);

// kIngestBatch: a microbatch of items.
std::string EncodeItems(const std::vector<Item>& items);
bool DecodeItems(const std::string& payload, std::vector<Item>* out);

// kIngestAck: what happened to the batch.
struct IngestAck {
  int64_t accepted = 0;  // items queued for processing
  int64_t shed = 0;      // items dropped by the overload policy
};
std::string EncodeIngestAck(const IngestAck& ack);
bool DecodeIngestAck(const std::string& payload, IngestAck* out);

// kStatsReply: the transport + serving counters a remote client can see.
struct StatsReply {
  int64_t items_submitted = 0;
  int64_t items_processed = 0;
  int64_t items_shed = 0;
  int64_t sequences_classified = 0;
  int64_t open_keys = 0;
};
std::string EncodeStatsReply(const StatsReply& stats);
bool DecodeStatsReply(const std::string& payload, StatsReply* out);

// kFlushAck: how many verdicts the flush emitted.
struct FlushAck {
  int64_t events = 0;
};
std::string EncodeFlushAck(const FlushAck& ack);
bool DecodeFlushAck(const std::string& payload, FlushAck* out);

// kError: code + human-readable detail, plus the ingest accounting when
// the error answers an ingest frame (zero otherwise) so an OVERLOADED
// response still tells the client exactly what was dropped.
struct ErrorFrame {
  ErrorCode code = ErrorCode::kMalformed;
  std::string message;
  int64_t accepted = 0;
  int64_t shed = 0;
};
std::string EncodeError(const ErrorFrame& error);
bool DecodeError(const std::string& payload, ErrorFrame* out);

}  // namespace net
}  // namespace kvec
