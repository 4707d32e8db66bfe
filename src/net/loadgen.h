// Retry/backoff load generator and the client side of the ingest protocol.
//
// IngestClient is one synchronous connection: connect, hello, then
// request/response round trips under a per-request deadline. It does NOT
// retry — it reports exactly what happened (ok / timeout / disconnect /
// bad reply) so the retry policy lives in one place above it.
//
// RunLoadgen drives N IngestClients from worker threads, replaying a
// dataset in microbatches at an optional fixed rate, with the full
// fault-tolerance loop a production client needs:
//
//   * per-request timeout (a stuck server costs one deadline, not a hang);
//   * capped exponential backoff with jitter between retries — OVERLOADED
//     responses back off on the same connection, timeouts and disconnects
//     reconnect (and re-hello) first;
//   * a bounded retry budget per batch; exhausting it counts the batch as
//     failed rather than retrying forever;
//   * per-connection HdrHistogram latency recording (one Record per
//     *completed* batch, covering every retry and backoff it needed — the
//     tail percentiles show what overload actually costs end to end),
//     merged after the workers join.
//
// Everything is deterministic given LoadgenConfig::seed except the
// latencies themselves (jitter streams are split per connection).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/types.h"
#include "net/frame.h"
#include "net/latency_recorder.h"
#include "net/socket.h"

namespace kvec {
namespace net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connect_timeout_ms = 2000;
  int request_timeout_ms = 2000;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class IngestClient {
 public:
  enum class CallStatus {
    kOk,            // *reply holds the server's response frame
    kTimeout,       // request deadline expired
    kDisconnected,  // connect failed, send failed, or peer closed
    kBadReply,      // reply unframeable or with the wrong request id
  };

  explicit IngestClient(const ClientConfig& config);

  bool Connect(std::string* error);
  bool connected() const { return socket_.valid(); }
  void Close();

  // One request/response round trip with a fresh request id. On kOk,
  // *reply is the response (possibly a kError frame — protocol errors are
  // the caller's to interpret, only transport failures are CallStatus).
  CallStatus Call(FrameType type, const std::string& payload, Frame* reply);

  // Hello round trip; false (with *error) unless the server acks.
  bool Hello(int num_value_fields, int num_classes, std::string* error);

 private:
  const ClientConfig config_;
  Socket socket_;
  FrameDecoder decoder_;  // reset by every Connect
  uint64_t next_request_id_ = 1;
};

struct LoadgenConfig {
  ClientConfig client;
  int connections = 1;
  int batch_size = 64;
  // Microbatches per second per connection; 0 = as fast as acks allow.
  double rate = 0.0;
  // Retry budget per batch (attempts = 1 + retries).
  int retries = 5;
  int backoff_ms = 10;       // initial backoff
  int backoff_cap_ms = 1000; // exponential growth stops here
  uint64_t seed = 1;         // jitter streams
  // Dataset shape announced in the hello frame.
  int num_value_fields = 0;
  int num_classes = 0;
};

struct LoadgenReport {
  int64_t batches_sent = 0;      // completed (acked) batches
  int64_t batches_failed = 0;    // retry budget exhausted
  int64_t items_acked = 0;
  int64_t items_shed = 0;        // reported by OVERLOADED responses
  int64_t retries = 0;           // extra attempts beyond the first
  int64_t overloaded_replies = 0;
  int64_t reconnects = 0;        // successful reconnections after a drop
  int64_t elapsed_ms = 0;
  double batches_per_sec = 0.0;
  double items_per_sec = 0.0;
  LatencySnapshot latency;       // per completed batch, end to end
};

// Splits `items` round-robin across `config.connections` workers and
// replays them. Returns false (with *error) only when no connection could
// be established at all; partial failure is reported in the counters.
bool RunLoadgen(const LoadgenConfig& config, const std::vector<Item>& items,
                LoadgenReport* report, std::string* error);

}  // namespace net
}  // namespace kvec
