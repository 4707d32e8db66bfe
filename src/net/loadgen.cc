#include "net/loadgen.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace kvec {
namespace net {
namespace {

constexpr size_t kReadChunkBytes = 16 * 1024;

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(int64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Capped exponential backoff with jitter: attempt 1 waits ~backoff_ms,
// each further attempt doubles, growth stops at backoff_cap_ms, and the
// actual sleep is uniform in [delay/2, delay] so a fleet of clients
// knocked back by the same overload event does not retry in lockstep.
int64_t BackoffDelayMs(const LoadgenConfig& config, int attempt, Rng* rng) {
  int64_t delay = config.backoff_ms;
  for (int i = 1; i < attempt && delay < config.backoff_cap_ms; ++i) {
    delay *= 2;
  }
  delay = std::min<int64_t>(delay, config.backoff_cap_ms);
  if (delay <= 1) return delay;
  return delay / 2 + static_cast<int64_t>(rng->NextInt(
                         static_cast<int>(delay - delay / 2 + 1)));
}

struct WorkerResult {
  int64_t batches_sent = 0;
  int64_t batches_failed = 0;
  int64_t items_acked = 0;
  int64_t items_shed = 0;
  int64_t retries = 0;
  int64_t overloaded_replies = 0;
  int64_t reconnects = 0;
  bool connected_once = false;
  std::string first_error;
  LatencyRecorder latency;
};

void NoteError(WorkerResult* out, const std::string& error) {
  if (out->first_error.empty() && !error.empty()) out->first_error = error;
}

bool ConnectAndHello(const LoadgenConfig& config, IngestClient* client,
                     WorkerResult* out) {
  std::string error;
  if (!client->Connect(&error) ||
      !client->Hello(config.num_value_fields, config.num_classes, &error)) {
    NoteError(out, error);
    client->Close();
    return false;
  }
  out->connected_once = true;
  return true;
}

// Delivers one batch under the retry budget. Returns true when the batch
// was acked; every terminal failure is already counted in *out.
bool DeliverBatch(const LoadgenConfig& config, const std::string& payload,
                  IngestClient* client, Rng* rng, WorkerResult* out) {
  for (int attempt = 0; attempt <= config.retries; ++attempt) {
    if (attempt > 0) {
      out->retries += 1;
      SleepMs(BackoffDelayMs(config, attempt, rng));
    }
    if (!client->connected()) {
      if (!ConnectAndHello(config, client, out)) continue;
      out->reconnects += 1;
    }
    Frame reply;
    const IngestClient::CallStatus status =
        client->Call(FrameType::kIngestBatch, payload, &reply);
    if (status != IngestClient::CallStatus::kOk) {
      // Timeout / disconnect / unframeable reply: the connection is
      // already closed; the next attempt reconnects.
      continue;
    }
    if (reply.type == FrameType::kIngestAck) {
      IngestAck ack;
      if (DecodeIngestAck(reply.payload, &ack)) {
        out->items_acked += ack.accepted;
      }
      out->batches_sent += 1;
      return true;
    }
    ErrorFrame error;
    if (reply.type != FrameType::kError ||
        !DecodeError(reply.payload, &error)) {
      client->Close();
      continue;
    }
    if (error.code == ErrorCode::kOverloaded) {
      // The shed part was dropped, the accepted part was enqueued; the
      // retry re-offers the whole batch (at-least-once is the loadgen's
      // contract — it measures delivery effort, not exactly-once).
      out->overloaded_replies += 1;
      out->items_acked += error.accepted;
      out->items_shed += error.shed;
      continue;
    }
    // MALFORMED / UNSUPPORTED / SHUTTING_DOWN: retrying the same bytes
    // cannot succeed.
    NoteError(out, std::string(ErrorCodeName(error.code)) + ": " +
                       error.message);
    out->batches_failed += 1;
    return false;
  }
  out->batches_failed += 1;
  return true;  // budget exhausted but counted; keep going with the next
}

void RunWorker(const LoadgenConfig& config, const std::vector<Item>& items,
               uint64_t seed, WorkerResult* out) {
  IngestClient client(config.client);
  Rng rng(seed);
  ConnectAndHello(config, &client, out);
  const int64_t start_ms = SteadyNowMs();
  const double interval_ms =
      config.rate > 0 ? 1000.0 / config.rate : 0.0;
  const size_t batch_size =
      config.batch_size > 0 ? static_cast<size_t>(config.batch_size) : 1;
  int64_t batch_index = 0;
  for (size_t offset = 0; offset < items.size(); offset += batch_size) {
    const size_t end = std::min(items.size(), offset + batch_size);
    const std::vector<Item> batch(items.begin() + offset,
                                  items.begin() + end);
    const std::string payload = EncodeItems(batch);
    if (interval_ms > 0) {
      const int64_t target =
          start_ms + static_cast<int64_t>(batch_index * interval_ms);
      SleepMs(target - SteadyNowMs());
    }
    ++batch_index;
    const int64_t t0_us = SteadyNowUs();
    if (DeliverBatch(config, payload, &client, &rng, out)) {
      out->latency.Record(SteadyNowUs() - t0_us);
    }
  }
  client.Close();
}

}  // namespace

IngestClient::IngestClient(const ClientConfig& config)
    : config_(config), decoder_(config.max_frame_bytes) {}

bool IngestClient::Connect(std::string* error) {
  Close();
  socket_ = Socket::Connect(config_.host, config_.port,
                            config_.connect_timeout_ms, error);
  if (!socket_.valid()) return false;
  decoder_.Reset();
  return true;
}

void IngestClient::Close() { socket_.Close(); }

IngestClient::CallStatus IngestClient::Call(FrameType type,
                                            const std::string& payload,
                                            Frame* reply) {
  if (!socket_.valid()) return CallStatus::kDisconnected;
  Frame request;
  request.type = type;
  request.request_id = next_request_id_++;
  request.payload = payload;
  const std::string bytes = EncodeFrame(request);
  if (socket_.SendAll(bytes.data(), bytes.size(),
                      config_.request_timeout_ms) != IoStatus::kOk) {
    Close();
    return CallStatus::kDisconnected;
  }
  // Client-side deadline checks are a plain clock comparison on purpose:
  // DeadlineExpired() fires the server-side `net.deadline` fault point,
  // and a test forcing server evictions must not also break its client.
  const int64_t deadline = SteadyNowMs() + config_.request_timeout_ms;
  std::string chunk(kReadChunkBytes, '\0');
  for (;;) {
    Frame frame;
    std::string reason;
    const FrameDecoder::Status status = decoder_.Next(&frame, &reason);
    if (status == FrameDecoder::Status::kFrame) {
      if (frame.request_id != request.request_id) {
        Close();  // a stray reply means the stream is out of sync
        return CallStatus::kBadReply;
      }
      *reply = std::move(frame);
      return CallStatus::kOk;
    }
    if (status == FrameDecoder::Status::kMalformed) {
      Close();
      return CallStatus::kBadReply;
    }
    const int64_t remaining = deadline - SteadyNowMs();
    if (remaining <= 0) {
      // The reply may still arrive later and would desynchronize the next
      // request; a timed-out connection is only safe to abandon.
      Close();
      return CallStatus::kTimeout;
    }
    size_t received = 0;
    const IoStatus io =
        socket_.RecvSome(chunk.data(), chunk.size(),
                         static_cast<int>(remaining), &received);
    if (io == IoStatus::kOk) {
      decoder_.Feed(chunk.data(), received);
    } else if (io != IoStatus::kTimeout) {
      Close();
      return CallStatus::kDisconnected;
    }
  }
}

bool IngestClient::Hello(int num_value_fields, int num_classes,
                         std::string* error) {
  HelloRequest hello;
  hello.num_value_fields = num_value_fields;
  hello.num_classes = num_classes;
  Frame reply;
  const CallStatus status = Call(FrameType::kHello, EncodeHello(hello),
                                 &reply);
  if (status != CallStatus::kOk) {
    *error = std::string("hello failed: transport ") +
             (status == CallStatus::kTimeout ? "timeout" : "error");
    return false;
  }
  if (reply.type == FrameType::kHelloAck) return true;
  ErrorFrame frame;
  if (reply.type == FrameType::kError && DecodeError(reply.payload, &frame)) {
    *error = std::string("hello rejected: ") + ErrorCodeName(frame.code) +
             ": " + frame.message;
  } else {
    *error = "hello rejected: unexpected reply";
  }
  Close();
  return false;
}

bool RunLoadgen(const LoadgenConfig& config, const std::vector<Item>& items,
                LoadgenReport* report, std::string* error) {
  *report = LoadgenReport();
  const int connections = std::max(1, config.connections);
  std::vector<std::vector<Item>> split(connections);
  for (size_t i = 0; i < items.size(); ++i) {
    split[i % connections].push_back(items[i]);
  }
  std::vector<WorkerResult> results(connections);
  Rng seeder(config.seed);
  std::vector<uint64_t> seeds(connections);
  for (int c = 0; c < connections; ++c) seeds[c] = seeder.NextUint64();

  const int64_t start_ms = SteadyNowMs();
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back(RunWorker, std::cref(config), std::cref(split[c]),
                         seeds[c], &results[c]);
  }
  for (auto& worker : workers) worker.join();
  report->elapsed_ms = std::max<int64_t>(1, SteadyNowMs() - start_ms);

  LatencyRecorder merged;
  bool any_connected = false;
  std::string first_error;
  for (const WorkerResult& result : results) {
    report->batches_sent += result.batches_sent;
    report->batches_failed += result.batches_failed;
    report->items_acked += result.items_acked;
    report->items_shed += result.items_shed;
    report->retries += result.retries;
    report->overloaded_replies += result.overloaded_replies;
    report->reconnects += result.reconnects;
    any_connected = any_connected || result.connected_once;
    if (first_error.empty()) first_error = result.first_error;
    merged.Merge(result.latency);
  }
  report->latency = merged.Snapshot();
  report->batches_per_sec =
      1000.0 * static_cast<double>(report->batches_sent) / report->elapsed_ms;
  report->items_per_sec =
      1000.0 * static_cast<double>(report->items_acked) / report->elapsed_ms;
  if (!any_connected && !items.empty()) {
    *error = first_error.empty() ? "no connection could be established"
                                 : first_error;
    return false;
  }
  return true;
}

}  // namespace net
}  // namespace kvec
