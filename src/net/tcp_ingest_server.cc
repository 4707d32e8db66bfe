#include "net/tcp_ingest_server.h"

#include <algorithm>
#include <utility>

#include "core/input_embedding.h"

namespace kvec {
namespace net {
namespace {

// Accept-poll and read-slice granularity: how quickly a handler notices
// stop requests and expired deadlines. Short enough for responsive
// shutdown, long enough that idle polling costs nothing measurable.
constexpr int kPollSliceMs = 50;

constexpr size_t kReadChunkBytes = 16 * 1024;

}  // namespace

TcpIngestServer::TcpIngestServer(ShardedStreamServer* server,
                                 const TcpIngestServerConfig& config)
    : server_(server), config_(config) {}

TcpIngestServer::~TcpIngestServer() { Shutdown(); }

bool TcpIngestServer::Start(std::string* error) {
  listener_ = ListenSocket::Bind(config_.host, config_.port,
                                 config_.backlog, error);
  if (!listener_.valid()) return false;
  started_ = true;
  accept_thread_ = std::thread(&TcpIngestServer::AcceptLoop, this);
  return true;
}

void TcpIngestServer::Shutdown() {
  if (!started_) return;
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Half-close first so every handler wakes with EOF and finishes its
  // buffered requests; only then join. Handlers never close() their fd
  // (only shutdown()), so these cross-thread ShutdownRead calls can
  // never land on a recycled fd; the fds close when the Connection
  // objects are destroyed below, after their threads are joined.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    connection->socket.ShutdownRead();
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

TcpIngestServerStats TcpIngestServer::stats() const {
  TcpIngestServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  stats.connections_evicted_idle =
      connections_evicted_idle_.load(std::memory_order_relaxed);
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.frames_malformed = frames_malformed_.load(std::memory_order_relaxed);
  stats.batches_ingested = batches_ingested_.load(std::memory_order_relaxed);
  stats.items_accepted = items_accepted_.load(std::memory_order_relaxed);
  stats.items_shed = items_shed_.load(std::memory_order_relaxed);
  stats.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  return stats;
}

int TcpIngestServer::active_connections() const {
  MutexLock lock(mutex_);
  int active = 0;
  for (const auto& connection : connections_) {
    if (!connection->done.load(std::memory_order_acquire)) ++active;
  }
  return active;
}

void TcpIngestServer::ReapFinished() {
  MutexLock lock(mutex_);
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpIngestServer::AcceptLoop() {
  while (!stopping_.load()) {
    bool timed_out = false;
    Socket socket = listener_.Accept(kPollSliceMs, &timed_out);
    ReapFinished();
    if (!socket.valid()) continue;
    if (stopping_.load()) {
      // Drain began between poll and accept: tell the peer explicitly
      // instead of a silent close.
      ErrorFrame error;
      error.code = ErrorCode::kShuttingDown;
      error.message = "server is draining";
      const std::string bytes = EncodeFrame(
          {FrameType::kError, 0, EncodeError(error)});
      socket.SendAll(bytes.data(), bytes.size(), config_.io_timeout_ms);
      break;
    }
    if (active_connections() >= config_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ErrorFrame error;
      error.code = ErrorCode::kOverloaded;
      error.message = "connection limit (" +
                      std::to_string(config_.max_connections) + ") reached";
      const std::string bytes = EncodeFrame(
          {FrameType::kError, 0, EncodeError(error)});
      socket.SendAll(bytes.data(), bytes.size(), config_.io_timeout_ms);
      continue;  // RAII closes the rejected socket
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    MutexLock lock(mutex_);
    connections_.push_back(std::move(connection));
    Connection* raw = connections_.back().get();
    raw->thread =
        std::thread(&TcpIngestServer::HandleConnection, this, raw);
  }
}

void TcpIngestServer::HandleConnection(Connection* conn) {
  FrameDecoder decoder(config_.max_frame_bytes);
  bool hello_done = false;
  bool peer_gone = false;  // EOF/reset seen; drain buffered frames, then go
  int64_t deadline = SteadyNowMs() + config_.idle_timeout_ms;
  std::string chunk(kReadChunkBytes, '\0');
  for (;;) {
    Frame frame;
    std::string reason;
    const FrameDecoder::Status status = decoder.Next(&frame, &reason);
    if (status == FrameDecoder::Status::kFrame) {
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      deadline = SteadyNowMs() + config_.idle_timeout_ms;
      if (!HandleFrame(conn, frame, &hello_done)) break;
      continue;
    }
    if (status == FrameDecoder::Status::kMalformed) {
      frames_malformed_.fetch_add(1, std::memory_order_relaxed);
      // The stream has lost framing; request id 0 because the header
      // cannot be trusted. One diagnostic, then close.
      WriteError(conn, 0, ErrorCode::kMalformed, reason);
      break;
    }
    // kNeedMore.
    if (peer_gone) break;  // every fully-received request was answered
    if (DeadlineExpired(deadline)) {
      connections_evicted_idle_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    size_t received = 0;
    const IoStatus io = conn->socket.RecvSome(
        chunk.data(), chunk.size(), kPollSliceMs, &received);
    if (io == IoStatus::kOk) {
      decoder.Feed(chunk.data(), received);
    } else if (io != IoStatus::kTimeout) {
      // EOF, reset, or injected disconnect. A torn frame still buffered
      // is simply abandoned; complete ones are drained above.
      peer_gone = true;
    }
  }
  // Half-close only: the FIN reaches the peer now, but the fd number
  // stays reserved until the Connection is destroyed after this thread
  // is joined (ReapFinished or Shutdown). Closing here would release
  // the fd for kernel reuse while Shutdown() may still ShutdownRead()
  // it — aimed at a recycled, unrelated socket.
  conn->socket.ShutdownBoth();
  conn->done.store(true, std::memory_order_release);
}

bool TcpIngestServer::HandleFrame(Connection* conn, const Frame& frame,
                                  bool* hello_done) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloRequest hello;
      if (!DecodeHello(frame.payload, &hello)) {
        frames_malformed_.fetch_add(1, std::memory_order_relaxed);
        WriteError(conn, frame.request_id, ErrorCode::kMalformed,
                   "bad hello payload");
        return false;
      }
      if (hello.num_value_fields != config_.num_value_fields ||
          hello.num_classes != config_.num_classes) {
        WriteError(conn, frame.request_id, ErrorCode::kUnsupported,
                   "dataset shape mismatch: server expects " +
                       std::to_string(config_.num_value_fields) +
                       " value fields / " +
                       std::to_string(config_.num_classes) + " classes");
        return false;
      }
      *hello_done = true;
      return WriteFrame(conn,
                        {FrameType::kHelloAck, frame.request_id, ""});
    }
    case FrameType::kIngestBatch: {
      if (!*hello_done) {
        // Protocol misuse, but the stream is still framed: answer and
        // keep the connection so the client can hello and proceed.
        return WriteError(conn, frame.request_id, ErrorCode::kUnsupported,
                          "hello must precede ingest");
      }
      const KvecConfig& model = server_->model().config();
      auto fits = [&model](const Item& item) {
        return ItemFitsEmbedding(item, model.spec,
                                 model.use_membership_embedding);
      };
      std::vector<Item> items;
      const char* malformed = nullptr;
      if (!DecodeItems(frame.payload, &items)) {
        malformed = "bad ingest payload";
      } else if (!std::all_of(items.begin(), items.end(), fits)) {
        // The model's embedding lookups would abort on such an item.
        malformed = "item outside the model's value fields or key range";
      }
      if (malformed != nullptr) {
        frames_malformed_.fetch_add(1, std::memory_order_relaxed);
        WriteError(conn, frame.request_id, ErrorCode::kMalformed, malformed);
        return false;
      }
      const int64_t total = static_cast<int64_t>(items.size());
      const int64_t shed = server_->Submit(items);
      const int64_t accepted = total - shed;
      batches_ingested_.fetch_add(1, std::memory_order_relaxed);
      items_accepted_.fetch_add(accepted, std::memory_order_relaxed);
      items_shed_.fetch_add(shed, std::memory_order_relaxed);
      if (shed > 0) {
        return WriteError(conn, frame.request_id, ErrorCode::kOverloaded,
                          "shard queues full: back off and retry",
                          accepted, shed);
      }
      IngestAck ack;
      ack.accepted = accepted;
      return WriteFrame(conn, {FrameType::kIngestAck, frame.request_id,
                               EncodeIngestAck(ack)});
    }
    case FrameType::kStatsQuery: {
      const StreamServerStats merged = server_->stats();
      StatsReply reply;
      reply.items_submitted = merged.items_submitted;
      reply.items_processed = merged.items_processed;
      reply.items_shed = merged.items_shed;
      reply.sequences_classified = merged.sequences_classified;
      reply.open_keys = server_->open_keys();
      return WriteFrame(conn, {FrameType::kStatsReply, frame.request_id,
                               EncodeStatsReply(reply)});
    }
    case FrameType::kFlush: {
      FlushAck ack;
      ack.events = static_cast<int64_t>(server_->Flush().size());
      return WriteFrame(conn, {FrameType::kFlushAck, frame.request_id,
                               EncodeFlushAck(ack)});
    }
    default:
      return WriteError(conn, frame.request_id, ErrorCode::kUnsupported,
                        std::string("unsupported frame type ") +
                            FrameTypeName(frame.type));
  }
}

bool TcpIngestServer::WriteFrame(Connection* conn, const Frame& frame) {
  const std::string bytes = EncodeFrame(frame);
  return conn->socket.SendAll(bytes.data(), bytes.size(),
                              config_.io_timeout_ms) == IoStatus::kOk;
}

bool TcpIngestServer::WriteError(Connection* conn, uint64_t request_id,
                                 ErrorCode code, const std::string& message,
                                 int64_t accepted, int64_t shed) {
  ErrorFrame error;
  error.code = code;
  error.message = message;
  error.accepted = accepted;
  error.shed = shed;
  const bool ok = WriteFrame(
      conn, {FrameType::kError, request_id, EncodeError(error)});
  if (ok) errors_sent_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace net
}  // namespace kvec
