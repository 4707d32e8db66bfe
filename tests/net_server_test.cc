// Connection-lifecycle behavior of the TCP ingest front end.
//
// Each test drives a real loopback socket against a TcpIngestServer over a
// small trained model, forcing one hostile or unlucky lifecycle through
// the `net.*` fault points (util/fault_injection.h) or raw byte streams:
// torn frames, hostile length prefixes, slow-loris idleness, overload,
// disconnects mid-batch, and graceful drain with in-flight work. The
// invariant carried over from the overload harness: after drain,
// items_submitted == items_processed + items_shed on the shard server.
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/loadgen.h"
#include "net/socket.h"
#include "net/tcp_ingest_server.h"
#include "util/fault_injection.h"

namespace kvec {
namespace net {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<KvecModel> model;
};

Fixture TrainSmallModel(uint64_t seed = 137) {
  TrafficGeneratorConfig generator_config;
  generator_config.num_classes = 2;
  generator_config.concurrency = 3;
  generator_config.avg_flow_length = 12.0;
  generator_config.min_flow_length = 6;
  generator_config.handshake_sharpness = 6.0;
  TrafficGenerator generator(generator_config);
  Fixture fixture;
  fixture.dataset = GenerateDataset(generator, {12, 2, 6}, seed);
  KvecConfig config = KvecConfig::ForSpec(fixture.dataset.spec);
  config.embed_dim = 12;
  config.state_dim = 16;
  config.num_blocks = 1;
  config.ffn_hidden_dim = 16;
  config.epochs = 3;
  config.beta = 5e-3f;
  fixture.model = std::make_unique<KvecModel>(config);
  KvecTrainer trainer(fixture.model.get());
  trainer.Train(fixture.dataset.train);
  return fixture;
}

// Expensive to train; every test reads it, none mutates it.
const Fixture& SharedFixture() {
  static const Fixture fixture = TrainSmallModel();
  return fixture;
}

std::vector<Item> TestItems(int count) {
  std::vector<Item> items;
  for (const TangledSequence& episode : SharedFixture().dataset.test) {
    for (const Item& item : episode.items) {
      items.push_back(item);
      if (static_cast<int>(items.size()) == count) return items;
    }
  }
  return items;
}

class NetServerTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::DisarmAll(); }

  // Builds server + TCP front end with test-friendly timeouts.
  void StartServer(int workers = 0, int queue_depth = 256,
                   OverloadPolicy policy = OverloadPolicy::kBlock,
                   int max_connections = 8) {
    const Fixture& fixture = SharedFixture();
    ShardedStreamServerConfig config;
    config.num_shards = workers > 0 ? workers : 2;
    config.worker_threads = workers;
    config.queue_depth = queue_depth;
    config.overload_policy = policy;
    server_ = std::make_unique<ShardedStreamServer>(*fixture.model, config);

    TcpIngestServerConfig net_config;
    net_config.port = 0;
    net_config.max_connections = max_connections;
    net_config.idle_timeout_ms = 30000;  // eviction tests use net.deadline
    net_config.io_timeout_ms = 2000;
    net_config.num_value_fields =
        fixture.model->config().spec.num_value_fields();
    net_config.num_classes = fixture.model->config().spec.num_classes;
    tcp_ = std::make_unique<TcpIngestServer>(server_.get(), net_config);
    std::string error;
    ASSERT_TRUE(tcp_->Start(&error)) << error;
    ASSERT_NE(tcp_->port(), 0);  // port 0 bind reported the kernel's pick
  }

  ClientConfig MakeClientConfig() const {
    ClientConfig config;
    config.port = tcp_->port();
    return config;
  }

  bool ClientHello(IngestClient* client) {
    const Fixture& fixture = SharedFixture();
    std::string error;
    if (!client->Connect(&error)) {
      ADD_FAILURE() << "connect: " << error;
      return false;
    }
    if (!client->Hello(fixture.model->config().spec.num_value_fields(),
                       fixture.model->config().spec.num_classes, &error)) {
      ADD_FAILURE() << "hello: " << error;
      return false;
    }
    return true;
  }

  void ExpectInvariantAfterDrain() {
    server_->Drain();
    const StreamServerStats stats = server_->stats();
    EXPECT_EQ(stats.items_submitted,
              stats.items_processed + stats.items_shed);
  }

  // Polls `predicate` for up to two seconds (handler threads race tests).
  template <typename Predicate>
  bool WaitFor(Predicate predicate, int timeout_ms = 2000) {
    const int64_t deadline = SteadyNowMs() + timeout_ms;
    while (SteadyNowMs() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate();
  }

  std::unique_ptr<ShardedStreamServer> server_;
  std::unique_ptr<TcpIngestServer> tcp_;
};

TEST_F(NetServerTest, HelloIngestStatsFlushRoundTrip) {
  StartServer();
  IngestClient client(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&client));

  const std::vector<Item> items = TestItems(24);
  Frame reply;
  ASSERT_EQ(client.Call(FrameType::kIngestBatch, EncodeItems(items), &reply),
            IngestClient::CallStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kIngestAck);
  IngestAck ack;
  ASSERT_TRUE(DecodeIngestAck(reply.payload, &ack));
  EXPECT_EQ(ack.accepted, static_cast<int64_t>(items.size()));
  EXPECT_EQ(ack.shed, 0);

  ASSERT_EQ(client.Call(FrameType::kStatsQuery, "", &reply),
            IngestClient::CallStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kStatsReply);
  StatsReply stats;
  ASSERT_TRUE(DecodeStatsReply(reply.payload, &stats));
  EXPECT_EQ(stats.items_submitted, static_cast<int64_t>(items.size()));
  EXPECT_EQ(stats.items_shed, 0);

  ASSERT_EQ(client.Call(FrameType::kFlush, "", &reply),
            IngestClient::CallStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kFlushAck);
  FlushAck flush;
  ASSERT_TRUE(DecodeFlushAck(reply.payload, &flush));
  EXPECT_GT(flush.events, 0);

  client.Close();
  tcp_->Shutdown();
  ExpectInvariantAfterDrain();
}

TEST_F(NetServerTest, HelloShapeMismatchIsRejected) {
  StartServer();
  IngestClient client(MakeClientConfig());
  std::string error;
  ASSERT_TRUE(client.Connect(&error)) << error;
  EXPECT_FALSE(client.Hello(999, 999, &error));
  EXPECT_NE(error.find("UNSUPPORTED"), std::string::npos) << error;
}

TEST_F(NetServerTest, IngestBeforeHelloIsUnsupportedButRecoverable) {
  StartServer();
  IngestClient client(MakeClientConfig());
  std::string error;
  ASSERT_TRUE(client.Connect(&error)) << error;
  Frame reply;
  ASSERT_EQ(client.Call(FrameType::kIngestBatch,
                        EncodeItems(TestItems(4)), &reply),
            IngestClient::CallStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kError);
  ErrorFrame frame;
  ASSERT_TRUE(DecodeError(reply.payload, &frame));
  EXPECT_EQ(frame.code, ErrorCode::kUnsupported);
  // The stream is still framed, so the connection survives: hello and
  // ingest now succeed on the same socket.
  const Fixture& fixture = SharedFixture();
  ASSERT_TRUE(client.Hello(fixture.model->config().spec.num_value_fields(),
                           fixture.model->config().spec.num_classes,
                           &error))
      << error;
  ASSERT_EQ(client.Call(FrameType::kIngestBatch,
                        EncodeItems(TestItems(4)), &reply),
            IngestClient::CallStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kIngestAck);
}

// Items the model cannot embed (a value arity other than the spec's, a
// token outside its field's vocabulary, a negative key while the
// membership embedding is on) would abort the process inside the
// embedding lookups. Each earns a MALFORMED frame for its whole batch and
// a frames_malformed count, never reaches the shards, and the server goes
// on serving valid batches.
TEST_F(NetServerTest, ItemsTheModelCannotEmbedAreMalformed) {
  StartServer();
  const KvecConfig& model = SharedFixture().model->config();
  ASSERT_TRUE(model.use_membership_embedding);
  const Item valid = TestItems(1).front();
  auto with = [&valid](const std::function<void(Item*)>& mutate) {
    Item item = valid;
    mutate(&item);
    return item;
  };
  const int vocab = model.spec.value_fields[0].vocab_size;
  const std::vector<std::pair<std::string, Item>> bad = {
      {"short value vector", with([](Item* item) { item->value.pop_back(); })},
      {"long value vector", with([](Item* item) { item->value.push_back(0); })},
      {"negative token", with([](Item* item) { item->value[0] = -1; })},
      {"token past the vocabulary",
       with([vocab](Item* item) { item->value[0] = vocab; })},
      {"negative key", with([](Item* item) { item->key = -5; })},
  };
  for (const auto& [name, item] : bad) {
    SCOPED_TRACE(name);
    IngestClient client(MakeClientConfig());
    ASSERT_TRUE(ClientHello(&client));
    std::vector<Item> batch = TestItems(4);
    batch.push_back(item);
    Frame reply;
    ASSERT_EQ(client.Call(FrameType::kIngestBatch, EncodeItems(batch), &reply),
              IngestClient::CallStatus::kOk);
    ASSERT_EQ(reply.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(reply.payload, &error));
    EXPECT_EQ(error.code, ErrorCode::kMalformed);
  }
  EXPECT_EQ(tcp_->stats().frames_malformed,
            static_cast<int64_t>(bad.size()));
  EXPECT_EQ(tcp_->stats().items_accepted, 0);
  const StreamServerStats untouched = server_->stats();
  EXPECT_EQ(untouched.items_submitted, 0);
  EXPECT_EQ(untouched.items_processed, 0);
  EXPECT_EQ(untouched.sequences_classified, 0);
  EXPECT_EQ(server_->open_keys(), 0);

  IngestClient client(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&client));
  const std::vector<Item> items = TestItems(8);
  Frame reply;
  ASSERT_EQ(client.Call(FrameType::kIngestBatch, EncodeItems(items), &reply),
            IngestClient::CallStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kIngestAck);
  IngestAck ack;
  ASSERT_TRUE(DecodeIngestAck(reply.payload, &ack));
  EXPECT_EQ(ack.accepted, static_cast<int64_t>(items.size()));
  client.Close();
  tcp_->Shutdown();
  ExpectInvariantAfterDrain();
  EXPECT_EQ(server_->stats().items_processed,
            static_cast<int64_t>(items.size()));
}

TEST_F(NetServerTest, GarbageBytesEarnMalformedErrorAndClose) {
  StartServer();
  std::string error;
  Socket socket = Socket::Connect("127.0.0.1", tcp_->port(), 2000, &error);
  ASSERT_TRUE(socket.valid()) << error;
  // Longer than one frame header, so the decoder can actually judge it.
  const std::string garbage = "GET /ingest HTTP/1.1\r\nHost: kvec\r\n\r\n";
  ASSERT_EQ(socket.SendAll(garbage.data(), garbage.size(), 2000),
            IoStatus::kOk);

  // Expect one MALFORMED error frame, then EOF.
  FrameDecoder decoder;
  Frame reply;
  std::string reason;
  char buffer[1024];
  bool got_frame = false;
  bool got_eof = false;
  for (int i = 0; i < 100 && !got_eof; ++i) {
    size_t received = 0;
    const IoStatus io = socket.RecvSome(buffer, sizeof(buffer), 100,
                                        &received);
    if (io == IoStatus::kOk) {
      decoder.Feed(buffer, received);
      if (decoder.Next(&reply, &reason) == FrameDecoder::Status::kFrame) {
        got_frame = true;
      }
    } else if (io != IoStatus::kTimeout) {
      got_eof = true;
    }
  }
  ASSERT_TRUE(got_frame);
  EXPECT_TRUE(got_eof);
  ASSERT_EQ(reply.type, FrameType::kError);
  ErrorFrame frame;
  ASSERT_TRUE(DecodeError(reply.payload, &frame));
  EXPECT_EQ(frame.code, ErrorCode::kMalformed);
  EXPECT_TRUE(WaitFor([&] { return tcp_->stats().frames_malformed >= 1; }));
}

// The hostile 4 GiB length prefix, this time over a real socket: rejected
// as MALFORMED without the server buffering anything payload-sized.
TEST_F(NetServerTest, HostileLengthPrefixOverTheWireIsMalformed) {
  StartServer();
  std::string error;
  Socket socket = Socket::Connect("127.0.0.1", tcp_->port(), 2000, &error);
  ASSERT_TRUE(socket.valid()) << error;
  std::string header;
  const uint32_t magic = kFrameMagic;
  const uint16_t version = kFrameProtocolVersion;
  const uint16_t type = static_cast<uint16_t>(FrameType::kIngestBatch);
  const uint64_t request_id = 9;
  const uint32_t hostile_len = 0xfffffff0u;
  header.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));
  header.append(reinterpret_cast<const char*>(&type), sizeof(type));
  header.append(reinterpret_cast<const char*>(&request_id),
                sizeof(request_id));
  header.append(reinterpret_cast<const char*>(&hostile_len),
                sizeof(hostile_len));
  ASSERT_EQ(socket.SendAll(header.data(), header.size(), 2000),
            IoStatus::kOk);
  EXPECT_TRUE(WaitFor([&] { return tcp_->stats().frames_malformed >= 1; }));
}

// Disconnect mid-batch: the peer vanishes with half a frame on the wire.
// The handler must abandon the torn frame, close, and leave the server
// fully serviceable for the next connection.
TEST_F(NetServerTest, DisconnectMidBatchLeavesServerServiceable) {
  StartServer();
  const std::vector<Item> items = TestItems(16);
  Frame frame;
  frame.type = FrameType::kIngestBatch;
  frame.request_id = 5;
  frame.payload = EncodeItems(items);
  const std::string bytes = EncodeFrame(frame);
  {
    std::string error;
    Socket socket = Socket::Connect("127.0.0.1", tcp_->port(), 2000,
                                    &error);
    ASSERT_TRUE(socket.valid()) << error;
    // Half the frame, then a hard close (RAII) — a torn write.
    ASSERT_EQ(socket.SendAll(bytes.data(), bytes.size() / 2, 2000),
              IoStatus::kOk);
  }
  EXPECT_TRUE(WaitFor([&] { return tcp_->active_connections() == 0; }));
  // The torn frame was abandoned: nothing was submitted to the shards.
  EXPECT_EQ(server_->stats().items_submitted, 0);

  IngestClient client(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&client));
  Frame reply;
  ASSERT_EQ(client.Call(FrameType::kIngestBatch, EncodeItems(items), &reply),
            IngestClient::CallStatus::kOk);
  EXPECT_EQ(reply.type, FrameType::kIngestAck);
  tcp_->Shutdown();
  ExpectInvariantAfterDrain();
}

// Slow loris: a connection that never completes a frame. The per-frame
// idle deadline evicts it; `net.deadline` forces the expiry so the test
// does not wait out a real timeout.
TEST_F(NetServerTest, SlowLorisConnectionIsEvicted) {
  StartServer();
  std::string error;
  Socket socket = Socket::Connect("127.0.0.1", tcp_->port(), 2000, &error);
  ASSERT_TRUE(socket.valid()) << error;
  // Drip two bytes of a valid header — never a complete frame. The
  // deadline resets per frame, so these bytes must not keep it alive.
  const char drip[2] = {'\x46', '\x4e'};
  ASSERT_EQ(socket.SendAll(drip, sizeof(drip), 2000), IoStatus::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  FaultInjection::Arm("net.deadline", [](const char*) { return true; });
  EXPECT_TRUE(WaitFor(
      [&] { return tcp_->stats().connections_evicted_idle >= 1; }));
  EXPECT_GT(FaultInjection::FireCount("net.deadline"), 0);
  // The evicted client sees EOF, not a hang.
  char buffer[64];
  size_t received = 0;
  IoStatus io = IoStatus::kTimeout;
  for (int i = 0; i < 50 && io == IoStatus::kTimeout; ++i) {
    io = socket.RecvSome(buffer, sizeof(buffer), 100, &received);
  }
  EXPECT_EQ(io, IoStatus::kClosed);
}

TEST_F(NetServerTest, ConnectionLimitRejectsWithOverloadedFrame) {
  StartServer(/*workers=*/0, /*queue_depth=*/256, OverloadPolicy::kBlock,
              /*max_connections=*/1);
  IngestClient first(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&first));

  std::string error;
  Socket second = Socket::Connect("127.0.0.1", tcp_->port(), 2000, &error);
  ASSERT_TRUE(second.valid()) << error;
  FrameDecoder decoder;
  Frame reply;
  std::string reason;
  char buffer[1024];
  bool got_frame = false;
  for (int i = 0; i < 100 && !got_frame; ++i) {
    size_t received = 0;
    const IoStatus io = second.RecvSome(buffer, sizeof(buffer), 100,
                                        &received);
    if (io == IoStatus::kOk) {
      decoder.Feed(buffer, received);
      got_frame =
          decoder.Next(&reply, &reason) == FrameDecoder::Status::kFrame;
    } else if (io != IoStatus::kTimeout) {
      break;
    }
  }
  ASSERT_TRUE(got_frame);
  ASSERT_EQ(reply.type, FrameType::kError);
  ErrorFrame frame;
  ASSERT_TRUE(DecodeError(reply.payload, &frame));
  EXPECT_EQ(frame.code, ErrorCode::kOverloaded);
  EXPECT_EQ(tcp_->stats().connections_rejected, 1);
}

// An injected accept-time drop (`net.accept`) must not wedge the accept
// loop: the dropped client simply sees a close and the next connection
// succeeds.
TEST_F(NetServerTest, AcceptFaultDropsConnectionWithoutWedgingServer) {
  StartServer();
  std::atomic<int> fired{0};
  FaultInjection::Arm("net.accept", [&fired](const char*) {
    return fired.fetch_add(1) == 0;  // drop exactly the first accept
  });
  std::string error;
  Socket dropped = Socket::Connect("127.0.0.1", tcp_->port(), 2000, &error);
  ASSERT_TRUE(dropped.valid()) << error;
  char buffer[16];
  size_t received = 0;
  IoStatus io = IoStatus::kTimeout;
  for (int i = 0; i < 50 && io == IoStatus::kTimeout; ++i) {
    io = dropped.RecvSome(buffer, sizeof(buffer), 100, &received);
  }
  EXPECT_EQ(io, IoStatus::kClosed);

  IngestClient client(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&client));
}

// Overload composition: stalled shard workers + depth-1 queues force a
// shed; the client sees an OVERLOADED error frame with the accounting,
// backs off, retries, and eventually succeeds once the stall lifts.
TEST_F(NetServerTest, OverloadedResponseThenSuccessfulRetry) {
  StartServer(/*workers=*/2, /*queue_depth=*/1,
              OverloadPolicy::kShedNewest);
  std::atomic<bool> stall{true};
  FaultInjection::Arm("shard_worker.batch", [&stall](const char*) {
    while (stall.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  });

  IngestClient client(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&client));
  const std::string payload = EncodeItems(TestItems(8));

  // With workers wedged, depth-1 queues fill after a couple of batches;
  // some submission must come back OVERLOADED.
  bool saw_overloaded = false;
  ErrorFrame overloaded;
  for (int attempt = 0; attempt < 32 && !saw_overloaded; ++attempt) {
    Frame reply;
    ASSERT_EQ(client.Call(FrameType::kIngestBatch, payload, &reply),
              IngestClient::CallStatus::kOk);
    if (reply.type == FrameType::kError) {
      ASSERT_TRUE(DecodeError(reply.payload, &overloaded));
      ASSERT_EQ(overloaded.code, ErrorCode::kOverloaded);
      saw_overloaded = true;
    }
  }
  ASSERT_TRUE(saw_overloaded);
  EXPECT_GT(overloaded.shed, 0);

  // Back off (lift the stall — the "server recovered" half of the retry
  // contract), then the same batch goes through.
  stall.store(false);
  bool retried_ok = false;
  for (int attempt = 0; attempt < 32 && !retried_ok; ++attempt) {
    Frame reply;
    ASSERT_EQ(client.Call(FrameType::kIngestBatch, payload, &reply),
              IngestClient::CallStatus::kOk);
    retried_ok = reply.type == FrameType::kIngestAck;
    if (!retried_ok) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(retried_ok);

  client.Close();
  tcp_->Shutdown();
  ExpectInvariantAfterDrain();
  EXPECT_GT(server_->stats().items_shed, 0);
}

// Graceful drain with in-flight work: requests already accepted (acked
// into stalled shard queues) and requests already in the kernel's receive
// buffer are both completed by Shutdown(); only then does the handler see
// EOF. Accepted work is never dropped.
TEST_F(NetServerTest, ShutdownDrainsInFlightRequests) {
  StartServer(/*workers=*/2, /*queue_depth=*/256, OverloadPolicy::kBlock);
  std::atomic<bool> stall{true};
  FaultInjection::Arm("shard_worker.batch", [&stall](const char*) {
    while (stall.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  });

  IngestClient client(MakeClientConfig());
  ASSERT_TRUE(ClientHello(&client));
  const std::vector<Item> items = TestItems(12);
  Frame reply;
  ASSERT_EQ(client.Call(FrameType::kIngestBatch, EncodeItems(items), &reply),
            IngestClient::CallStatus::kOk);
  ASSERT_EQ(reply.type, FrameType::kIngestAck);
  // Acked into stalled queues: in-flight. (Checked via the lock-free TCP
  // counters — server_->stats() would queue behind the stalled workers.)
  ASSERT_EQ(tcp_->stats().items_accepted,
            static_cast<int64_t>(items.size()));

  // One more request is in flight on the wire when the drain begins.
  Frame stats_query;
  stats_query.type = FrameType::kStatsQuery;
  stats_query.request_id = 77;
  std::thread drainer;
  {
    // Raw second client so the request can be on the wire before Shutdown.
    std::string error;
    Socket socket = Socket::Connect("127.0.0.1", tcp_->port(), 2000,
                                    &error);
    ASSERT_TRUE(socket.valid()) << error;
    const std::string bytes = EncodeFrame(stats_query);
    ASSERT_EQ(socket.SendAll(bytes.data(), bytes.size(), 2000),
              IoStatus::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stall.store(false);
    drainer = std::thread([this] { tcp_->Shutdown(); });
    // The buffered request is still answered during the drain.
    FrameDecoder decoder;
    Frame drained_reply;
    std::string reason;
    char buffer[1024];
    bool got_reply = false;
    for (int i = 0; i < 100 && !got_reply; ++i) {
      size_t received = 0;
      const IoStatus io = socket.RecvSome(buffer, sizeof(buffer), 100,
                                          &received);
      if (io == IoStatus::kOk) {
        decoder.Feed(buffer, received);
        got_reply = decoder.Next(&drained_reply, &reason) ==
                    FrameDecoder::Status::kFrame;
      } else if (io != IoStatus::kTimeout) {
        break;
      }
    }
    ASSERT_TRUE(got_reply);
    EXPECT_EQ(drained_reply.type, FrameType::kStatsReply);
    EXPECT_EQ(drained_reply.request_id, 77u);
  }
  drainer.join();
  ExpectInvariantAfterDrain();
  const StreamServerStats stats = server_->stats();
  EXPECT_EQ(stats.items_processed, static_cast<int64_t>(items.size()));
  EXPECT_EQ(stats.items_shed, 0);
}

// `net.write_frame` forces a response-write failure; the handler must
// close rather than continue a connection whose responses are lost. The
// hook passes its first firing (the test's own send below) and fails the
// second (the server's reply write) — send order makes that deterministic.
TEST_F(NetServerTest, WriteFaultClosesConnection) {
  StartServer();
  std::string error;
  Socket socket = Socket::Connect("127.0.0.1", tcp_->port(), 2000, &error);
  ASSERT_TRUE(socket.valid()) << error;
  std::atomic<int> calls{0};
  FaultInjection::Arm("net.write_frame", [&calls](const char*) {
    return calls.fetch_add(1) >= 1;
  });
  Frame query;
  query.type = FrameType::kStatsQuery;
  query.request_id = 3;
  const std::string bytes = EncodeFrame(query);
  ASSERT_EQ(socket.SendAll(bytes.data(), bytes.size(), 2000), IoStatus::kOk);
  // No reply can arrive — the server's write failed — only EOF.
  char buffer[256];
  size_t received = 0;
  IoStatus io = IoStatus::kTimeout;
  for (int i = 0; i < 50 && io == IoStatus::kTimeout; ++i) {
    io = socket.RecvSome(buffer, sizeof(buffer), 100, &received);
  }
  EXPECT_EQ(io, IoStatus::kClosed);
  EXPECT_TRUE(WaitFor([&] { return tcp_->active_connections() == 0; }));
  EXPECT_EQ(tcp_->stats().frames_received, 1);
}

}  // namespace
}  // namespace net
}  // namespace kvec
