// Wire-framing hardening: a FrameDecoder fed hostile or torn byte streams
// must fail closed — reject before allocating, poison after
// desynchronization, and never mis-parse a valid frame that arrives one
// byte at a time.
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "util/serialize.h"

namespace kvec {
namespace net {
namespace {

std::string RawHeader(uint32_t magic, uint16_t version, uint16_t type,
                      uint64_t request_id, uint32_t payload_len) {
  std::string out;
  const auto append = [&out](const void* data, size_t size) {
    out.append(static_cast<const char*>(data), size);
  };
  append(&magic, sizeof(magic));
  append(&version, sizeof(version));
  append(&type, sizeof(type));
  append(&request_id, sizeof(request_id));
  append(&payload_len, sizeof(payload_len));
  return out;
}

Item MakeItem(int key, std::vector<int> value, double time) {
  Item item;
  item.key = key;
  item.value = std::move(value);
  item.time = time;
  return item;
}

TEST(NetFrameTest, HeaderIsTwentyBytes) {
  Frame frame;
  frame.type = FrameType::kFlush;
  frame.request_id = 7;
  EXPECT_EQ(EncodeFrame(frame).size(), kFrameHeaderBytes);
}

TEST(NetFrameTest, RoundTripsEveryFrameType) {
  for (FrameType type :
       {FrameType::kHello, FrameType::kIngestBatch, FrameType::kStatsQuery,
        FrameType::kFlush, FrameType::kHelloAck, FrameType::kIngestAck,
        FrameType::kStatsReply, FrameType::kFlushAck, FrameType::kError}) {
    Frame frame;
    frame.type = type;
    frame.request_id = 0xdeadbeefcafeULL;
    frame.payload = "payload-" + std::string(FrameTypeName(type));
    const std::string bytes = EncodeFrame(frame);

    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame decoded;
    std::string error;
    ASSERT_EQ(decoder.Next(&decoded, &error), FrameDecoder::Status::kFrame);
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.request_id, frame.request_id);
    EXPECT_EQ(decoded.payload, frame.payload);
    EXPECT_EQ(decoder.Next(&decoded, &error),
              FrameDecoder::Status::kNeedMore);
  }
}

TEST(NetFrameTest, DecodesTornFramesFedOneByteAtATime) {
  Frame frame;
  frame.type = FrameType::kIngestBatch;
  frame.request_id = 42;
  frame.payload = EncodeItems({MakeItem(3, {1, 2}, 0.5)});
  const std::string bytes = EncodeFrame(frame);

  FrameDecoder decoder;
  Frame decoded;
  std::string error;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    ASSERT_EQ(decoder.Next(&decoded, &error),
              FrameDecoder::Status::kNeedMore)
        << "byte " << i;
  }
  decoder.Feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.Next(&decoded, &error), FrameDecoder::Status::kFrame);
  std::vector<Item> items;
  ASSERT_TRUE(DecodeItems(decoded.payload, &items));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].key, 3);
  EXPECT_EQ(items[0].value, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(items[0].time, 0.5);
}

TEST(NetFrameTest, ExtractsBackToBackFramesFromOneFeed) {
  std::string bytes;
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame frame;
    frame.type = FrameType::kStatsQuery;
    frame.request_id = id;
    bytes += EncodeFrame(frame);
  }
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame decoded;
    std::string error;
    ASSERT_EQ(decoder.Next(&decoded, &error), FrameDecoder::Status::kFrame);
    EXPECT_EQ(decoded.request_id, id);
  }
}

// The regression the framing layer exists for: a 4 GiB length prefix is
// rejected while the decoder has buffered only the 20 header bytes the
// peer actually sent — the hostile length never drives an allocation.
TEST(NetFrameTest, HostileFourGiBLengthPrefixRejectedBeforeAllocation) {
  const uint32_t hostile_len = std::numeric_limits<uint32_t>::max() - 16;
  const std::string header = RawHeader(
      kFrameMagic, kFrameProtocolVersion,
      static_cast<uint16_t>(FrameType::kIngestBatch), 1, hostile_len);
  FrameDecoder decoder;  // default 4 MiB cap
  decoder.Feed(header.data(), header.size());
  EXPECT_EQ(decoder.buffered_bytes(), kFrameHeaderBytes);
  Frame decoded;
  std::string error;
  EXPECT_EQ(decoder.Next(&decoded, &error),
            FrameDecoder::Status::kMalformed);
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
  // Still just the header: rejection happened before any payload
  // buffering or reservation could be sized by the hostile length.
  EXPECT_EQ(decoder.buffered_bytes(), kFrameHeaderBytes);
}

TEST(NetFrameTest, BadMagicPoisonsTheDecoder) {
  const std::string header = RawHeader(
      0x12345678u, kFrameProtocolVersion,
      static_cast<uint16_t>(FrameType::kHello), 1, 0);
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame decoded;
  std::string error;
  EXPECT_EQ(decoder.Next(&decoded, &error),
            FrameDecoder::Status::kMalformed);
  // Poisoned: even a subsequently fed valid frame is refused, because a
  // desynchronized stream cannot be trusted again.
  Frame valid;
  valid.type = FrameType::kFlush;
  const std::string bytes = EncodeFrame(valid);
  decoder.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.Next(&decoded, &error),
            FrameDecoder::Status::kMalformed);
}

TEST(NetFrameTest, ResetStartsAFreshStream) {
  // A poisoned decoder with a torn frame buffered: Reset drops both, as a
  // client does when it reconnects.
  const std::string bad = RawHeader(
      0x12345678u, kFrameProtocolVersion,
      static_cast<uint16_t>(FrameType::kHello), 1, 0);
  Frame valid;
  valid.type = FrameType::kFlush;
  valid.request_id = 9;
  const std::string bytes = EncodeFrame(valid);
  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  Frame decoded;
  std::string error;
  ASSERT_EQ(decoder.Next(&decoded, &error), FrameDecoder::Status::kMalformed);
  decoder.Reset();
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  decoder.Feed(bytes.data(), 5);
  decoder.Reset();
  EXPECT_EQ(decoder.Next(&decoded, &error), FrameDecoder::Status::kNeedMore);
  decoder.Feed(bytes.data(), bytes.size());
  ASSERT_EQ(decoder.Next(&decoded, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoded.type, FrameType::kFlush);
  EXPECT_EQ(decoded.request_id, 9u);
}

TEST(NetFrameTest, WrongProtocolVersionIsMalformed) {
  const std::string header = RawHeader(
      kFrameMagic, kFrameProtocolVersion + 1,
      static_cast<uint16_t>(FrameType::kHello), 1, 0);
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame decoded;
  std::string error;
  EXPECT_EQ(decoder.Next(&decoded, &error),
            FrameDecoder::Status::kMalformed);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(NetFrameTest, EnforcesTheConfiguredPayloadCap) {
  Frame frame;
  frame.type = FrameType::kIngestBatch;
  frame.payload.assign(65, 'x');
  const std::string bytes = EncodeFrame(frame);

  FrameDecoder tight(/*max_frame_bytes=*/64);
  tight.Feed(bytes.data(), bytes.size());
  Frame decoded;
  std::string error;
  EXPECT_EQ(tight.Next(&decoded, &error), FrameDecoder::Status::kMalformed);

  frame.payload.assign(64, 'x');
  const std::string ok_bytes = EncodeFrame(frame);
  FrameDecoder roomy(/*max_frame_bytes=*/64);
  roomy.Feed(ok_bytes.data(), ok_bytes.size());
  EXPECT_EQ(roomy.Next(&decoded, &error), FrameDecoder::Status::kFrame);
}

TEST(NetFrameTest, PayloadCodecsRoundTrip) {
  HelloRequest hello{5, 3};
  HelloRequest hello_out;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &hello_out));
  EXPECT_EQ(hello_out.num_value_fields, 5);
  EXPECT_EQ(hello_out.num_classes, 3);

  const std::vector<Item> items = {MakeItem(1, {9, 8, 7}, 1.25),
                                   MakeItem(2, {}, -3.5)};
  std::vector<Item> items_out;
  ASSERT_TRUE(DecodeItems(EncodeItems(items), &items_out));
  ASSERT_EQ(items_out.size(), 2u);
  EXPECT_EQ(items_out[0].value, items[0].value);
  EXPECT_DOUBLE_EQ(items_out[1].time, -3.5);

  IngestAck ack{100, 4};
  IngestAck ack_out;
  ASSERT_TRUE(DecodeIngestAck(EncodeIngestAck(ack), &ack_out));
  EXPECT_EQ(ack_out.accepted, 100);
  EXPECT_EQ(ack_out.shed, 4);

  StatsReply stats{10, 8, 2, 3, 1};
  StatsReply stats_out;
  ASSERT_TRUE(DecodeStatsReply(EncodeStatsReply(stats), &stats_out));
  EXPECT_EQ(stats_out.items_submitted, 10);
  EXPECT_EQ(stats_out.open_keys, 1);

  FlushAck flush{6};
  FlushAck flush_out;
  ASSERT_TRUE(DecodeFlushAck(EncodeFlushAck(flush), &flush_out));
  EXPECT_EQ(flush_out.events, 6);

  ErrorFrame error{ErrorCode::kOverloaded, "queue full", 30, 2};
  ErrorFrame error_out;
  ASSERT_TRUE(DecodeError(EncodeError(error), &error_out));
  EXPECT_EQ(error_out.code, ErrorCode::kOverloaded);
  EXPECT_EQ(error_out.message, "queue full");
  EXPECT_EQ(error_out.accepted, 30);
  EXPECT_EQ(error_out.shed, 2);
}

TEST(NetFrameTest, RejectsHostileItemCountAndTrailingBytes) {
  // A count the payload cannot possibly hold fails before any reserve.
  BinaryWriter writer;
  writer.WriteInt32(1 << 30);
  std::vector<Item> items;
  EXPECT_FALSE(DecodeItems(writer.buffer(), &items));

  // Trailing bytes after a structurally valid payload are corruption.
  std::string padded = EncodeItems({MakeItem(1, {2}, 0.0)});
  padded.push_back('\0');
  EXPECT_FALSE(DecodeItems(padded, &items));

  // Truncation inside an item fails closed.
  const std::string whole = EncodeItems({MakeItem(1, {2, 3}, 1.0)});
  const std::string truncated = whole.substr(0, whole.size() - 3);
  EXPECT_FALSE(DecodeItems(truncated, &items));
}

TEST(NetFrameTest, NamesAreStable) {
  EXPECT_STREQ(FrameTypeName(FrameType::kIngestBatch), "ingest_batch");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kMalformed), "MALFORMED");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kOverloaded), "OVERLOADED");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnsupported), "UNSUPPORTED");
}

}  // namespace
}  // namespace net
}  // namespace kvec
