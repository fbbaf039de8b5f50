// The wire codec under the ReadSketch validate-everything discipline:
// round trips for every frame kind, and rejection of every malformed
// shape -- truncated header, oversized declared length, unknown opcode,
// version mismatch, trailing body bytes (mirrors sketch_file_test's
// malformed-header cases).

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace ifsketch::serve {
namespace {

std::string EncodedHeader(Opcode opcode, std::uint32_t body_length) {
  std::string frame;
  EXPECT_TRUE(EncodeFrame(opcode, 0, std::string(), &frame));
  // Patch the body length afterwards: EncodeFrame would (correctly)
  // refuse to declare a length it is not writing.
  std::memcpy(frame.data() + 8, &body_length, sizeof(body_length));
  return frame;
}

TEST(ServeProtocolTest, FrameHeaderRoundTrip) {
  std::string frame;
  ASSERT_TRUE(EncodeFrame(Opcode::kEstimate, 0, "abc", &frame));
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  const auto header = DecodeFrameHeader(frame.data(), kFrameHeaderBytes);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->opcode, Opcode::kEstimate);
  EXPECT_EQ(header->status, 0);
  EXPECT_EQ(header->body_length, 3u);
}

TEST(ServeProtocolTest, HeaderRejectsTruncation) {
  const std::string frame = EncodedHeader(Opcode::kInfo, 0);
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_FALSE(DecodeFrameHeader(frame.data(), len).has_value()) << len;
  }
}

TEST(ServeProtocolTest, HeaderRejectsBadMagic) {
  std::string frame = EncodedHeader(Opcode::kInfo, 0);
  frame[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderBytes)
                   .has_value());
}

TEST(ServeProtocolTest, HeaderRejectsVersionMismatch) {
  std::string frame = EncodedHeader(Opcode::kInfo, 0);
  const std::uint16_t bad_version = kProtocolVersion + 1;
  std::memcpy(frame.data() + 4, &bad_version, sizeof(bad_version));
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderBytes)
                   .has_value());
}

TEST(ServeProtocolTest, HeaderRejectsUnknownOpcode) {
  std::string frame = EncodedHeader(Opcode::kInfo, 0);
  // 0x06/0x86 were the HEALTH pair, retired with the in-process health
  // machine: reserved, and rejected like any unknown opcode.
  for (const unsigned char bad :
       {0x00, 0x06, 0x08, 0x7f, 0x86, 0x88, 0xfe}) {
    frame[6] = static_cast<char>(bad);
    EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderBytes)
                     .has_value())
        << int{bad};
  }
  // 0x07/0x87 are the STATS pair, no longer free.
  for (const unsigned char taken : {0x07, 0x87}) {
    frame[6] = static_cast<char>(taken);
    EXPECT_TRUE(DecodeFrameHeader(frame.data(), kFrameHeaderBytes)
                    .has_value())
        << int{taken};
  }
}

TEST(ServeProtocolTest, HeaderRejectsOversizedDeclaredLength) {
  const std::string frame =
      EncodedHeader(Opcode::kEstimate, kMaxBodyBytes + 1);
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderBytes)
                   .has_value());
  // The cap itself is fine -- the limit, not one past it.
  const std::string at_cap = EncodedHeader(Opcode::kEstimate, kMaxBodyBytes);
  EXPECT_TRUE(DecodeFrameHeader(at_cap.data(), kFrameHeaderBytes)
                  .has_value());
}

TEST(ServeProtocolTest, QueryRequestRoundTrip) {
  QueryRequest request;
  request.sketch = "baskets";
  request.queries = {{0, 3, 7}, {}, {41}};
  std::string body;
  ASSERT_TRUE(EncodeQueryRequest(request, &body));
  const auto back = DecodeQueryRequest(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sketch, request.sketch);
  EXPECT_EQ(back->queries, request.queries);
}

TEST(ServeProtocolTest, QueryRequestRejectsTruncationAtEveryLength) {
  QueryRequest request;
  request.sketch = "s";
  request.queries = {{1, 2}, {3}};
  std::string body;
  ASSERT_TRUE(EncodeQueryRequest(request, &body));
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeQueryRequest(body.substr(0, len)).has_value())
        << len;
  }
}

TEST(ServeProtocolTest, QueryRequestRejectsTrailingBytes) {
  QueryRequest request;
  request.sketch = "s";
  request.queries = {{1}};
  std::string body;
  ASSERT_TRUE(EncodeQueryRequest(request, &body));
  body.push_back('\0');
  EXPECT_FALSE(DecodeQueryRequest(body).has_value());
}

TEST(ServeProtocolTest, QueryRequestRejectsOverlongBatch) {
  // A declared count over the cap must be rejected from the count field
  // alone, before any allocation proportional to it.
  std::string body;
  const std::uint16_t name_len = 1;
  body.append(reinterpret_cast<const char*>(&name_len), 2);
  body.push_back('s');
  const std::uint32_t count = kMaxQueriesPerRequest + 1;
  body.append(reinterpret_cast<const char*>(&count), 4);
  EXPECT_FALSE(DecodeQueryRequest(body).has_value());
}

TEST(ServeProtocolTest, RefusedQueryRequestLeavesBodyUntouched) {
  // The oversize query comes after an encodable one: a refusal must not
  // leave that first query's bytes behind.
  QueryRequest request;
  request.sketch = "s";
  request.queries = {{1, 2}, std::vector<std::uint32_t>(0x10000, 3)};
  std::string body = "prefix";
  EXPECT_FALSE(EncodeQueryRequest(request, &body));
  EXPECT_EQ(body, "prefix");
  std::string frame = "prefix";
  EXPECT_FALSE(EncodeQueryFrame(Opcode::kEstimate, request.sketch,
                                request.queries, &frame));
  EXPECT_EQ(frame, "prefix");

  request.queries = {{1}};
  request.sketch.assign(0x10000, 'n');
  EXPECT_FALSE(EncodeQueryRequest(request, &body));
  EXPECT_EQ(body, "prefix");

  // Within every per-field limit but over kMaxBodyBytes as a frame.
  request.sketch = "s";
  request.queries.assign(kMaxBodyBytes / (4 * 0xffff) + 1,
                         std::vector<std::uint32_t>(0xffff, 7));
  EXPECT_FALSE(EncodeQueryFrame(Opcode::kEstimate, request.sketch,
                                request.queries, &frame));
  EXPECT_EQ(frame, "prefix");
}

TEST(ServeProtocolTest, QueryFrameIsHeaderPlusQueryRequestBody) {
  QueryRequest request;
  request.sketch = "baskets";
  request.queries = {{0, 3, 7}, {}, {41}};
  std::string body;
  ASSERT_TRUE(EncodeQueryRequest(request, &body));
  for (Opcode opcode : {Opcode::kEstimate, Opcode::kAreFrequent}) {
    std::string want = "x";
    ASSERT_TRUE(EncodeFrame(opcode, 0, body, &want));
    std::string got = "x";
    ASSERT_TRUE(
        EncodeQueryFrame(opcode, request.sketch, request.queries, &got));
    EXPECT_EQ(got, want);
  }
}

TEST(ServeProtocolTest, DeclaredCountsAreBoundedByActualBodyBytes) {
  // A few-byte body declaring a huge element count must be rejected
  // from the count field alone -- decoders size allocations from it.
  const std::uint32_t big = kMaxQueriesPerRequest;
  std::string body(reinterpret_cast<const char*>(&big), 4);
  EXPECT_FALSE(DecodeEstimateReply(body).has_value());
  EXPECT_FALSE(DecodeAreFrequentReply(body).has_value());
  std::string request;
  const std::uint16_t name_len = 1;
  request.append(reinterpret_cast<const char*>(&name_len), 2);
  request.push_back('s');
  request.append(reinterpret_cast<const char*>(&big), 4);
  request.push_back('\0');  // one spare byte, nowhere near `big` queries
  EXPECT_FALSE(DecodeQueryRequest(request).has_value());
}

TEST(ServeProtocolTest, EstimateReplyRoundTrip) {
  const std::vector<double> answers = {0.0, 0.25, 1.0, 3.14159e-7};
  std::string body;
  EncodeEstimateReply(answers, &body);
  const auto back = DecodeEstimateReply(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, answers);
}

TEST(ServeProtocolTest, AreFrequentReplyRoundTripAllWidths) {
  // Bit packing boundaries: 0..17 answers cover empty, sub-byte, exact
  // byte and byte+1 widths.
  for (std::size_t count = 0; count <= 17; ++count) {
    std::vector<bool> answers(count);
    for (std::size_t i = 0; i < count; ++i) answers[i] = (i % 3) == 0;
    std::string body;
    EncodeAreFrequentReply(answers, &body);
    const auto back = DecodeAreFrequentReply(body);
    ASSERT_TRUE(back.has_value()) << count;
    EXPECT_EQ(*back, answers) << count;
  }
}

TEST(ServeProtocolTest, InfoReplyRoundTrip) {
  SketchInfo info;
  info.algorithm = "MEDIAN-BOOST(SUBSAMPLE)";
  info.k = 3;
  info.eps = 0.05;
  info.delta = 0.01;
  info.scope = 1;
  info.answer = 1;
  info.n = 100000;
  info.d = 64;
  info.summary_bits = 123456;
  std::string body;
  EncodeInfoReply(info, &body);
  const auto back = DecodeInfoReply(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->algorithm, info.algorithm);
  EXPECT_EQ(back->k, info.k);
  EXPECT_DOUBLE_EQ(back->eps, info.eps);
  EXPECT_DOUBLE_EQ(back->delta, info.delta);
  EXPECT_EQ(back->scope, info.scope);
  EXPECT_EQ(back->answer, info.answer);
  EXPECT_EQ(back->n, info.n);
  EXPECT_EQ(back->d, info.d);
  EXPECT_EQ(back->summary_bits, info.summary_bits);
}

TEST(ServeProtocolTest, InfoReplyRejectsBadEnumBytes) {
  SketchInfo info;
  info.algorithm = "SUBSAMPLE";
  std::string body;
  EncodeInfoReply(info, &body);
  // scope byte sits right after the name (2 + 9), k (4), eps (8),
  // delta (8).
  const std::size_t scope_at = 2 + 9 + 4 + 8 + 8;
  std::string bad = body;
  bad[scope_at] = 2;
  EXPECT_FALSE(DecodeInfoReply(bad).has_value());
  bad = body;
  bad[scope_at + 1] = 7;  // answer byte
  EXPECT_FALSE(DecodeInfoReply(bad).has_value());
}

TEST(ServeProtocolTest, RefreshRequestRoundTrip) {
  std::string body;
  ASSERT_TRUE(EncodeRefreshRequest("stream", &body));
  const auto back = DecodeRefreshRequest(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "stream");
}

TEST(ServeProtocolTest, RefreshRequestRejectsTruncationAndTrailing) {
  std::string body;
  ASSERT_TRUE(EncodeRefreshRequest("stream", &body));
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeRefreshRequest(body.substr(0, len)).has_value())
        << len;
  }
  body.push_back('\0');
  EXPECT_FALSE(DecodeRefreshRequest(body).has_value());
}

TEST(ServeProtocolTest, SubscribeRequestRoundTrip) {
  SubscribeRequest request;
  request.sketch = "stream";
  request.min_epoch = 41;
  request.timeout_ms = 2500;
  std::string body;
  ASSERT_TRUE(EncodeSubscribeRequest(request, &body));
  const auto back = DecodeSubscribeRequest(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sketch, request.sketch);
  EXPECT_EQ(back->min_epoch, request.min_epoch);
  EXPECT_EQ(back->timeout_ms, request.timeout_ms);
}

TEST(ServeProtocolTest, SubscribeRequestRejectsTruncationAtEveryLength) {
  SubscribeRequest request;
  request.sketch = "s";
  request.min_epoch = 1;
  request.timeout_ms = 10;
  std::string body;
  ASSERT_TRUE(EncodeSubscribeRequest(request, &body));
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeSubscribeRequest(body.substr(0, len)).has_value())
        << len;
  }
  body.push_back('\0');
  EXPECT_FALSE(DecodeSubscribeRequest(body).has_value());
}

TEST(ServeProtocolTest, SubscribeRequestRejectsOversizedTimeout) {
  SubscribeRequest request;
  request.sketch = "s";
  request.timeout_ms = kMaxSubscribeTimeoutMs + 1;
  std::string body;
  // The encoder refuses the oversized timeout outright...
  EXPECT_FALSE(EncodeSubscribeRequest(request, &body));
  // ...and the decoder rejects a hand-built frame declaring one (a
  // malicious client must not park a server connection thread).
  request.timeout_ms = kMaxSubscribeTimeoutMs;
  body.clear();
  ASSERT_TRUE(EncodeSubscribeRequest(request, &body));
  const std::uint32_t oversized = kMaxSubscribeTimeoutMs + 1;
  std::memcpy(body.data() + body.size() - sizeof(oversized), &oversized,
              sizeof(oversized));
  EXPECT_FALSE(DecodeSubscribeRequest(body).has_value());
  // The cap itself is fine.
  const std::uint32_t at_cap = kMaxSubscribeTimeoutMs;
  std::memcpy(body.data() + body.size() - sizeof(at_cap), &at_cap,
              sizeof(at_cap));
  EXPECT_TRUE(DecodeSubscribeRequest(body).has_value());
}

TEST(ServeProtocolTest, SnapshotReplyRoundTrip) {
  SnapshotInfo info;
  info.epoch = 12;
  info.rows_seen = 120000;
  std::string body;
  EncodeSnapshotReply(info, &body);
  const auto back = DecodeSnapshotReply(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, info.epoch);
  EXPECT_EQ(back->rows_seen, info.rows_seen);
}

TEST(ServeProtocolTest, SnapshotReplyRejectsTruncationAndTrailing) {
  SnapshotInfo info;
  info.epoch = 1;
  info.rows_seen = 2;
  std::string body;
  EncodeSnapshotReply(info, &body);
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeSnapshotReply(body.substr(0, len)).has_value())
        << len;
  }
  body.push_back('\0');
  EXPECT_FALSE(DecodeSnapshotReply(body).has_value());
}

TEST(ServeProtocolTest, ErrorRoundTrip) {
  std::string wire;
  EncodeError(Status::kUnknownSketch, "no such sketch", &wire);
  const auto header = DecodeFrameHeader(wire.data(), kFrameHeaderBytes);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->opcode, Opcode::kError);
  EXPECT_EQ(header->status,
            static_cast<std::uint8_t>(Status::kUnknownSketch));
  const auto message =
      DecodeErrorMessage(wire.substr(kFrameHeaderBytes));
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(*message, "no such sketch");
}

StatsReply SampleStatsReply() {
  StatsReply reply;
  reply.counters.push_back({"serve_requests_total{op=\"estimate\"}", 42});
  reply.counters.push_back({"ingest_rows_total", 0});
  reply.gauges.push_back({"serve_pod_inflight{pod=\"0\"}", -3});
  StatsHistogram h;
  h.name = "serve_request_ns{op=\"estimate\"}";
  h.count = 5;
  h.sum = 1234;
  h.max = 900;
  h.buckets = {0, 2, 0, 3};
  reply.histograms.push_back(std::move(h));
  reply.histograms.push_back({"ingest_publish_ns", 0, 0, 0, {}});
  return reply;
}

TEST(ServeProtocolTest, StatsReplyRoundTrip) {
  const StatsReply reply = SampleStatsReply();
  std::string body;
  ASSERT_TRUE(EncodeStatsReply(reply, &body));
  const auto back = DecodeStatsReply(body);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->counters.size(), reply.counters.size());
  for (std::size_t i = 0; i < reply.counters.size(); ++i) {
    EXPECT_EQ(back->counters[i].name, reply.counters[i].name) << i;
    EXPECT_EQ(back->counters[i].value, reply.counters[i].value) << i;
  }
  ASSERT_EQ(back->gauges.size(), reply.gauges.size());
  EXPECT_EQ(back->gauges[0].name, reply.gauges[0].name);
  EXPECT_EQ(back->gauges[0].value, reply.gauges[0].value);
  ASSERT_EQ(back->histograms.size(), reply.histograms.size());
  EXPECT_EQ(back->histograms[0].name, reply.histograms[0].name);
  EXPECT_EQ(back->histograms[0].count, reply.histograms[0].count);
  EXPECT_EQ(back->histograms[0].sum, reply.histograms[0].sum);
  EXPECT_EQ(back->histograms[0].max, reply.histograms[0].max);
  EXPECT_EQ(back->histograms[0].buckets, reply.histograms[0].buckets);
  EXPECT_TRUE(back->histograms[1].buckets.empty());

  // The empty reply is valid (a server with nothing recorded yet).
  std::string empty_body;
  ASSERT_TRUE(EncodeStatsReply(StatsReply{}, &empty_body));
  const auto empty = DecodeStatsReply(empty_body);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->counters.empty());
  EXPECT_TRUE(empty->gauges.empty());
  EXPECT_TRUE(empty->histograms.empty());
}

TEST(ServeProtocolTest, StatsReplyRejectsMalformedBodies) {
  std::string body;
  ASSERT_TRUE(EncodeStatsReply(SampleStatsReply(), &body));
  // Truncation at every prefix length, and one trailing byte.
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeStatsReply(body.substr(0, len)).has_value()) << len;
  }
  std::string trailing = body;
  trailing.push_back('\0');
  EXPECT_FALSE(DecodeStatsReply(trailing).has_value());
  // A section count over the cap is rejected before any allocation.
  std::string huge;
  const std::uint32_t count = kMaxMetricsPerReply + 1;
  huge.append(reinterpret_cast<const char*>(&count), sizeof(count));
  EXPECT_FALSE(DecodeStatsReply(huge).has_value());
  // A declared count the remaining bytes cannot possibly hold.
  std::string lying;
  const std::uint32_t many = 1000;
  lying.append(reinterpret_cast<const char*>(&many), sizeof(many));
  lying.append(8, '\0');  // far fewer bytes than 1000 counter rows
  EXPECT_FALSE(DecodeStatsReply(lying).has_value());
}

TEST(ServeProtocolTest, StatsReplyRejectsOversizedHistogram) {
  StatsReply reply;
  StatsHistogram h;
  h.name = "too_wide";
  h.buckets.assign(kMaxHistogramBuckets + 1, 1);
  reply.histograms.push_back(std::move(h));
  std::string body;
  EXPECT_FALSE(EncodeStatsReply(reply, &body));
  // At the cap it encodes and round-trips.
  reply.histograms[0].buckets.assign(kMaxHistogramBuckets, 1);
  reply.histograms[0].count = kMaxHistogramBuckets;
  body.clear();
  ASSERT_TRUE(EncodeStatsReply(reply, &body));
  const auto back = DecodeStatsReply(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->histograms[0].buckets.size(), kMaxHistogramBuckets);
}

TEST(ServeProtocolTest, EncodeFrameRefusesOverlongBody) {
  std::string frame;
  const std::string body(kMaxBodyBytes + 1, 'x');
  EXPECT_FALSE(EncodeFrame(Opcode::kEstimate, 0, body, &frame));
  EXPECT_TRUE(frame.empty());
}

}  // namespace
}  // namespace ifsketch::serve
