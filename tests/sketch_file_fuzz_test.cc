// Deterministic byte-mutation fuzzing of the two binary decoders.
//
// Both ReadSketch (sketch/sketch_file.h) and the wire-protocol codec
// (serve/protocol.h) follow the validate-everything discipline: every
// header field checked before any body read, declared lengths capped,
// bodies consumed exactly. This suite regression-proofs that discipline
// with a seeded mutation fuzzer: start from valid bytes, apply random
// flips / overwrites / truncations / splices (~10k mutants per decoder
// per run), and require that decoding
//
//   (a) never crashes, over-reads or aborts, and
//   (b) either cleanly rejects (nullopt) or yields a value that survives
//       a re-encode/re-decode round trip unchanged -- a decoder that
//       "repairs" bytes into an unstable value is treated as a bug.
//
// The RNG is seeded, so a failure reproduces exactly; bump the seeds to
// widen coverage rather than re-rolling them per run.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "sketch/sketch_file.h"
#include "util/random.h"

namespace ifsketch {
namespace {

// Applies 1..4 random mutations: bit flip, byte overwrite, truncation,
// or a small splice (insert/erase), all position-uniform.
std::string Mutate(const std::string& bytes, util::Rng& rng) {
  std::string m = bytes;
  const std::size_t mutations = 1 + rng.UniformInt(4);
  for (std::size_t k = 0; k < mutations && !m.empty(); ++k) {
    switch (rng.UniformInt(5)) {
      case 0: {  // flip one bit
        const std::size_t i = rng.UniformInt(m.size());
        m[i] = static_cast<char>(m[i] ^ (1 << rng.UniformInt(8)));
        break;
      }
      case 1: {  // overwrite one byte
        m[rng.UniformInt(m.size())] =
            static_cast<char>(rng.UniformInt(256));
        break;
      }
      case 2: {  // truncate
        m.resize(rng.UniformInt(m.size() + 1));
        break;
      }
      case 3: {  // insert a random byte
        m.insert(m.begin() +
                     static_cast<std::ptrdiff_t>(rng.UniformInt(m.size() + 1)),
                 static_cast<char>(rng.UniformInt(256)));
        break;
      }
      default: {  // erase a byte
        m.erase(m.begin() +
                static_cast<std::ptrdiff_t>(rng.UniformInt(m.size())));
        break;
      }
    }
  }
  return m;
}

// ------------------------------------------------------------ IFSK files

sketch::SketchFile ValidSketchFile() {
  sketch::SketchFile file;
  file.algorithm = "SUBSAMPLE";
  file.params.k = 3;
  file.params.eps = 0.1;
  file.params.delta = 0.1;
  file.params.scope = core::Scope::kForAll;
  file.params.answer = core::Answer::kEstimator;
  file.n = 500;
  file.d = 16;
  util::Rng rng(31337);
  file.summary = rng.RandomBits(40 * 16);
  return file;
}

bool SameSketchFile(const sketch::SketchFile& a,
                    const sketch::SketchFile& b) {
  // Double fields compared bitwise-exact via ==: the codec moves raw
  // 8-byte values, so a round trip must preserve every bit (NaN payloads
  // cannot appear -- ValidSketchParams rejects non-finite eps/delta).
  return a.algorithm == b.algorithm && a.params.k == b.params.k &&
         a.params.eps == b.params.eps && a.params.delta == b.params.delta &&
         a.params.scope == b.params.scope &&
         a.params.answer == b.params.answer && a.n == b.n && a.d == b.d &&
         a.summary == b.summary;
}

TEST(SketchFileFuzzTest, MutantsNeverCrashAndRoundTripOrReject) {
  const sketch::SketchFile valid = ValidSketchFile();
  std::ostringstream valid_out;
  ASSERT_TRUE(sketch::WriteSketch(valid_out, valid));
  const std::string valid_bytes = valid_out.str();

  // Sanity: the unmutated bytes parse back to the same file.
  {
    std::istringstream in(valid_bytes);
    const auto parsed = sketch::ReadSketch(in);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(SameSketchFile(*parsed, valid));
  }

  util::Rng rng(20260731);
  std::size_t accepted = 0;
  constexpr std::size_t kMutants = 10000;
  for (std::size_t t = 0; t < kMutants; ++t) {
    const std::string mutant = Mutate(valid_bytes, rng);
    std::istringstream in(mutant);
    const auto parsed = sketch::ReadSketch(in);
    if (!parsed.has_value()) continue;  // clean rejection
    ++accepted;
    // Accepted mutants must re-serialize and re-parse to the same value:
    // whatever the decoder accepted, it accepted consistently.
    std::ostringstream re_out;
    ASSERT_TRUE(sketch::WriteSketch(re_out, *parsed)) << "mutant " << t;
    std::istringstream re_in(re_out.str());
    const auto reparsed = sketch::ReadSketch(re_in);
    ASSERT_TRUE(reparsed.has_value()) << "mutant " << t;
    ASSERT_TRUE(SameSketchFile(*parsed, *reparsed)) << "mutant " << t;
  }
  // Some mutants survive (e.g. payload-bit flips are valid files); if
  // none did, the fuzzer is likely broken, not the decoder strict.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

// ------------------------------------------------------- protocol frames

std::vector<std::string> ValidFrames() {
  using namespace serve;
  std::vector<std::string> frames;

  QueryRequest request;
  request.sketch = "golden";
  request.queries = {{0, 3, 7}, {1}, {}, {2, 5, 9, 11}};
  std::string body;
  EXPECT_TRUE(EncodeQueryRequest(request, &body));
  std::string frame;
  EXPECT_TRUE(EncodeFrame(Opcode::kEstimate, 0, body, &frame));
  frames.push_back(frame);
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kAreFrequent, 0, body, &frame));
  frames.push_back(frame);

  body.clear();
  EncodeEstimateReply({0.25, 0.5, 1.0, 0.125}, &body);
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kEstimateReply, 0, body, &frame));
  frames.push_back(frame);

  body.clear();
  EncodeAreFrequentReply({true, false, true, true, false, false, true, false,
                          true},
                         &body);
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kAreFrequentReply, 0, body, &frame));
  frames.push_back(frame);

  body.clear();
  EXPECT_TRUE(EncodeInfoRequest("golden", &body));
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kInfo, 0, body, &frame));
  frames.push_back(frame);

  SketchInfo info;
  info.algorithm = "SUBSAMPLE";
  info.k = 3;
  info.eps = 0.1;
  info.delta = 0.1;
  info.scope = 0;
  info.answer = 1;
  info.n = 500;
  info.d = 16;
  info.summary_bits = 640;
  body.clear();
  EncodeInfoReply(info, &body);
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kInfoReply, 0, body, &frame));
  frames.push_back(frame);

  body.clear();
  EncodeRefreshRequest("stream", &body);
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kRefresh, 0, body, &frame));
  frames.push_back(frame);

  SubscribeRequest subscribe;
  subscribe.sketch = "stream";
  subscribe.min_epoch = 3;
  subscribe.timeout_ms = 2500;
  body.clear();
  EXPECT_TRUE(EncodeSubscribeRequest(subscribe, &body));
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kSubscribe, 0, body, &frame));
  frames.push_back(frame);

  SnapshotInfo snapshot;
  snapshot.epoch = 4;
  snapshot.rows_seen = 40000;
  body.clear();
  EncodeSnapshotReply(snapshot, &body);
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kSubscribeReply, 0, body, &frame));
  frames.push_back(frame);

  body.clear();
  EXPECT_TRUE(EncodeHealthReply(
      {PodHealthInfo{0, 0, 2, 4096}, PodHealthInfo{2, 5, 0, 0}}, &body));
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kHealthReply, 0, body, &frame));
  frames.push_back(frame);

  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kHealth, 0, "", &frame));
  frames.push_back(frame);

  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kStats, 0, "", &frame));
  frames.push_back(frame);

  StatsReply stats;
  stats.counters.push_back({"serve_requests_total{op=\"estimate\"}", 7});
  stats.gauges.push_back({"serve_pod_inflight{pod=\"0\"}", 1});
  StatsHistogram stats_hist;
  stats_hist.name = "serve_request_ns{op=\"estimate\"}";
  stats_hist.count = 3;
  stats_hist.sum = 3000;
  stats_hist.max = 1500;
  stats_hist.buckets = {0, 1, 2};
  stats.histograms.push_back(std::move(stats_hist));
  body.clear();
  EXPECT_TRUE(EncodeStatsReply(stats, &body));
  frame.clear();
  EXPECT_TRUE(EncodeFrame(Opcode::kStatsReply, 0, body, &frame));
  frames.push_back(frame);

  frame.clear();
  EncodeError(Status::kUnknownSketch, "no such sketch", &frame);
  frames.push_back(frame);
  return frames;
}

// Decodes a mutated frame buffer the way ServeConnection would: header
// first, then -- only if the header validates and the declared body is
// fully present -- the opcode's body decoder on exactly that many bytes.
void DecodeLikeServer(const std::string& bytes) {
  using namespace serve;
  const auto header = DecodeFrameHeader(
      bytes.data(), std::min(bytes.size(), kFrameHeaderBytes));
  if (!header.has_value()) return;
  if (bytes.size() < kFrameHeaderBytes + header->body_length) return;
  const std::string_view body(bytes.data() + kFrameHeaderBytes,
                              header->body_length);
  switch (header->opcode) {
    case Opcode::kEstimate:
    case Opcode::kAreFrequent: {
      const auto request = DecodeQueryRequest(body);
      if (request.has_value()) {
        // Round trip: a request the decoder accepts must re-encode and
        // re-decode to the same queries.
        std::string re_body;
        ASSERT_TRUE(EncodeQueryRequest(*request, &re_body));
        const auto again = DecodeQueryRequest(re_body);
        ASSERT_TRUE(again.has_value());
        ASSERT_EQ(again->sketch, request->sketch);
        ASSERT_EQ(again->queries, request->queries);
      }
      break;
    }
    case Opcode::kEstimateReply:
      DecodeEstimateReply(body);
      break;
    case Opcode::kAreFrequentReply:
      DecodeAreFrequentReply(body);
      break;
    case Opcode::kInfo:
      DecodeInfoRequest(body);
      break;
    case Opcode::kInfoReply:
      DecodeInfoReply(body);
      break;
    case Opcode::kRefresh:
      DecodeRefreshRequest(body);
      break;
    case Opcode::kSubscribe: {
      const auto request = DecodeSubscribeRequest(body);
      if (request.has_value()) {
        std::string re_body;
        ASSERT_TRUE(EncodeSubscribeRequest(*request, &re_body));
        const auto again = DecodeSubscribeRequest(re_body);
        ASSERT_TRUE(again.has_value());
        ASSERT_EQ(again->sketch, request->sketch);
        ASSERT_EQ(again->min_epoch, request->min_epoch);
        ASSERT_EQ(again->timeout_ms, request->timeout_ms);
      }
      break;
    }
    case Opcode::kRefreshReply:
    case Opcode::kSubscribeReply:
      DecodeSnapshotReply(body);
      break;
    case Opcode::kHealth:
      // A health request carries no body; nothing to decode.
      break;
    case Opcode::kHealthReply: {
      const auto pods = DecodeHealthReply(body);
      if (pods.has_value()) {
        std::string re_body;
        ASSERT_TRUE(EncodeHealthReply(*pods, &re_body));
        ASSERT_EQ(re_body, std::string(body));
      }
      break;
    }
    case Opcode::kStats:
      // A stats request carries no body; nothing to decode.
      break;
    case Opcode::kStatsReply: {
      const auto stats = DecodeStatsReply(body);
      if (stats.has_value()) {
        // Round trip: an accepted reply must re-encode byte-identically.
        std::string re_body;
        ASSERT_TRUE(EncodeStatsReply(*stats, &re_body));
        ASSERT_EQ(re_body, std::string(body));
      }
      break;
    }
    case Opcode::kError:
      DecodeErrorMessage(body);
      break;
  }
}

TEST(ProtocolFuzzTest, MutantFramesNeverCrashDecode) {
  const auto frames = ValidFrames();
  util::Rng rng(20260732);
  constexpr std::size_t kMutantsPerFrame = 1500;  // x10 frames ~ 15k total
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (std::size_t t = 0; t < kMutantsPerFrame; ++t) {
      DecodeLikeServer(Mutate(frames[f], rng));
    }
  }
  // Plus pure noise buffers that never were a frame.
  for (std::size_t t = 0; t < 500; ++t) {
    std::string noise(rng.UniformInt(64), '\0');
    for (auto& c : noise) c = static_cast<char>(rng.UniformInt(256));
    DecodeLikeServer(noise);
  }
}

// ------------------------------ query-request validator (ViewQueryRequest)

/// The query-request acceptance rule, spelled out field by field as an
/// independent reference: u16-prefixed name, u32 count (capped, and at
/// most one query per two remaining bytes), then each query's u16
/// attribute count and u32 attributes, with no trailing bytes.
std::optional<serve::QueryRequest> ReferenceDecodeQueryRequest(
    std::string_view body) {
  std::size_t pos = 0;
  const auto get = [&](auto& value) {
    if (body.size() - pos < sizeof(value)) return false;
    std::memcpy(&value, body.data() + pos, sizeof(value));
    pos += sizeof(value);
    return true;
  };
  serve::QueryRequest request;
  std::uint16_t name_len = 0;
  if (!get(name_len) || body.size() - pos < name_len) return std::nullopt;
  request.sketch.assign(body.data() + pos, name_len);
  pos += name_len;
  std::uint32_t count = 0;
  if (!get(count) || count > serve::kMaxQueriesPerRequest ||
      count > (body.size() - pos) / 2) {
    return std::nullopt;
  }
  for (std::uint32_t q = 0; q < count; ++q) {
    std::uint16_t attrs = 0;
    if (!get(attrs)) return std::nullopt;
    std::vector<std::uint32_t> query(attrs);
    for (std::uint32_t& attr : query) {
      if (!get(attr)) return std::nullopt;
    }
    request.queries.push_back(std::move(query));
  }
  if (pos != body.size()) return std::nullopt;
  return request;
}

// The zero-copy validator the server runs, DecodeQueryRequest and the
// reference rule see the same mutant bodies: all three must accept
// exactly the same ones and read the same queries out of them.
TEST(ProtocolFuzzTest, QueryRequestValidatorMatchesDecoderOnMutants) {
  using namespace serve;
  std::vector<std::string> bodies;
  for (const QueryRequest& request :
       {QueryRequest{"golden", {{0, 3, 7}, {1}, {}, {2, 5, 9, 11}}},
        QueryRequest{"", {}}, QueryRequest{"s", {{}, {}, {}}},
        QueryRequest{"a-longer-sketch-name", {{4294967295u}, {0, 1}}}}) {
    std::string body;
    ASSERT_TRUE(EncodeQueryRequest(request, &body));
    bodies.push_back(body);
  }
  util::Rng rng(20261017);
  std::size_t accepted = 0;
  std::size_t total = 0;
  for (const std::string& valid : bodies) {
    for (std::size_t t = 0; t < 2500; ++t, ++total) {
      const std::string mutant = t == 0 ? valid : Mutate(valid, rng);
      const auto want = ReferenceDecodeQueryRequest(mutant);
      const auto view = ViewQueryRequest(mutant);
      const auto decoded = DecodeQueryRequest(mutant);
      ASSERT_EQ(view.has_value(), want.has_value()) << "mutant " << t;
      ASSERT_EQ(decoded.has_value(), want.has_value()) << "mutant " << t;
      if (!want.has_value()) continue;
      ++accepted;
      ASSERT_EQ(decoded->sketch, want->sketch);
      ASSERT_EQ(decoded->queries, want->queries);
      ASSERT_EQ(view->sketch, want->sketch);
      ASSERT_EQ(view->count, want->queries.size());
      std::vector<std::vector<std::uint32_t>> walked;
      ForEachQuery(*view, [&walked](const QueryRecord& record) {
        auto& query = walked.emplace_back();
        for (std::size_t i = 0; i < record.size; ++i) {
          query.push_back(record.attr(i));
        }
        return true;
      });
      ASSERT_EQ(walked, want->queries);
    }
  }
  EXPECT_GT(accepted, bodies.size());
  EXPECT_LT(accepted, total);
}

// ----------------------------------- incremental decoder (FrameDecoder)

/// The one-shot reference for a whole byte stream: what the blocking
/// ReadFrame loop would produce reading it to EOF -- the frames in
/// order, then how the stream ends (clean boundary, invalid header, or
/// EOF inside a frame, which ReadFrame reports as a malformed hangup).
struct StreamVerdict {
  enum class End { kClean, kMalformed, kMidFrame };
  std::vector<serve::Frame> frames;
  End end = End::kClean;
};

StreamVerdict ReferenceParse(const std::string& bytes) {
  using namespace serve;
  StreamVerdict verdict;
  std::size_t pos = 0;
  for (;;) {
    if (bytes.size() - pos == 0) break;  // clean end at a frame boundary
    if (bytes.size() - pos < kFrameHeaderBytes) {
      verdict.end = StreamVerdict::End::kMidFrame;
      break;
    }
    const auto header =
        DecodeFrameHeader(bytes.data() + pos, kFrameHeaderBytes);
    if (!header.has_value()) {
      verdict.end = StreamVerdict::End::kMalformed;
      break;
    }
    if (bytes.size() - pos - kFrameHeaderBytes < header->body_length) {
      verdict.end = StreamVerdict::End::kMidFrame;
      break;
    }
    Frame frame;
    frame.header = *header;
    frame.body = bytes.substr(pos + kFrameHeaderBytes, header->body_length);
    verdict.frames.push_back(std::move(frame));
    pos += kFrameHeaderBytes + header->body_length;
  }
  return verdict;
}

/// Feeds `bytes` to a fresh FrameDecoder in chunks cut at `boundaries`
/// (sorted offsets; implicit final boundary at the end) and checks the
/// result against the one-shot reference: same frames, same terminal
/// verdict, no matter where the stream was split.
void DriveAndCompare(const std::string& bytes,
                     const std::vector<std::size_t>& boundaries,
                     const StreamVerdict& want) {
  using namespace serve;
  FrameDecoder decoder;
  std::vector<Frame> frames;
  bool malformed = false;
  std::size_t pos = 0;
  for (std::size_t b = 0; b <= boundaries.size() && !malformed; ++b) {
    const std::size_t end =
        b < boundaries.size() ? boundaries[b] : bytes.size();
    while (pos < end) {
      std::size_t consumed = 0;
      const FrameDecoder::Step step =
          decoder.Consume(bytes.data() + pos, end - pos, &consumed);
      pos += consumed;
      if (step == FrameDecoder::Step::kFrame) {
        frames.push_back(decoder.take());
      } else if (step == FrameDecoder::Step::kMalformed) {
        malformed = true;
        break;
      } else {
        break;  // kNeedMore always consumes the whole chunk
      }
    }
    pos = std::max(pos, std::min(end, bytes.size()));
  }

  // Exactly the frames the one-shot parse accepts, in order...
  ASSERT_EQ(frames.size(), want.frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].header.opcode, want.frames[i].header.opcode);
    ASSERT_EQ(frames[i].header.status, want.frames[i].header.status);
    ASSERT_EQ(frames[i].body, want.frames[i].body);
  }
  // ...and exactly the same terminal verdict.
  switch (want.end) {
    case StreamVerdict::End::kClean:
      ASSERT_FALSE(malformed);
      ASSERT_FALSE(decoder.mid_frame());
      break;
    case StreamVerdict::End::kMalformed:
      ASSERT_TRUE(malformed);
      break;
    case StreamVerdict::End::kMidFrame:
      ASSERT_FALSE(malformed);
      ASSERT_TRUE(decoder.mid_frame());
      break;
  }
}

TEST(ProtocolFuzzTest, IncrementalDecoderMatchesOneShotAtEverySplitPoint) {
  const auto valid = ValidFrames();
  std::string stream;
  for (const auto& frame : valid) stream += frame;
  const StreamVerdict want = ReferenceParse(stream);
  ASSERT_EQ(want.frames.size(), valid.size());
  ASSERT_EQ(want.end, StreamVerdict::End::kClean);

  // Every two-chunk split of the full valid stream: in particular every
  // header-boundary, intra-header, and intra-body cut.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    DriveAndCompare(stream, {split}, want);
  }
}

TEST(ProtocolFuzzTest, IncrementalDecoderMatchesOneShotOnMutantStreams) {
  const auto valid = ValidFrames();
  util::Rng rng(20260808);
  constexpr std::size_t kStreams = 2000;
  std::size_t malformed_streams = 0;
  std::size_t midframe_streams = 0;
  for (std::size_t t = 0; t < kStreams; ++t) {
    // 1..6 frames, each mutated with probability ~1/3, concatenated;
    // sometimes truncated or with trailing noise -- valid prefixes with
    // a hostile tail are exactly what a reactor connection sees.
    std::string stream;
    const std::size_t count = 1 + rng.UniformInt(6);
    for (std::size_t f = 0; f < count; ++f) {
      const std::string& frame = valid[rng.UniformInt(valid.size())];
      stream += rng.UniformInt(3) == 0 ? Mutate(frame, rng) : frame;
    }
    if (rng.UniformInt(4) == 0 && !stream.empty()) {
      stream.resize(rng.UniformInt(stream.size()));
    }
    if (rng.UniformInt(4) == 0) {
      for (std::size_t i = 0, n = rng.UniformInt(20); i < n; ++i) {
        stream.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    }
    const StreamVerdict want = ReferenceParse(stream);
    if (want.end == StreamVerdict::End::kMalformed) ++malformed_streams;
    if (want.end == StreamVerdict::End::kMidFrame) ++midframe_streams;

    // Whole-buffer, byte-at-a-time, and random chunking must all agree
    // with the one-shot parse.
    DriveAndCompare(stream, {}, want);
    std::vector<std::size_t> every_byte;
    for (std::size_t i = 1; i < stream.size(); ++i) every_byte.push_back(i);
    DriveAndCompare(stream, every_byte, want);
    std::vector<std::size_t> random_cuts;
    for (std::size_t i = 0; i < stream.size();) {
      i += 1 + rng.UniformInt(17);
      if (i < stream.size()) random_cuts.push_back(i);
    }
    DriveAndCompare(stream, random_cuts, want);
  }
  // The corpus must actually cover all three terminal verdicts.
  EXPECT_GT(malformed_streams, 0u);
  EXPECT_GT(midframe_streams, 0u);
  EXPECT_LT(malformed_streams + midframe_streams, kStreams);
}

}  // namespace
}  // namespace ifsketch
