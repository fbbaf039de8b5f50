// The full serving stack over the loopback transport: for EVERY
// registered algorithm, answers served through
// protocol -> ServeConnection -> Router -> SketchPod -> Engine are
// bit-identical to direct Engine queries on the same file; malformed
// frames (truncated header, oversized declared length, unknown opcode,
// version mismatch) are rejected without crashing the server and without
// reading past the declared frame length.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "serve/client.h"
#include "serve/reactor.h"
#include "util/random.h"

namespace ifsketch::serve {
namespace {

core::SketchParams EstimatorParams() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// Router serving one sketch name from one saved file, plus the direct
/// engine for reference answers.
struct Rig {
  std::shared_ptr<Router> router;
  Engine direct;
};

Rig MakeRig(const std::string& algorithm, const std::string& stem,
            std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::PowerLawBaskets(600, 12, 1.0, 0.5, 4, 3,
                                                  0.2, rng);
  auto built = Engine::Build(db, algorithm, EstimatorParams(), rng);
  EXPECT_TRUE(built.has_value()) << algorithm;
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(built->Save(path));
  auto router = std::make_shared<Router>(
      std::vector<std::shared_ptr<SketchPod>>{
          std::make_shared<SketchPod>()});
  EXPECT_TRUE(router->AddSketch("s", path));
  return Rig{std::move(router), *std::move(built)};
}

/// Runs ServeConnection on a loopback peer; joins on destruction.
class LoopbackServer {
 public:
  explicit LoopbackServer(std::shared_ptr<Router> router) {
    auto [client_end, server_end] = LoopbackTransport::CreatePair();
    client_end_ = std::move(client_end);
    thread_ = std::thread(
        [router = std::move(router), t = std::move(server_end)]() mutable {
          ServeConnection(*router, *t);
        });
  }
  ~LoopbackServer() {
    client_end_.reset();  // hang up so the server loop sees EOF
    thread_.join();
  }

  std::unique_ptr<Transport> TakeClientEnd() {
    return std::move(client_end_);
  }
  Transport& client_end() { return *client_end_; }

 private:
  std::unique_ptr<Transport> client_end_;
  std::thread thread_;
};

/// Queries of every size the sketch supports (RELEASE-ANSWERS answers
/// only |T| = k; sample-backed algorithms answer all sizes).
std::vector<std::vector<std::uint32_t>> SupportedQueries(
    const Engine& engine, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> queries;
  const std::size_t d = engine.d();
  for (std::size_t size = 1; size <= 4; ++size) {
    if (!engine.supports_query_size(size)) continue;
    for (int i = 0; i < 25; ++i) {
      core::Itemset t(d);
      while (t.size() < size) {
        t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
      }
      std::vector<std::uint32_t> attrs;
      for (std::size_t a : t.Attributes()) {
        attrs.push_back(static_cast<std::uint32_t>(a));
      }
      queries.push_back(std::move(attrs));
    }
  }
  return queries;
}

std::vector<core::Itemset> AsItemsets(
    const std::vector<std::vector<std::uint32_t>>& queries, std::size_t d) {
  std::vector<core::Itemset> ts;
  for (const auto& attrs : queries) {
    core::Itemset t(d);
    for (std::uint32_t a : attrs) t.Add(a);
    ts.push_back(std::move(t));
  }
  return ts;
}

// ---------------------------------------- registry-driven equivalence

class ServedEquivalenceTest : public testing::TestWithParam<std::string> {};

TEST_P(ServedEquivalenceTest, ServedAnswersAreBitIdenticalToDirect) {
  std::string stem = "srv_eq_" + GetParam();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  Rig rig = MakeRig(GetParam(), stem, 31);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());

  const auto queries = SupportedQueries(rig.direct, 32);
  ASSERT_FALSE(queries.empty());
  const auto ts = AsItemsets(queries, rig.direct.d());

  const auto info = client.Info("s");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->algorithm, rig.direct.algorithm());
  EXPECT_EQ(info->d, rig.direct.d());
  EXPECT_EQ(info->summary_bits, rig.direct.summary_bits());

  const auto served = client.EstimateMany("s", queries);
  ASSERT_TRUE(served.has_value()) << client.last_error();
  std::vector<double> direct;
  rig.direct.estimate_many(ts, &direct);
  // Bit-identical: doubles crossed the wire as raw 8-byte values and the
  // serving layer added no arithmetic.
  ASSERT_EQ(*served, direct) << GetParam();

  const auto served_bits = client.AreFrequent("s", queries);
  ASSERT_TRUE(served_bits.has_value()) << client.last_error();
  std::vector<bool> direct_bits;
  rig.direct.are_frequent(ts, &direct_bits);
  ASSERT_EQ(*served_bits, direct_bits) << GetParam();
}

/// Every registered name, with combinator listings ("MEDIAN-BOOST(...)")
/// instantiated over SUBSAMPLE -- new algorithms added to the registry
/// are picked up (and served) automatically.
std::vector<std::string> RegisteredAlgorithms() {
  std::vector<std::string> names;
  for (std::string name : Engine::KnownAlgorithms()) {
    const std::size_t paren = name.find("(...)");
    if (paren != std::string::npos) {
      name = name.substr(0, paren) + "(SUBSAMPLE)";
    }
    names.push_back(std::move(name));
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredAlgorithms, ServedEquivalenceTest,
                         testing::ValuesIn(RegisteredAlgorithms()),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

// ------------------------------------------------ protocol error paths

TEST(ServeServerTest, UnknownSketchGetsErrorNotCrash) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_unknown", 33);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  EXPECT_FALSE(client.Info("nope").has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_FALSE(client.EstimateMany("nope", {{0}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  // The connection survives request-level errors.
  EXPECT_TRUE(client.Info("s").has_value());
}

TEST(ServeServerTest, OutOfRangeAttributeGetsUnsupportedQuery) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_range", 34);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  EXPECT_FALSE(client.EstimateMany("s", {{0, 99}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_TRUE(client.Info("s").has_value());
}

TEST(ServeServerTest, UnsupportedQuerySizeGetsUnsupportedQuery) {
  // RELEASE-ANSWERS answers only |T| = k (= 3 here).
  Rig rig = MakeRig("RELEASE-ANSWERS", "srv_size", 35);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  EXPECT_FALSE(client.EstimateMany("s", {{0, 1}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_TRUE(client.EstimateMany("s", {{0, 1, 2}}).has_value())
      << client.last_error();
}

// One request holding both an unsupported query size and an
// out-of-range attribute: the first failing query decides the message.
TEST(ServeServerTest, FirstFailingQueryDecidesTheError) {
  Rig rig = MakeRig("RELEASE-ANSWERS", "srv_first_fail", 36);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  EXPECT_FALSE(client.EstimateMany("s", {{0, 1}, {0, 1, 99}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_EQ(client.last_error(), "query size unsupported by sketch \"s\"");
  EXPECT_FALSE(client.AreFrequent("s", {{0, 1, 99}, {0, 1}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_EQ(client.last_error(), "attribute out of range for sketch \"s\"");
  EXPECT_TRUE(client.EstimateMany("s", {{0, 1, 2}}).has_value())
      << client.last_error();
}

// ------------------------------------------------- malformed framing

/// Reads one reply frame directly off the transport (bypassing
/// SketchClient) so malformed-input tests can watch raw server behavior.
ReadResult ReadReply(Transport& transport, Frame* frame) {
  return ReadFrame(transport, frame);
}

TEST(ServeServerTest, TruncatedHeaderClosesConnectionCleanly) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_trunc", 36);
  LoopbackServer server(rig.router);
  Transport& wire = server.client_end();
  // 5 bytes of a 12-byte header, then hang up.
  ASSERT_TRUE(wire.WriteAll("IFSP\x01", 5));
  wire.CloseWrite();
  Frame reply;
  // The server saw EOF mid-header: it answers with a kError frame (best
  // effort) and closes -- it must NOT block waiting for the rest.
  const ReadResult result = ReadReply(wire, &reply);
  if (result == ReadResult::kFrame) {
    EXPECT_EQ(reply.header.opcode, Opcode::kError);
    EXPECT_EQ(reply.header.status,
              static_cast<std::uint8_t>(Status::kBadRequest));
    EXPECT_EQ(ReadReply(wire, &reply), ReadResult::kEof);
  } else {
    EXPECT_EQ(result, ReadResult::kEof);
  }
}

TEST(ServeServerTest, OversizedDeclaredLengthIsRejected) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_big", 37);
  LoopbackServer server(rig.router);
  Transport& wire = server.client_end();
  // Hand-build a header declaring a body over the cap. The server must
  // reject from the header alone -- were it to allocate/read the claimed
  // 16 MiB+ body of which nothing arrives, it would hang, not answer.
  std::string header;
  header.append(kFrameMagic, 4);
  const std::uint16_t version = kProtocolVersion;
  header.append(reinterpret_cast<const char*>(&version), 2);
  header.push_back(static_cast<char>(Opcode::kInfo));
  header.push_back('\0');
  const std::uint32_t huge = kMaxBodyBytes + 1;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  ASSERT_TRUE(wire.WriteAll(header.data(), header.size()));
  Frame reply;
  ASSERT_EQ(ReadReply(wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(reply.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_EQ(ReadReply(wire, &reply), ReadResult::kEof);  // hung up
}

TEST(ServeServerTest, UnknownOpcodeIsRejected) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_opcode", 38);
  LoopbackServer server(rig.router);
  Transport& wire = server.client_end();
  std::string header;
  header.append(kFrameMagic, 4);
  const std::uint16_t version = kProtocolVersion;
  header.append(reinterpret_cast<const char*>(&version), 2);
  header.push_back('\x42');  // not an opcode
  header.push_back('\0');
  const std::uint32_t zero = 0;
  header.append(reinterpret_cast<const char*>(&zero), 4);
  ASSERT_TRUE(wire.WriteAll(header.data(), header.size()));
  Frame reply;
  ASSERT_EQ(ReadReply(wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(ReadReply(wire, &reply), ReadResult::kEof);
}

TEST(ServeServerTest, VersionMismatchIsRejected) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_version", 39);
  LoopbackServer server(rig.router);
  Transport& wire = server.client_end();
  std::string body;
  ASSERT_TRUE(EncodeInfoRequest("s", &body));
  std::string frame;
  ASSERT_TRUE(EncodeFrame(Opcode::kInfo, 0, body, &frame));
  const std::uint16_t wrong = kProtocolVersion + 7;
  std::memcpy(frame.data() + 4, &wrong, sizeof(wrong));
  ASSERT_TRUE(wire.WriteAll(frame.data(), frame.size()));
  Frame reply;
  ASSERT_EQ(ReadReply(wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(reply.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_EQ(ReadReply(wire, &reply), ReadResult::kEof);
}

TEST(ServeServerTest, ServerNeverReadsPastDeclaredFrameLength) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_exact", 40);
  LoopbackServer server(rig.router);
  Transport& wire = server.client_end();
  // A valid info request followed IMMEDIATELY by a second valid request
  // in the same write: if the server over-read frame 1, frame 2's bytes
  // would be consumed and its reply never arrive.
  std::string body;
  ASSERT_TRUE(EncodeInfoRequest("s", &body));
  std::string two_frames;
  ASSERT_TRUE(EncodeFrame(Opcode::kInfo, 0, body, &two_frames));
  ASSERT_TRUE(EncodeFrame(Opcode::kInfo, 0, body, &two_frames));
  ASSERT_TRUE(wire.WriteAll(two_frames.data(), two_frames.size()));
  for (int i = 0; i < 2; ++i) {
    Frame reply;
    ASSERT_EQ(ReadReply(wire, &reply), ReadResult::kFrame) << i;
    EXPECT_EQ(reply.header.opcode, Opcode::kInfoReply) << i;
  }
}

TEST(ServeServerTest, UndecodableBodyKeepsConnectionAlive) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_body", 41);
  LoopbackServer server(rig.router);
  Transport& wire = server.client_end();
  // Well-formed frame, garbage body: frame sync is intact, so the server
  // answers kError and keeps serving.
  ASSERT_TRUE(WriteFrame(wire, Opcode::kEstimate, 0, "garbage"));
  Frame reply;
  ASSERT_EQ(ReadReply(wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(reply.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  std::string body;
  ASSERT_TRUE(EncodeInfoRequest("s", &body));
  ASSERT_TRUE(WriteFrame(wire, Opcode::kInfo, 0, body));
  ASSERT_EQ(ReadReply(wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kInfoReply);
}

// ------------------------------------------- refresh/subscribe opcodes

/// An in-memory snapshot to publish through the router.
std::shared_ptr<const Engine> MakeSnapshot(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(n, 12, 0.3, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", EstimatorParams(), rng);
  EXPECT_TRUE(engine.has_value());
  return std::make_shared<const Engine>(std::move(*engine));
}

TEST(ServeServerTest, RefreshReportsPublishedEpochs) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_refresh", 50);
  ASSERT_TRUE(rig.router->AddStream("live"));
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());

  // Registered, nothing published: epoch 0.
  auto info = client.Refresh("live");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_EQ(info->rows_seen, 0u);

  rig.router->Publish("live", MakeSnapshot(300, 51), 300);
  info = client.Refresh("live");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->rows_seen, 300u);

  // Unknown names error without killing the connection.
  EXPECT_FALSE(client.Refresh("nope").has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_TRUE(client.Refresh("live").has_value());
}

TEST(ServeServerTest, SubscribeReturnsImmediatelyWhenSatisfied) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_now", 52);
  rig.router->Publish("live", MakeSnapshot(200, 53), 200);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  // epoch 1 > min_epoch 0 already: no waiting, even with a long timeout.
  const auto info = client.Subscribe("live", 0, 60000);
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->rows_seen, 200u);
}

TEST(ServeServerTest, SubscribeTimesOutWithFinalState) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_to", 54);
  rig.router->Publish("live", MakeSnapshot(200, 55), 200);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  // Nothing will publish epoch 2: the reply still arrives, carrying the
  // unchanged state -- the client tells timeout from satisfied by
  // comparing epoch with min_epoch.
  const auto info = client.Subscribe("live", 1, 50);
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_LE(info->epoch, 1u);
}

TEST(ServeServerTest, SubscribeWakesOnPublishFromAnotherThread) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_wake", 56);
  ASSERT_TRUE(rig.router->AddStream("live"));
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());

  std::thread publisher([&rig] {
    // Give the subscribe a moment to park on the condition variable.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    rig.router->Publish("live", MakeSnapshot(400, 57), 400);
  });
  const auto info = client.Subscribe("live", 0, 60000);
  publisher.join();
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);  // woken, not timed out
  EXPECT_EQ(info->rows_seen, 400u);

  // And the published snapshot actually serves queries on this same
  // connection.
  const auto served = client.EstimateMany("live", {{1, 3}});
  ASSERT_TRUE(served.has_value()) << client.last_error();
  ASSERT_EQ(served->size(), 1u);
}

TEST(ServeServerTest, SubscribeUnknownNameGetsError) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_unknown", 58);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  EXPECT_FALSE(client.Subscribe("nope", 0, 100).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_TRUE(client.Info("s").has_value());  // connection survives
}

// --------------------------------------------------- TCP end to end

TEST(ServeServerTest, TcpRoundTripMatchesDirect) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_tcp", 42);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));  // ephemeral port
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  SketchClient client(std::move(transport));
  const auto queries = SupportedQueries(rig.direct, 43);
  const auto served = client.EstimateMany("s", queries);
  ASSERT_TRUE(served.has_value()) << client.last_error();
  std::vector<double> direct;
  rig.direct.estimate_many(AsItemsets(queries, rig.direct.d()), &direct);
  EXPECT_EQ(*served, direct);
}

}  // namespace
}  // namespace ifsketch::serve
