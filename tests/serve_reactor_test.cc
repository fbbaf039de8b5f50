// The epoll reactor (serve/reactor.h) against the pipelining contract
// in serve/protocol.h:
//
//   - K request frames written back-to-back before any reply is read
//     come back as exactly K replies, in request order, bit-identical
//     (for deterministic opcodes) to the same frames served one at a
//     time by the blocking ServeConnection loop -- every opcode
//     including STATS, and mixed-opcode interleavings with a
//     refused (unknown-sketch) request in the middle.
//   - A heavy first request never lets the cheap requests behind it
//     overtake: replies are strictly ordered even when execution is not.
//   - Every opcode but SUBSCRIBE runs to completion on the loop thread
//     that decoded it; SUBSCRIBE long-polls park on the dispatch pool.
//     With one loop thread, a parked SUBSCRIBE delays no other
//     connection's queries, and on its own connection the queries
//     pipelined behind it finish first yet reach the wire after it.
//   - A slow client delivering the same pipeline one byte per write
//     gets the same replies; a half-close (shutdown of the write side)
//     after the pipeline still yields every reply and then a clean EOF;
//     a mid-frame disconnect closes the connection without taking the
//     server down.
//   - The first malformed frame yields replies for the requests already
//     read, then exactly one kError frame, then EOF.
//   - A client that posts requests but never reads replies is hung up
//     once queued replies cross max_outbound_bytes
//     (serve_backpressure_hangups_total), the per-loop outbound gauge
//     drains back to zero, and the server keeps serving new
//     connections.
//   - max_connections rejects at accept (counted, connection slots
//     freed on close), instead of any exit-after-C behavior.
//   - Listen publishes the ifsketch_build_info gauge, naming the
//     active kernel tier, in the STATS reply.
//   - An idle-churn wave of ~1k concurrent connections (clamped to
//     RLIMIT_NOFILE) is accepted, served, and drained. The whole file
//     runs under the CI TSan job.

#include "serve/reactor.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/kernels.h"
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

/// Spins until `done` holds or ~5 s pass -- for the cross-thread edges
/// (connection teardown, gauge drain) the reactor completes
/// asynchronously.
bool PollUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A router over one pod with a PRIVATE metrics registry (counters start
/// at zero), serving a file-backed sketch "s" and a stream name "live"
/// with one published snapshot -- every request opcode has a target.
struct Rig {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<Router> router;
  std::shared_ptr<Engine> direct;
};

Rig MakeRig(const std::string& stem, std::uint64_t seed) {
  Rig rig;
  rig.registry = std::make_unique<obs::MetricsRegistry>();
  util::Rng rng(seed);
  const core::Database db =
      data::PowerLawBaskets(600, 12, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "SUBSAMPLE", EstimatorParams(), rng);
  EXPECT_TRUE(built.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(built->Save(path));
  RouterOptions options;
  options.registry = rig.registry.get();
  rig.router = std::make_shared<Router>(
      std::vector<std::shared_ptr<SketchPod>>{std::make_shared<SketchPod>()},
      options);
  EXPECT_TRUE(rig.router->AddSketch("s", path));
  EXPECT_TRUE(rig.router->AddStream("live"));
  rig.direct = std::make_shared<Engine>(*std::move(built));
  rig.router->Publish("live", rig.direct, 600);
  return rig;
}

std::vector<std::vector<std::uint32_t>> SomeQueries(const Engine& engine,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> queries;
  const std::size_t d = engine.d();
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(d);
    while (t.size() < 2) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    }
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    queries.push_back(std::move(attrs));
  }
  return queries;
}

/// One request frame plus how its reply is checked: STATS replies
/// carry racy live values (wall-clock histograms), so they compare
/// structurally; everything else must match
/// the serial reference byte for byte.
struct Step {
  std::string frame;        ///< complete encoded request frame
  Opcode reply = Opcode::kError;  ///< expected reply opcode
  bool byte_exact = true;
};

std::string FrameOf(Opcode opcode, const std::string& body) {
  std::string out;
  EXPECT_TRUE(EncodeFrame(opcode, 0, body, &out));
  return out;
}

Step EstimateStep(const std::string& sketch,
                  const std::vector<std::vector<std::uint32_t>>& queries,
                  Opcode reply = Opcode::kEstimateReply) {
  std::string body;
  EXPECT_TRUE(EncodeQueryRequest({sketch, queries}, &body));
  return Step{FrameOf(Opcode::kEstimate, body), reply};
}

/// Every-opcode pipeline: queries, info, stream refresh/subscribe,
/// stats, and a refused unknown-sketch request in the middle.
std::vector<Step> FullPipeline(const Engine& engine) {
  std::vector<Step> steps;
  const auto queries = SomeQueries(engine, 40, 77);
  steps.push_back(EstimateStep("s", queries));
  {
    std::string body;
    EXPECT_TRUE(EncodeQueryRequest({"s", queries}, &body));
    steps.push_back(
        Step{FrameOf(Opcode::kAreFrequent, body), Opcode::kAreFrequentReply});
  }
  {
    std::string body;
    EXPECT_TRUE(EncodeInfoRequest("s", &body));
    steps.push_back(Step{FrameOf(Opcode::kInfo, body), Opcode::kInfoReply});
  }
  // Refused mid-pipeline: well-framed but unknown sketch. The server
  // answers kError and keeps going -- a refusal is not a framing loss.
  steps.push_back(
      EstimateStep("no_such_sketch", queries, Opcode::kError));
  {
    std::string body;
    EXPECT_TRUE(EncodeRefreshRequest("live", &body));
    steps.push_back(
        Step{FrameOf(Opcode::kRefresh, body), Opcode::kRefreshReply});
  }
  {
    // Epoch 1 already published: min_epoch 0 is satisfied immediately.
    std::string body;
    EXPECT_TRUE(EncodeSubscribeRequest({"live", 0, 1000}, &body));
    steps.push_back(
        Step{FrameOf(Opcode::kSubscribe, body), Opcode::kSubscribeReply});
  }
  steps.push_back(
      Step{FrameOf(Opcode::kStats, ""), Opcode::kStatsReply, false});
  steps.push_back(EstimateStep("s", SomeQueries(engine, 7, 78)));
  return steps;
}

/// Serial reference: the same frames through the blocking
/// ServeConnection loop, one round trip at a time.
std::vector<Frame> SerialReplies(Router& router,
                                 const std::vector<Step>& steps) {
  auto [client_end, server_end] = LoopbackTransport::CreatePair();
  std::thread server([&router, t = std::move(server_end)]() mutable {
    ServeConnection(router, *t);
  });
  std::vector<Frame> replies;
  for (const Step& step : steps) {
    EXPECT_TRUE(client_end->WriteAll(step.frame.data(), step.frame.size()));
    Frame reply;
    EXPECT_EQ(ReadFrame(*client_end, &reply), ReadResult::kFrame);
    replies.push_back(std::move(reply));
  }
  client_end.reset();
  server.join();
  return replies;
}

/// Reads one reply per step off `transport` and checks each against the
/// serial reference.
void ExpectReplies(Transport& transport, const std::vector<Step>& steps,
                   const std::vector<Frame>& reference) {
  ASSERT_EQ(steps.size(), reference.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    Frame reply;
    ASSERT_EQ(ReadFrame(transport, &reply), ReadResult::kFrame)
        << "reply " << i;
    EXPECT_EQ(reply.header.opcode, steps[i].reply) << "reply " << i;
    EXPECT_EQ(reply.header.opcode, reference[i].header.opcode)
        << "reply " << i;
    EXPECT_EQ(reply.header.status, reference[i].header.status)
        << "reply " << i;
    if (steps[i].byte_exact) {
      EXPECT_EQ(reply.body, reference[i].body) << "reply " << i;
    } else if (steps[i].reply == Opcode::kStatsReply) {
      // Wall-clock histograms can never be byte-stable; the snapshot
      // must decode and carry the serving counters.
      const auto got = DecodeStatsReply(reply.body);
      ASSERT_TRUE(got.has_value());
      bool saw_requests = false;
      for (const StatsCounter& c : got->counters) {
        if (c.name.rfind("serve_requests_total", 0) == 0) {
          saw_requests = true;
        }
      }
      EXPECT_TRUE(saw_requests);
    }
  }
}

TEST(ServeReactorTest, PipelinedRepliesAreOrderedAndMatchSerialLoopback) {
  Rig rig = MakeRig("reactor_pipe", 11);
  const std::vector<Step> steps = FullPipeline(*rig.direct);
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorOptions options;
  options.loop_threads = 2;
  options.dispatch_threads = 4;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  // The whole pipeline in one write, before reading anything.
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));
  ExpectReplies(*transport, steps, reference);
}

TEST(ServeReactorTest, HeavyFirstRequestNeverReordersReplies) {
  Rig rig = MakeRig("reactor_heavy", 12);
  std::vector<Step> steps;
  // A 20k-query batch followed by 16 trivial info requests, all in one
  // write: the loop answers them in arrival order within one read pass,
  // and every reply must still leave in request order.
  steps.push_back(EstimateStep("s", SomeQueries(*rig.direct, 20000, 90)));
  std::string info_body;
  ASSERT_TRUE(EncodeInfoRequest("s", &info_body));
  for (int i = 0; i < 16; ++i) {
    steps.push_back(
        Step{FrameOf(Opcode::kInfo, info_body), Opcode::kInfoReply});
  }
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorOptions options;
  options.dispatch_threads = 4;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));
  ExpectReplies(*transport, steps, reference);
}

/// Direct Engine answers for `queries` -- what a served estimate must
/// match bit for bit.
std::vector<double> DirectAnswers(
    const Engine& engine,
    const std::vector<std::vector<std::uint32_t>>& queries) {
  std::vector<core::Itemset> ts;
  for (const auto& attrs : queries) {
    core::Itemset t(engine.d());
    for (std::uint32_t a : attrs) t.Add(a);
    ts.push_back(std::move(t));
  }
  std::vector<double> answers;
  engine.estimate_many(ts, &answers);
  return answers;
}

/// Dispatches of `op` that have finished (the request trace records its
/// total span as DispatchRequest returns).
std::uint64_t FinishedRequests(obs::MetricsRegistry& registry,
                               const char* op) {
  return registry
      .GetHistogram(obs::LabeledName("serve_request_ns", "op", op))
      ->Snapshot()
      .count;
}

TEST(ServeReactorTest, ParkedSubscribeDelaysNoOtherConnection) {
  Rig rig = MakeRig("reactor_parked", 22);
  ReactorOptions options;
  options.loop_threads = 1;  // both connections share the one loop
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  // Connection A long-polls for an epoch nobody has published yet.
  std::atomic<bool> subscribed{false};
  std::optional<SnapshotInfo> woke;
  std::thread waiter([&] {
    SketchClient a(TcpConnect(reactor.port()));
    woke = a.Subscribe("live", 1, 60000);
    subscribed.store(true);
  });
  EXPECT_TRUE(PollUntil([&] {
    return rig.registry
               ->GetCounter(obs::LabeledName("serve_requests_total", "op",
                                             "subscribe"))
               ->Value() == 1;
  }));

  // Connection B on the same loop is answered while A stays parked, and
  // every answer is the direct Engine answer bit for bit. (A lambda, so
  // a failed ASSERT still reaches the publish that frees the waiter.)
  [&] {
    SketchClient b(TcpConnect(reactor.port()));
    for (std::uint64_t round = 0; round < 20; ++round) {
      const auto queries = SomeQueries(*rig.direct, 16, 100 + round);
      const auto served = b.EstimateMany("s", queries);
      ASSERT_TRUE(served.has_value()) << b.last_error();
      EXPECT_EQ(*served, DirectAnswers(*rig.direct, queries));
    }
    ASSERT_TRUE(b.Info("s").has_value()) << b.last_error();
  }();
  EXPECT_FALSE(subscribed.load());

  // Only a publish releases A.
  rig.router->Publish("live", rig.direct, 600);
  waiter.join();
  ASSERT_TRUE(woke.has_value());
  EXPECT_EQ(woke->epoch, 2u);
}

/// SUBSCRIBE then `estimates` ESTIMATE frames in one write on one
/// connection to a one-loop reactor. Returns the queries of each
/// ESTIMATE; the replies are left on `transport`.
std::vector<std::vector<std::vector<std::uint32_t>>> PipelineBehindSubscribe(
    const Rig& rig, Transport& transport, std::uint32_t timeout_ms,
    int estimates) {
  std::string wire;
  std::string body;
  EXPECT_TRUE(EncodeSubscribeRequest({"live", 1, timeout_ms}, &body));
  wire += FrameOf(Opcode::kSubscribe, body);
  std::vector<std::vector<std::vector<std::uint32_t>>> batches;
  for (int i = 0; i < estimates; ++i) {
    batches.push_back(SomeQueries(*rig.direct, 16, 200 + i));
    wire += EstimateStep("s", batches.back()).frame;
  }
  EXPECT_TRUE(transport.WriteAll(wire.data(), wire.size()));
  return batches;
}

/// Reads the SUBSCRIBE reply (expecting `epoch`), then one ESTIMATE
/// reply per batch, each equal to the direct Engine answers.
void ExpectSubscribeThenEstimates(
    const Rig& rig, Transport& transport, std::uint64_t epoch,
    const std::vector<std::vector<std::vector<std::uint32_t>>>& batches) {
  Frame reply;
  ASSERT_EQ(ReadFrame(transport, &reply), ReadResult::kFrame);
  ASSERT_EQ(reply.header.opcode, Opcode::kSubscribeReply);
  const auto snapshot = DecodeSnapshotReply(reply.body);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->epoch, epoch);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    ASSERT_EQ(ReadFrame(transport, &reply), ReadResult::kFrame)
        << "estimate " << i;
    ASSERT_EQ(reply.header.opcode, Opcode::kEstimateReply) << "estimate " << i;
    const auto answers = DecodeEstimateReply(reply.body);
    ASSERT_TRUE(answers.has_value());
    EXPECT_EQ(*answers, DirectAnswers(*rig.direct, batches[i]))
        << "estimate " << i;
  }
}

TEST(ServeReactorTest, EstimatesBehindATimedOutSubscribeKeepRequestOrder) {
  Rig rig = MakeRig("reactor_sub_timeout", 23);
  ReactorOptions options;
  options.loop_threads = 1;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);

  const auto batches = PipelineBehindSubscribe(rig, *transport, 300, 4);
  // Nothing is published: the long-poll times out at epoch 1, and only
  // then may the already-computed estimates follow it onto the wire.
  ExpectSubscribeThenEstimates(rig, *transport, 1, batches);
}

TEST(ServeReactorTest, EstimatesBehindAPublishedSubscribeKeepRequestOrder) {
  Rig rig = MakeRig("reactor_sub_publish", 24);
  ReactorOptions options;
  options.loop_threads = 1;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);

  const auto batches = PipelineBehindSubscribe(rig, *transport, 60000, 4);
  // The estimates run inline and finish while the SUBSCRIBE is parked...
  ASSERT_TRUE(PollUntil(
      [&] { return FinishedRequests(*rig.registry, "estimate") == 4; }));
  EXPECT_EQ(FinishedRequests(*rig.registry, "subscribe"), 0u);
  // ...and their replies wait for it: the publish releases the
  // SUBSCRIBE reply first, then the four estimates in request order.
  rig.router->Publish("live", rig.direct, 600);
  ExpectSubscribeThenEstimates(rig, *transport, 2, batches);
}

TEST(ServeReactorTest, ByteAtATimeClientGetsIdenticalReplies) {
  Rig rig = MakeRig("reactor_slow", 13);
  std::vector<Step> steps;
  steps.push_back(EstimateStep("s", SomeQueries(*rig.direct, 5, 91)));
  std::string info_body;
  ASSERT_TRUE(EncodeInfoRequest("s", &info_body));
  steps.push_back(
      Step{FrameOf(Opcode::kInfo, info_body), Opcode::kInfoReply});
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  // One byte per write: the incremental decoder sees every possible
  // partial-header and partial-body state.
  for (char byte : wire) {
    ASSERT_TRUE(transport->WriteAll(&byte, 1));
  }
  ExpectReplies(*transport, steps, reference);
}

TEST(ServeReactorTest, HalfCloseStillDeliversEveryReplyThenEof) {
  Rig rig = MakeRig("reactor_halfclose", 14);
  const std::vector<Step> steps = FullPipeline(*rig.direct);
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));
  // Half-close before reading anything: the server must answer every
  // request already on the wire, then close its side.
  transport->CloseWrite();
  ExpectReplies(*transport, steps, reference);
  Frame extra;
  EXPECT_EQ(ReadFrame(*transport, &extra), ReadResult::kEof);
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));
}

TEST(ServeReactorTest, MidFrameDisconnectLeavesServerServing) {
  Rig rig = MakeRig("reactor_midframe", 15);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));

  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    // A valid header promising 100 body bytes, then only 10, then a
    // hard disconnect.
    char header[kFrameHeaderBytes];
    ASSERT_TRUE(EncodeFrameHeader(Opcode::kInfo, 0, 100, header));
    ASSERT_TRUE(transport->WriteAll(header, sizeof(header)));
    ASSERT_TRUE(transport->WriteAll("0123456789", 10));
  }  // transport destructor closes the socket mid-frame
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // And a partial HEADER disconnect for the other decoder state.
  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    ASSERT_TRUE(transport->WriteAll("IFSP", 4));
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // The server is still fully serviceable.
  SketchClient client(TcpConnect(reactor.port()));
  const auto info = client.Info("s");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->d, rig.direct->d());
}

TEST(ServeReactorTest, MalformedMidPipelineAnswersPrefixThenOneError) {
  Rig rig = MakeRig("reactor_malformed", 16);
  std::vector<Step> steps;
  steps.push_back(EstimateStep("s", SomeQueries(*rig.direct, 5, 92)));
  std::string info_body;
  ASSERT_TRUE(EncodeInfoRequest("s", &info_body));
  steps.push_back(
      Step{FrameOf(Opcode::kInfo, info_body), Opcode::kInfoReply});
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  wire += "GARBAGE-NOT-A-FRAME";  // framing lost from here on
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));

  // The two valid requests are answered normally...
  ExpectReplies(*transport, steps, reference);
  // ...then exactly one kError frame, then EOF.
  Frame error;
  ASSERT_EQ(ReadFrame(*transport, &error), ReadResult::kFrame);
  EXPECT_EQ(error.header.opcode, Opcode::kError);
  EXPECT_EQ(error.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  Frame extra;
  EXPECT_EQ(ReadFrame(*transport, &extra), ReadResult::kEof);
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));
}

TEST(ServeReactorTest, NonReadingClientIsHungUpAtTheOutboundCap) {
  Rig rig = MakeRig("reactor_backpressure", 17);
  ReactorOptions options;
  options.loop_threads = 1;
  options.pause_outbound_bytes = 64u << 10;
  options.max_outbound_bytes = 256u << 10;  // the bound under test
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  obs::Counter* hangups =
      rig.registry->GetCounter("serve_backpressure_hangups_total");
  obs::Gauge* outbound = rig.registry->GetGauge(
      obs::LabeledName("serve_loop_outbound_bytes", "loop", "0"));

  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    // One request whose reply (240k answers x 8 bytes ~ 1.9 MB) blows
    // straight past max_outbound_bytes while the client reads nothing.
    std::vector<std::vector<std::uint32_t>> queries(
        240000, std::vector<std::uint32_t>{0, 1});
    std::string body;
    ASSERT_TRUE(EncodeQueryRequest({"s", queries}, &body));
    std::string frame;
    ASSERT_TRUE(EncodeFrame(Opcode::kEstimate, 0, body, &frame));
    ASSERT_TRUE(transport->WriteAll(frame.data(), frame.size()));
    // Never read: the server must hang up on its own.
    EXPECT_TRUE(PollUntil([&] { return hangups->Value() >= 1; }));
  }
  // Queued-reply accounting drains with the connection: bounded server
  // memory, not a leaked balance.
  EXPECT_TRUE(PollUntil([&] { return outbound->Value() == 0; }));
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // The loop thread survived; a well-behaved client is unaffected.
  SketchClient client(TcpConnect(reactor.port()));
  const auto queries = SomeQueries(*rig.direct, 3, 93);
  const auto answers = client.EstimateMany("s", queries);
  ASSERT_TRUE(answers.has_value()) << client.last_error();
}

TEST(ServeReactorTest, MaxConnectionsRejectsAtAcceptAndFreesOnClose) {
  Rig rig = MakeRig("reactor_maxconns", 18);
  ReactorOptions options;
  options.loop_threads = 1;
  options.max_connections = 2;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  // Two connections fill the cap; prove both are live with a round trip.
  auto first = std::make_unique<SketchClient>(TcpConnect(reactor.port()));
  auto second = std::make_unique<SketchClient>(TcpConnect(reactor.port()));
  ASSERT_TRUE(first->Info("s").has_value());
  ASSERT_TRUE(second->Info("s").has_value());

  // The third is accepted and immediately closed: its request is never
  // answered, and the rejection is counted.
  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    std::string body;
    ASSERT_TRUE(EncodeInfoRequest("s", &body));
    WriteFrame(*transport, Opcode::kInfo, 0, body);  // may race the close
    Frame reply;
    EXPECT_NE(ReadFrame(*transport, &reply), ReadResult::kFrame);
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.rejected_total() >= 1; }));
  EXPECT_GE(
      rig.registry->GetCounter("serve_conns_rejected_total")->Value(), 1u);
  // Rejection never exits the server or disturbs standing connections.
  ASSERT_TRUE(first->Info("s").has_value());

  // Closing one connection frees its slot for a new client.
  first.reset();
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 1; }));
  SketchClient third(TcpConnect(reactor.port()));
  ASSERT_TRUE(third.Info("s").has_value()) << third.last_error();
}

TEST(ServeReactorTest, ListenPublishesBuildInfoInStats) {
  Rig rig = MakeRig("reactor_build_info", 41);
  ReactorOptions options;
  options.loop_threads = 1;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));
  SketchClient client(TcpConnect(reactor.port()));
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value()) << client.last_error();
  const std::string name = BuildInfoMetricName();
  EXPECT_EQ(name.rfind("ifsketch_build_info{build_type=\"", 0), 0u) << name;
  const std::string tier = std::string("kernel_tier=\"") +
                           util::KernelTierName(util::ActiveKernelTier()) +
                           "\"}";
  EXPECT_NE(name.find(tier), std::string::npos) << name;
  bool found = false;
  for (const StatsGauge& g : stats->gauges) {
    if (g.name == name) {
      found = true;
      EXPECT_EQ(g.value, 1);
    }
  }
  EXPECT_TRUE(found) << name;
}

TEST(ServeReactorTest, PipelinedClientMatchesSingleFrameBatch) {
  Rig rig = MakeRig("reactor_client_pipe", 19);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));

  const auto queries = SomeQueries(*rig.direct, 257, 94);
  SketchClient single(TcpConnect(reactor.port()));
  const auto one_frame = single.EstimateMany("s", queries);
  ASSERT_TRUE(one_frame.has_value()) << single.last_error();

  SketchClient piped(TcpConnect(reactor.port()));
  const auto many_frames = piped.EstimateManyPipelined("s", queries, 8);
  ASSERT_TRUE(many_frames.has_value()) << piped.last_error();
  EXPECT_EQ(*many_frames, *one_frame);

  // A refused chunk fails the call but leaves the connection usable.
  const auto refused =
      piped.EstimateManyPipelined("no_such_sketch", queries, 4);
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(piped.last_failure(), FailureKind::kRequest);
  const auto after = piped.EstimateManyPipelined("s", queries, 8);
  ASSERT_TRUE(after.has_value()) << piped.last_error();
  EXPECT_EQ(*after, *one_frame);
}

TEST(ServeReactorTest, IdleChurnAcceptsAndDrainsAThousandConnections) {
  // Each loopback connection costs two fds in this process; clamp the
  // wave to what RLIMIT_NOFILE leaves room for.
  std::size_t target = 1000;
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
    const std::size_t budget =
        rl.rlim_cur > 128 ? (static_cast<std::size_t>(rl.rlim_cur) - 128) / 2
                          : 8;
    target = std::min(target, budget);
  }
  ASSERT_GE(target, 64u) << "fd limit too low to exercise connection scale";

  Rig rig = MakeRig("reactor_churn", 20);
  ReactorOptions options;
  options.loop_threads = 2;  // exercise round-robin assignment
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  std::vector<std::unique_ptr<SketchClient>> wave;
  wave.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr) << "connection " << i;
    wave.push_back(std::make_unique<SketchClient>(std::move(transport)));
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == target; }));
  EXPECT_EQ(reactor.accepted_total(), target);

  // A sample of the held connections proves they are all being served,
  // not just counted.
  for (std::size_t i = 0; i < target; i += 97) {
    ASSERT_TRUE(wave[i]->Info("s").has_value()) << "connection " << i;
  }
  ASSERT_TRUE(wave.back()->Info("s").has_value());

  wave.clear();  // the whole wave hangs up at once
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // Both loops carried connections (round-robin, two loops, >= 64
  // connections).
  const std::uint64_t wakeups0 =
      rig.registry
          ->GetCounter(
              obs::LabeledName("serve_loop_wakeups_total", "loop", "0"))
          ->Value();
  const std::uint64_t wakeups1 =
      rig.registry
          ->GetCounter(
              obs::LabeledName("serve_loop_wakeups_total", "loop", "1"))
          ->Value();
  EXPECT_GT(wakeups0, 0u);
  EXPECT_GT(wakeups1, 0u);
}

TEST(ServeReactorTest, StopAcceptingDrainsAndWaitDrainedReturns) {
  Rig rig = MakeRig("reactor_drain", 21);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));

  auto client =
      std::make_unique<SketchClient>(TcpConnect(reactor.port()));
  ASSERT_TRUE(client->Info("s").has_value());

  reactor.StopAccepting();
  // Standing connections keep working after the listener stops.
  ASSERT_TRUE(client->Info("s").has_value());

  std::thread closer([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client.reset();
  });
  reactor.WaitDrained();  // returns only once the connection is gone
  closer.join();
  EXPECT_EQ(reactor.open_connections(), 0u);
}

}  // namespace
}  // namespace ifsketch::serve
