// Failover between servers, as the client sees it: fault-injected
// transports, client-side retry on a fresh connection (the path that
// carries a client from a dead server process to a live one), and
// error propagation for REFRESH/SUBSCRIBE on unknown names as the
// client observes it on the wire.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "serve/client.h"
#include "serve/pod.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/random.h"

namespace ifsketch::serve {
namespace {

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

std::string MakeSketchFile(const std::string& stem, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(400, 12, 0.4, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  EXPECT_TRUE(engine.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(engine->Save(path));
  return path;
}

std::vector<core::Itemset> RandomQueries(std::size_t count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Itemset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(12);
    const std::size_t size = 1 + rng.UniformInt(3);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(12)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

std::vector<std::vector<std::uint32_t>> AsWire(
    const std::vector<core::Itemset>& queries) {
  std::vector<std::vector<std::uint32_t>> wire;
  for (const core::Itemset& t : queries) {
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    wire.push_back(std::move(attrs));
  }
  return wire;
}

std::vector<std::shared_ptr<SketchPod>> MakePods(std::size_t count) {
  std::vector<std::shared_ptr<SketchPod>> pods;
  for (std::size_t i = 0; i < count; ++i) {
    pods.push_back(std::make_shared<SketchPod>());
  }
  return pods;
}

// ------------------------------------------------- fault injection

TEST(FaultyTransportTest, FailAfterBytesDeliversExactPrefixThenDies) {
  auto [a, b] = LoopbackTransport::CreatePair();
  FaultPlan plan;
  plan.fail_after_bytes = 5;
  FaultyTransport faulty(std::move(a), plan);
  const char payload[10] = "123456789";
  EXPECT_FALSE(faulty.WriteAll(payload, 10));
  EXPECT_TRUE(faulty.dead());
  char got[10] = {};
  // The peer receives exactly the 5-byte prefix, then EOF.
  EXPECT_TRUE(b->ReadAll(got, 5));
  EXPECT_EQ(std::string(got, 5), "12345");
  EXPECT_FALSE(b->ReadAll(got, 1));
  // Dead is latched: every later op fails without touching the wire.
  EXPECT_FALSE(faulty.WriteAll(payload, 1));
  EXPECT_FALSE(faulty.ReadAll(got, 1));
}

TEST(FaultyTransportTest, ScheduleIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    auto [a, b] = LoopbackTransport::CreatePair();
    FaultPlan plan;
    plan.seed = seed;
    plan.fail_write = 0.3;
    FaultyTransport faulty(std::move(a), plan);
    std::vector<bool> outcomes;
    const char byte = 'x';
    for (int i = 0; i < 64 && !faulty.dead(); ++i) {
      outcomes.push_back(faulty.WriteAll(&byte, 1));
    }
    return outcomes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and the seed actually matters
}

// --------------------------------------------------- client retry

/// Spins up ServeConnection threads on demand; each MakeTransport call
/// is one fresh "connection" to the shared router.
class LoopbackServer {
 public:
  explicit LoopbackServer(Router& router) : router_(router) {}

  ~LoopbackServer() {
    for (auto& t : threads_) t.join();
  }

  std::unique_ptr<Transport> MakeTransport() {
    auto [client_end, server_end] = LoopbackTransport::CreatePair();
    threads_.emplace_back([this, t = std::move(server_end)]() mutable {
      ServeConnection(router_, *t);
    });
    return std::move(client_end);
  }

 private:
  Router& router_;
  std::vector<std::thread> threads_;
};

TEST(ClientRetryTest, RetriesTransportFailureOnFreshConnection) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("retry_ok", 36);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(8, 11);
  auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);

  LoopbackServer server(router);
  // Connection 1 dies on its first read (reply never arrives);
  // connection 2 is clean. The call must succeed on attempt 2.
  std::atomic<int> connections{0};
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(1);
  {
    SketchClient client(
        [&]() -> std::unique_ptr<Transport> {
          auto inner = server.MakeTransport();
          if (connections++ == 0) {
            FaultPlan plan;
            plan.fail_read = 1.0;
            return std::make_unique<FaultyTransport>(std::move(inner),
                                                     plan);
          }
          return inner;
        },
        policy);
    const auto answers = client.EstimateMany("s", AsWire(queries));
    ASSERT_TRUE(answers.has_value()) << client.last_error();
    EXPECT_EQ(*answers, expected);  // bit-identical through the retry
    EXPECT_EQ(client.last_attempts(), 2);
    EXPECT_EQ(client.last_failure(), FailureKind::kNone);
    EXPECT_EQ(connections.load(), 2);
  }
}

TEST(ClientRetryTest, RequestRefusalsDoNotRetry) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("retry_refuse", 37);
  ASSERT_TRUE(router.AddSketch("s", path));
  LoopbackServer server(router);
  std::atomic<int> connections{0};
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = std::chrono::milliseconds(1);
  {
    SketchClient client(
        [&] {
          ++connections;
          return server.MakeTransport();
        },
        policy);
    // Unknown sketch: a server verdict, not a transport failure.
    const auto answers = client.EstimateMany("nope", {{1, 2}});
    EXPECT_FALSE(answers.has_value());
    EXPECT_EQ(client.last_failure(), FailureKind::kRequest);
    EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
    EXPECT_EQ(client.last_attempts(), 1);
    EXPECT_EQ(connections.load(), 1);
    // The connection survived the refusal: the next request reuses it.
    const auto info = client.Info("s");
    EXPECT_TRUE(info.has_value()) << client.last_error();
    EXPECT_EQ(connections.load(), 1);
  }
}

TEST(ClientRetryTest, AttemptDeadlineTurnsSilenceIntoRetryableFailure) {
  // No server behind any connection: every attempt times out rather
  // than blocking forever, then the attempt budget runs out.
  std::vector<std::unique_ptr<Transport>> parked;  // keep peers alive
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.attempt_timeout = std::chrono::milliseconds(40);
  policy.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(
      [&] {
        auto [client_end, server_end] = LoopbackTransport::CreatePair();
        parked.push_back(std::move(server_end));
        return std::move(client_end);
      },
      policy);
  const auto start = std::chrono::steady_clock::now();
  const auto answers = client.EstimateMany("s", {{1}});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(answers.has_value());
  EXPECT_EQ(client.last_failure(), FailureKind::kTransport);
  EXPECT_EQ(client.last_attempts(), 2);
  EXPECT_LT(elapsed, std::chrono::seconds(5));  // bounded, not hung
}

TEST(ClientRetryTest, OverallDeadlineCapsTheRetryLoop) {
  std::vector<std::unique_ptr<Transport>> parked;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.attempt_timeout = std::chrono::milliseconds(20);
  policy.deadline = std::chrono::milliseconds(80);
  policy.initial_backoff = std::chrono::milliseconds(5);
  SketchClient client(
      [&] {
        auto [client_end, server_end] = LoopbackTransport::CreatePair();
        parked.push_back(std::move(server_end));
        return std::move(client_end);
      },
      policy);
  const auto answers = client.EstimateMany("s", {{1}});
  EXPECT_FALSE(answers.has_value());
  EXPECT_EQ(client.last_failure(), FailureKind::kTransport);
  // Nowhere near the 100-attempt budget: the deadline cut it off.
  EXPECT_LT(client.last_attempts(), 20);
}

// ------------------------------------- wire-status error propagation

TEST(ClientWireStatusTest, RefreshAndSubscribeUnknownNames) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("wire_status", 38);
  ASSERT_TRUE(router.AddSketch("s", path));
  LoopbackServer server(router);
  SketchClient client(server.MakeTransport());

  const auto refreshed = client.Refresh("ghost");
  EXPECT_FALSE(refreshed.has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_EQ(client.last_failure(), FailureKind::kRequest);

  const auto subscribed = client.Subscribe("ghost", 0, 50);
  EXPECT_FALSE(subscribed.has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_EQ(client.last_failure(), FailureKind::kRequest);

  // Both refusals were request-level: the connection still serves.
  const auto state = client.Refresh("s");
  ASSERT_TRUE(state.has_value()) << client.last_error();
  EXPECT_EQ(state->epoch, 0u);  // file-backed: nothing ever published
}

}  // namespace
}  // namespace ifsketch::serve
