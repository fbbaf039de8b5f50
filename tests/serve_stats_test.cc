// The STATS opcode end to end over loopback: a known request load must
// show up in the served registry EXACTLY -- request counters match the
// issued counts, per-sketch query counters match the queries inside
// those requests, and the latency histograms carry one sample per
// request. Also covers the error paths (nonempty request body) and the
// client-side percentile reconstruction path (StatsReply buckets ->
// obs::HistogramSnapshot::Quantile).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
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

/// One-pod router over one saved sketch, metrics isolated in a
/// test-owned registry so every counter starts at zero.
struct StatsRig {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<Router> router;
};

StatsRig MakeStatsRig(const std::string& stem, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db =
      data::PowerLawBaskets(400, 10, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "SUBSAMPLE", EstimatorParams(), rng);
  EXPECT_TRUE(built.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(built->Save(path));

  StatsRig rig;
  rig.registry = std::make_unique<obs::MetricsRegistry>();
  RouterOptions options;
  options.registry = rig.registry.get();
  rig.router = std::make_shared<Router>(
      std::vector<std::shared_ptr<SketchPod>>{std::make_shared<SketchPod>(
          SketchPod::kUnlimited, rig.registry.get(), "0")},
      options);
  EXPECT_TRUE(rig.router->AddSketch("s", path));
  return rig;
}

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
    client_end_.reset();
    thread_.join();
  }

  std::unique_ptr<Transport> TakeClientEnd() { return std::move(client_end_); }

 private:
  std::unique_ptr<Transport> client_end_;
  std::thread thread_;
};

std::uint64_t CounterValue(const StatsReply& stats, const std::string& name) {
  for (const StatsCounter& c : stats.counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "counter not in STATS reply: " << name;
  return 0;
}

const StatsHistogram* FindHistogram(const StatsReply& stats,
                                    const std::string& name) {
  for (const StatsHistogram& h : stats.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(ServeStatsTest, CountersMatchIssuedRequestsExactly) {
  StatsRig rig = MakeStatsRig("stats_exact", 91);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());

  constexpr int kEstimateCalls = 7;
  constexpr int kAreFrequentCalls = 3;
  const std::vector<std::vector<std::uint32_t>> queries = {{0, 1}, {2}, {3}};
  for (int i = 0; i < kEstimateCalls; ++i) {
    ASSERT_TRUE(client.EstimateMany("s", queries).has_value()) << i;
  }
  for (int i = 0; i < kAreFrequentCalls; ++i) {
    ASSERT_TRUE(client.AreFrequent("s", queries).has_value()) << i;
  }
  ASSERT_TRUE(client.Info("s").has_value());

  const auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value()) << client.last_error();

  EXPECT_EQ(CounterValue(*stats, "serve_requests_total{op=\"estimate\"}"),
            kEstimateCalls);
  EXPECT_EQ(CounterValue(*stats, "serve_requests_total{op=\"are_frequent\"}"),
            kAreFrequentCalls);
  EXPECT_EQ(CounterValue(*stats, "serve_requests_total{op=\"info\"}"), 1u);
  // Every query request is one engine batch.
  EXPECT_EQ(CounterValue(*stats, "serve_coalesce_requests_total"),
            kEstimateCalls + kAreFrequentCalls);
  EXPECT_EQ(CounterValue(*stats, "serve_coalesce_batches_total"),
            kEstimateCalls + kAreFrequentCalls);
  // Per-sketch point queries: each batch carries queries.size() of them.
  EXPECT_EQ(
      CounterValue(
          *stats,
          "serve_sketch_queries_total{pod=\"0\",sketch=\"s\"}"),
      static_cast<std::uint64_t>(kEstimateCalls + kAreFrequentCalls) *
          queries.size());

  // Latency histograms: one sample per query request, nonzero time.
  const StatsHistogram* estimate_ns =
      FindHistogram(*stats, "serve_request_ns{op=\"estimate\"}");
  ASSERT_NE(estimate_ns, nullptr);
  EXPECT_EQ(estimate_ns->count, kEstimateCalls);
  EXPECT_GT(estimate_ns->sum, 0u);
  const StatsHistogram* kernel_ns =
      FindHistogram(*stats, "serve_stage_kernel_ns");
  ASSERT_NE(kernel_ns, nullptr);
  EXPECT_EQ(kernel_ns->count, kEstimateCalls + kAreFrequentCalls);
  const StatsHistogram* decode_ns =
      FindHistogram(*stats, "serve_stage_decode_ns");
  ASSERT_NE(decode_ns, nullptr);
  // Info + the query calls decode bodies (the STATS call itself had not
  // happened yet when this snapshot's predecessors were taken; it does
  // not decode a body either way).
  EXPECT_GE(decode_ns->count, kEstimateCalls + kAreFrequentCalls + 1);

  // Client-side percentile reconstruction: rebuild a HistogramSnapshot
  // from the wire buckets and take quantiles with the shared routine.
  obs::HistogramSnapshot snap;
  snap.count = estimate_ns->count;
  snap.sum = estimate_ns->sum;
  snap.max = estimate_ns->max;
  snap.buckets = estimate_ns->buckets;
  EXPECT_GT(snap.Quantile(0.5), 0u);
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.99));
  EXPECT_EQ(snap.Quantile(1.0), snap.max);
}

// Four clients query one sketch at once: each request runs its own
// kernel, so the kernel stage histogram counts requests, not executions.
TEST(ServeStatsTest, KernelStageCountsEveryRequestUnderConcurrency) {
  StatsRig rig = MakeStatsRig("stats_concurrent", 95);
  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 50;
  std::vector<std::unique_ptr<LoopbackServer>> servers;
  std::vector<std::unique_ptr<SketchClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    servers.push_back(std::make_unique<LoopbackServer>(rig.router));
    clients.push_back(
        std::make_unique<SketchClient>(servers.back()->TakeClientEnd()));
  }
  const std::vector<std::vector<std::uint32_t>> queries = {{0, 1}, {2}, {3}};
  std::vector<std::thread> threads;
  std::vector<int> served(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kCallsPerClient; ++i) {
        if (clients[c]->EstimateMany("s", queries).has_value()) ++served[c];
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t requests = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(served[c], kCallsPerClient) << c;
    requests += static_cast<std::uint64_t>(served[c]);
  }

  const auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.has_value()) << clients[0]->last_error();
  const StatsHistogram* kernel_ns =
      FindHistogram(*stats, "serve_stage_kernel_ns");
  ASSERT_NE(kernel_ns, nullptr);
  EXPECT_EQ(kernel_ns->count, requests);
  EXPECT_EQ(CounterValue(*stats, "serve_coalesce_requests_total"), requests);
  EXPECT_EQ(CounterValue(*stats, "serve_coalesce_batches_total"), requests);
}

TEST(ServeStatsTest, StatsCountsItselfOnTheSecondCall) {
  StatsRig rig = MakeStatsRig("stats_self", 92);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  ASSERT_TRUE(client.Stats().has_value());
  const auto second = client.Stats();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(CounterValue(*second, "serve_requests_total{op=\"stats\"}"), 2u);
}

TEST(ServeStatsTest, NonemptyStatsBodyIsRefused) {
  StatsRig rig = MakeStatsRig("stats_badbody", 93);
  LoopbackServer server(rig.router);
  auto transport = server.TakeClientEnd();
  std::string frame;
  ASSERT_TRUE(EncodeFrame(Opcode::kStats, 0, "junk", &frame));
  ASSERT_TRUE(transport->WriteAll(frame.data(), frame.size()));
  Frame reply;
  ASSERT_EQ(ReadFrame(*transport, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(static_cast<Status>(reply.header.status), Status::kBadRequest);
  // The connection survives a refused request.
  SketchClient client(std::move(transport));
  EXPECT_TRUE(client.Stats().has_value());
}

TEST(ServeStatsTest, PodGaugesAndEpochAppearInStats) {
  StatsRig rig = MakeStatsRig("stats_gauges", 94);
  LoopbackServer server(rig.router);
  SketchClient client(server.TakeClientEnd());
  // First request faults the engine in (a load); the second finds it
  // resident (a hit).
  ASSERT_TRUE(client.EstimateMany("s", {{0}}).has_value());
  ASSERT_TRUE(client.EstimateMany("s", {{0}}).has_value());
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  bool saw_inflight = false;
  for (const StatsGauge& g : stats->gauges) {
    if (g.name == "serve_pod_inflight{pod=\"0\"}") {
      saw_inflight = true;
      EXPECT_EQ(g.value, 0);  // nothing in flight between requests
    }
  }
  EXPECT_TRUE(saw_inflight);
  EXPECT_EQ(
      CounterValue(*stats,
                   "serve_sketch_loads_total{pod=\"0\",sketch=\"s\"}"),
      1u);
  EXPECT_EQ(
      CounterValue(*stats,
                   "serve_sketch_hits_total{pod=\"0\",sketch=\"s\"}"),
      1u);
}

}  // namespace
}  // namespace ifsketch::serve
