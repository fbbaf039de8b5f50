// micro_serve: serving overhead on the perf trajectory.
//
//   micro_serve --json [out.json] [--clients 1,2,4,8] [--batch 1000]
//               [--rounds 50] [--conns 8,1024,10000]
//
// Compares direct Engine::estimate_many calls against the same batches
// served through the wire protocol over an in-process loopback transport
// (serve/transport.h) -- the full encode/frame/dispatch/route/decode
// path minus the kernel, with no socket noise -- at 1/2/4/8 concurrent
// clients. Each served client owns one connection into a dedicated
// ServeConnection thread; all connections share one Router, so
// concurrent clients run their kernels on one engine side by side.
//
// --conns adds the connection-scale sweep over the epoll reactor
// (serve/reactor.h) on real loopback TCP: for each count C the bench
// opens C concurrent connections, verifies one query on EVERY
// connection bit-identical to the direct Engine answer, then measures
// ns/query with 8 active pipelined clients while the other C-8
// connections sit open -- the held-connection cost the reactor exists
// to make cheap. Counts are clamped to what RLIMIT_NOFILE allows (each
// loopback connection costs two descriptors in this one process) and
// the clamp is reported, so the emitted rows always reflect a measured
// ceiling, never a silent truncation. A `served_conns` row per count
// lands in the same schema with `threads` = connection count; if a
// >=1024-connection row exceeds 1.5x the 8-connection baseline the
// bench warns (stderr) but still emits the row.
//
// Emits the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float,
//    "p50_ns": float, "p99_ns": float}
// where `threads` is the number of concurrent clients and p50/p99 are
// per-query request-latency percentiles (request latency / batch size):
//   direct           C threads calling engine.estimate_many directly
//   served_loopback  C protocol clients through the loopback server
// Answers are verified bit-identical to direct Engine calls on EVERY
// round of every served kernel; only the serving layer differs.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/pod.h"
#include "serve/reactor.h"
#include "serve/router.h"
#include "serve/server.h"
#include "util/random.h"

namespace {

using namespace ifsketch;

constexpr std::size_t kRows = 50000;
constexpr std::size_t kColumns = 64;
constexpr char kSketchName[] = "bench";

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// Per-client query batch as raw attribute lists (what the client sends)
/// plus the equivalent Itemsets (what the direct kernel consumes).
struct ClientBatch {
  std::vector<std::vector<std::uint32_t>> wire;
  std::vector<core::Itemset> itemsets;
};

ClientBatch MakeBatch(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  ClientBatch batch;
  batch.wire.reserve(count);
  batch.itemsets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(kColumns);
    while (t.size() < 3) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(kColumns)));
    }
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    batch.wire.push_back(std::move(attrs));
    batch.itemsets.push_back(std::move(t));
  }
  return batch;
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::vector<std::size_t> ParseList(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    const long v = std::strtol(csv.substr(pos, next - pos).c_str(),
                               nullptr, 10);
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
    pos = next + 1;
  }
  return out;
}

struct Row {
  std::string kernel;
  std::size_t clients;
  std::size_t batch;
  double ns_per_query;
  double p50_ns;  ///< per-query request-latency median
  double p99_ns;  ///< per-query request-latency 99th percentile
};

/// Request latencies folded into the shared obs histogram layout. The
/// quantiles below then come from obs::HistogramSnapshot::Quantile --
/// the same bucket bounds and nearest-rank math behind the server's
/// serve_request_ns metrics, so bench p50/p99 and served STATS
/// percentiles read on the same scale (<=25% bucketing error).
obs::HistogramSnapshot LatencyHistogram(const std::vector<double>& ns) {
  obs::Histogram h;
  for (const double v : ns) {
    h.Record(v <= 0.0 ? 0 : static_cast<std::uint64_t>(v));
  }
  return h.Snapshot();
}

/// Percentile of per-request latencies, scaled to ns per query.
double PercentileNsPerQuery(const obs::HistogramSnapshot& latencies,
                            double q, std::size_t batch) {
  return static_cast<double>(latencies.Quantile(q)) /
         static_cast<double>(batch);
}

struct ServedOutcome {
  bool ok = false;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Runs `clients` protocol clients for `rounds` requests each through
/// `router` over loopback connections, verifying every answer batch
/// bit-identical to `expected`.
ServedOutcome RunServed(serve::Router& router, std::size_t clients,
                        std::size_t rounds, std::size_t batch,
                        const std::vector<ClientBatch>& batches,
                        const std::vector<std::vector<double>>& expected) {
  std::vector<std::unique_ptr<serve::Transport>> client_ends;
  std::vector<std::thread> server_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    auto [client_end, server_end] = serve::LoopbackTransport::CreatePair();
    client_ends.push_back(std::move(client_end));
    server_threads.emplace_back(
        [&router, t = std::move(server_end)]() mutable {
          serve::ServeConnection(router, *t);
        });
  }
  // Construct the protocol clients outside the timed region: the timer
  // should cover the serving path only, not client setup.
  std::vector<std::unique_ptr<serve::SketchClient>> protocol_clients;
  for (std::size_t c = 0; c < clients; ++c) {
    protocol_clients.push_back(
        std::make_unique<serve::SketchClient>(std::move(client_ends[c])));
  }
  std::atomic<bool> failed{false};
  std::vector<std::vector<double>> latencies(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    latencies[c].reserve(rounds);
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < rounds; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        auto answers =
            protocol_clients[c]->EstimateMany(kSketchName, batches[c].wire);
        latencies[c].push_back(ElapsedNs(t0));
        if (!answers.has_value() || *answers != expected[c]) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double total = ElapsedNs(start);
  protocol_clients.clear();  // hang up -> server EOF
  for (auto& t : server_threads) t.join();

  ServedOutcome outcome;
  if (failed.load()) return outcome;  // ok stays false
  std::vector<double> merged;
  for (auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  outcome.ok = true;
  outcome.mean_ns =
      total / static_cast<double>(clients * batch * rounds);
  const obs::HistogramSnapshot lat = LatencyHistogram(merged);
  outcome.p99_ns = PercentileNsPerQuery(lat, 0.99, batch);
  outcome.p50_ns = PercentileNsPerQuery(lat, 0.50, batch);
  return outcome;
}

/// Deletes `path` when it leaves scope, so every exit path of main
/// cleans up the temp sketch file.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::size_t> client_counts = {1, 2, 4, 8};
  std::vector<std::size_t> batch_sizes = {1000};
  std::vector<std::size_t> conn_counts;  // empty = no connection sweep
  std::size_t rounds = 50;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--clients" && i + 1 < argc) {
      client_counts = ParseList(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_sizes = ParseList(argv[++i]);
    } else if (arg == "--conns" && i + 1 < argc) {
      conn_counts = ParseList(argv[++i]);
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_serve --json [out.json] [--clients "
                   "1,2,4,8] [--batch 1000] [--rounds 50] "
                   "[--conns 8,1024,10000]\n");
      return 2;
    }
  }
  (void)json;  // the sweep always runs; --json only redirects output
  if (client_counts.empty() || batch_sizes.empty() || rounds == 0) {
    std::fprintf(stderr, "error: --clients/--batch/--rounds need "
                         "positive values\n");
    return 2;
  }

  // One sketch, saved to disk so the pod serves exactly what a real
  // deployment would (the file is the hand-off boundary).
  util::Rng rng(71);
  const core::Database db =
      data::PowerLawBaskets(kRows, kColumns, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  if (!built.has_value()) {
    std::fprintf(stderr, "error: Engine::Build failed\n");
    return 1;
  }
  const Engine& engine = *built;
  const std::string sketch_path = "micro_serve_tmp.ifsk";
  const RemoveOnExit remove_sketch{sketch_path};
  if (!engine.Save(sketch_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", sketch_path.c_str());
    return 1;
  }
  serve::Router router({std::make_shared<serve::SketchPod>()});
  router.AddSketch(kSketchName, sketch_path);
  router.Acquire(kSketchName);  // warm: load + view materialization

  std::vector<Row> rows;
  for (std::size_t batch : batch_sizes) {
    for (std::size_t clients : client_counts) {
      std::vector<ClientBatch> batches;
      for (std::size_t c = 0; c < clients; ++c) {
        batches.push_back(MakeBatch(batch, 100 + c));
      }

      // Reference answers once per client batch (also the warmup).
      std::vector<std::vector<double>> expected(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        engine.estimate_many(batches[c].itemsets, &expected[c]);
      }

      // -- direct: C threads of engine.estimate_many, no serving layer.
      {
        std::vector<std::vector<double>> latencies(clients);
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; ++c) {
          latencies[c].reserve(rounds);
          threads.emplace_back([&, c] {
            std::vector<double> answers;
            for (std::size_t r = 0; r < rounds; ++r) {
              const auto t0 = std::chrono::steady_clock::now();
              engine.estimate_many(batches[c].itemsets, &answers);
              latencies[c].push_back(ElapsedNs(t0));
            }
          });
        }
        for (auto& t : threads) t.join();
        const double total = ElapsedNs(start);
        std::vector<double> merged;
        for (auto& lat : latencies) {
          merged.insert(merged.end(), lat.begin(), lat.end());
        }
        const obs::HistogramSnapshot lat = LatencyHistogram(merged);
        const double p99 = PercentileNsPerQuery(lat, 0.99, batch);
        const double p50 = PercentileNsPerQuery(lat, 0.50, batch);
        rows.push_back(
            {"direct", clients, batch,
             total / static_cast<double>(clients * batch * rounds), p50,
             p99});
      }

      // -- served: the same batches through protocol + loopback + router.
      {
        const auto outcome =
            RunServed(router, clients, rounds, batch, batches, expected);
        if (!outcome.ok) {
          std::fprintf(stderr,
                       "error: served answers diverged from direct "
                       "estimate_many\n");
          return 1;
        }
        rows.push_back({"served_loopback", clients, batch,
                        outcome.mean_ns, outcome.p50_ns, outcome.p99_ns});
      }
    }
  }

  // -- connection-scale sweep: C held connections into the epoll
  //    reactor over real loopback TCP, 8 of them actively pipelining.
  if (!conn_counts.empty()) {
    const std::size_t kActive = 8;
    const std::size_t batch = batch_sizes.front();

    // Each loopback connection costs two descriptors in this process
    // (the client end plus the accepted end); keep headroom for the
    // listener, the sketch file, stdio and everything else.
    std::size_t fd_ceiling = 0;
    struct rlimit rl;
    if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur > 256) {
      fd_ceiling = (static_cast<std::size_t>(rl.rlim_cur) - 256) / 2;
    }

    serve::ReactorServer reactor(router);
    if (!reactor.Listen(0)) {
      std::fprintf(stderr, "error: reactor cannot listen for the "
                           "connection sweep\n");
      return 1;
    }
    const std::uint16_t port = reactor.port();

    std::vector<ClientBatch> batches;
    std::vector<std::vector<double>> expected(kActive);
    for (std::size_t c = 0; c < kActive; ++c) {
      batches.push_back(MakeBatch(batch, 100 + c));
      engine.estimate_many(batches[c].itemsets, &expected[c]);
    }
    // The per-connection verification probe: one tiny query every
    // connection must answer bit-identically before it counts as held.
    const ClientBatch probe = MakeBatch(1, 4242);
    std::vector<double> probe_expected;
    engine.estimate_many(probe.itemsets, &probe_expected);

    double baseline_ns = 0.0;
    for (std::size_t conns : conn_counts) {
      std::size_t target = std::max(conns, kActive);
      if (fd_ceiling > 0 && target > fd_ceiling) {
        std::fprintf(stderr,
                     "note: clamping --conns %zu to %zu "
                     "(RLIMIT_NOFILE=%llu, 2 fds per connection)\n",
                     conns, fd_ceiling,
                     static_cast<unsigned long long>(rl.rlim_cur));
        target = fd_ceiling;
      }

      std::vector<std::unique_ptr<serve::SketchClient>> pool;
      pool.reserve(target);
      while (pool.size() < target) {
        auto transport = serve::TcpConnect(port);
        if (transport == nullptr) {
          std::fprintf(stderr,
                       "note: connection ceiling measured at %zu of %zu "
                       "requested\n",
                       pool.size(), target);
          break;
        }
        pool.push_back(
            std::make_unique<serve::SketchClient>(std::move(transport)));
      }
      if (pool.size() < kActive) {
        std::fprintf(stderr, "error: cannot open even %zu connections\n",
                     kActive);
        return 1;
      }
      // Every held connection answers the probe bit-identically, or the
      // sweep is measuring a lie.
      for (auto& client : pool) {
        const auto got = client->EstimateMany(kSketchName, probe.wire);
        if (!got.has_value() || *got != probe_expected) {
          std::fprintf(stderr,
                       "error: connection-sweep answer diverged from "
                       "direct estimate_many at %zu connections\n",
                       pool.size());
          return 1;
        }
      }

      // Measure with kActive pipelined clients; the rest just sit open,
      // which is exactly the load the reactor must keep off the fast
      // path.
      std::atomic<bool> failed{false};
      std::vector<std::vector<double>> latencies(kActive);
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kActive; ++c) {
        latencies[c].reserve(rounds);
        threads.emplace_back([&, c] {
          for (std::size_t r = 0; r < rounds; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto answers = pool[c]->EstimateManyPipelined(
                kSketchName, batches[c].wire, 8);
            latencies[c].push_back(ElapsedNs(t0));
            if (!answers.has_value() || *answers != expected[c]) {
              failed.store(true);
              return;
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      const double total = ElapsedNs(start);
      if (failed.load()) {
        std::fprintf(stderr,
                     "error: pipelined answers diverged from direct "
                     "estimate_many at %zu connections\n",
                     pool.size());
        return 1;
      }
      std::vector<double> merged;
      for (auto& lat : latencies) {
        merged.insert(merged.end(), lat.begin(), lat.end());
      }
      const obs::HistogramSnapshot lat = LatencyHistogram(merged);
      const double mean =
          total / static_cast<double>(kActive * batch * rounds);
      rows.push_back({"served_conns", pool.size(), batch, mean,
                      PercentileNsPerQuery(lat, 0.50, batch),
                      PercentileNsPerQuery(lat, 0.99, batch)});
      if (baseline_ns == 0.0) {
        baseline_ns = mean;
      } else if (pool.size() >= 1024 && mean > 1.5 * baseline_ns) {
        std::fprintf(stderr,
                     "warning: %zu-connection ns/query %.1f exceeds "
                     "1.5x the %zu-connection baseline %.1f\n",
                     pool.size(), mean, conn_counts.front(), baseline_ns);
      }
      pool.clear();  // hang up before the next count
    }
    reactor.StopAccepting();
    reactor.WaitDrained();
  }

  std::FILE* out =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "  {\"kernel\": \"%s\", \"threads\": %zu, \"batch\": %zu, "
                 "\"ns_per_query\": %.1f, \"p50_ns\": %.1f, "
                 "\"p99_ns\": %.1f}%s\n",
                 rows[i].kernel.c_str(), rows[i].clients, rows[i].batch,
                 rows[i].ns_per_query, rows[i].p50_ns, rows[i].p99_ns,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
