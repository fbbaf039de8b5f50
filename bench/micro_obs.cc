// micro_obs: the observability layer's overhead on the perf trajectory.
//
//   micro_obs --json [out.json] [--rounds 2000000] [--batch 256]
//             [--threads 4]
//
// The PR 8 contract this bench pins: instrumenting the query hot path
// (one request counter + one RequestTrace + one kernel StageTimer per
// batch, exactly what ServeConnection adds) moves steady-state query
// throughput by at most 2%. The bench FAILS (exit 1) when the steady
// kernel regresses more than the contract allows, so CI catches an
// accidentally fattened hot path. Histogram::Record is a handful of
// relaxed atomics -- single-digit ns on bare metal, low teens on
// virtualized CI hardware -- reported here but not gated (the absolute
// number tracks the host's atomic RMW latency, not our code).
//
// Kernels, in the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}:
//
//   record          Histogram::Record, single thread; ns per record
//   record_mt       Histogram::Record, --threads concurrent recorders
//                   (contended bucket cells); ns per record per thread
//   counter_add     sharded Counter::Add, --threads concurrent adders;
//                   ns per add per thread
//   counter_hot     Counter::Add, single thread (the uncontended cost)
//   snapshot        MetricsRegistry::Snapshot over a serving-sized
//                   registry (~60 metrics); ns per snapshot
//   render_text     RenderText over the same registry; ns per render
//   query_baseline  engine.estimate_many batches, uninstrumented
//   query_steady    the same batches under per-request instrumentation
//                   (request counter + RequestTrace + kernel timer);
//                   must be within 2% of query_baseline
//
// The record/counter numbers are per *operation*; batch reports how
// many operations the timed loop ran.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace {

using namespace ifsketch;

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

struct Row {
  std::string kernel;
  std::size_t threads;
  std::size_t batch;
  double ns_per_query;
};

/// Populates `registry` with a serving-shaped metric set: op counters,
/// stage histograms, per-pod and per-sketch series -- what Snapshot and
/// RenderText walk on a real server.
void PopulateServingShape(obs::MetricsRegistry& registry) {
  util::Rng rng(99);
  for (const char* op :
       {"estimate", "are_frequent", "info", "refresh", "subscribe",
        "stats"}) {
    registry.GetCounter(obs::LabeledName("serve_requests_total", "op", op))
        ->Add(static_cast<std::uint64_t>(rng.UniformInt(1000)));
    auto* h = registry.GetHistogram(
        obs::LabeledName("serve_request_ns", "op", op));
    for (int i = 0; i < 64; ++i) {
      h->Record(static_cast<std::uint64_t>(1000 + rng.UniformInt(1000000)));
    }
  }
  for (const char* stage :
       {"decode", "route", "acquire", "kernel", "encode"}) {
    std::string name = "serve_stage_";
    name += stage;
    name += "_ns";
    auto* h = registry.GetHistogram(name);
    for (int i = 0; i < 64; ++i) {
      h->Record(static_cast<std::uint64_t>(100 + rng.UniformInt(100000)));
    }
  }
  for (int pod = 0; pod < 4; ++pod) {
    const std::string p = std::to_string(pod);
    registry.GetGauge(obs::LabeledName("serve_pod_inflight", "pod", p));
    for (int s = 0; s < 4; ++s) {
      std::string sketch = "s";
      sketch += std::to_string(s);
      registry
          .GetCounter(obs::LabeledName2("serve_sketch_queries_total", "pod",
                                        p, "sketch", sketch))
          ->Add(static_cast<std::uint64_t>(rng.UniformInt(10000)));
    }
  }
  registry.GetCounter("ingest_rows_total")->Add(123456);
  registry.GetGauge("ingest_ring_occupancy")->Set(17);
  registry.GetHistogram("ingest_publish_ns")->Record(2000000);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::size_t rounds = 2000000;
  std::size_t batch = 256;
  std::size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_obs --json [out.json] [--rounds 2000000] "
                   "[--batch 256] [--threads 4]\n");
      return 2;
    }
  }
  if (rounds == 0 || batch == 0 || threads == 0 || threads > 256) {
    std::fprintf(stderr, "error: --rounds/--batch/--threads need sane "
                 "values\n");
    return 2;
  }
  std::vector<Row> rows;

  // -- record: single-thread Histogram::Record. The value pattern walks
  // buckets so the branch predictor cannot learn one index.
  {
    obs::Histogram h;
    util::Rng rng(1);
    std::vector<std::uint64_t> values(4096);
    for (auto& v : values) {
      v = static_cast<std::uint64_t>(rng.UniformInt(1 << 20));
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      h.Record(values[i & 4095]);
    }
    const double ns = ElapsedNs(start) / static_cast<double>(rounds);
    rows.push_back({"record", 1, rounds, ns});
    std::fprintf(stderr,
                 "record: %.2f ns/op (target: single digit on bare "
                 "metal)\n",
                 ns);
  }

  // -- record_mt: the same histogram under concurrent recorders.
  {
    obs::Histogram h;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    const std::size_t per_thread = rounds / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        util::Rng rng(t + 1);
        std::vector<std::uint64_t> values(4096);
        for (auto& v : values) {
          v = static_cast<std::uint64_t>(rng.UniformInt(1 << 20));
        }
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < per_thread; ++i) {
          h.Record(values[i & 4095]);
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    rows.push_back({"record_mt", threads, per_thread,
                    ElapsedNs(start) / static_cast<double>(per_thread)});
  }

  // -- counter_hot / counter_add: sharded counter, alone and contended.
  {
    obs::Counter c;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < rounds; ++i) c.Add();
    rows.push_back({"counter_hot", 1, rounds,
                    ElapsedNs(start) / static_cast<double>(rounds)});
  }
  {
    obs::Counter c;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    const std::size_t per_thread = rounds / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < per_thread; ++i) c.Add();
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    rows.push_back({"counter_add", threads, per_thread,
                    ElapsedNs(start) / static_cast<double>(per_thread)});
  }

  // -- snapshot / render_text over a serving-shaped registry.
  {
    obs::MetricsRegistry registry;
    PopulateServingShape(registry);
    constexpr std::size_t kSnapRounds = 2000;
    const auto start = std::chrono::steady_clock::now();
    std::size_t total_metrics = 0;
    for (std::size_t i = 0; i < kSnapRounds; ++i) {
      total_metrics += registry.Snapshot().counters.size();
    }
    rows.push_back({"snapshot", 1, kSnapRounds,
                    ElapsedNs(start) / static_cast<double>(kSnapRounds)});
    const auto rstart = std::chrono::steady_clock::now();
    std::size_t total_bytes = 0;
    for (std::size_t i = 0; i < kSnapRounds; ++i) {
      total_bytes += registry.RenderText().size();
    }
    rows.push_back({"render_text", 1, kSnapRounds,
                    ElapsedNs(rstart) / static_cast<double>(kSnapRounds)});
    if (total_metrics == 0 || total_bytes == 0) return 1;  // keep honest
  }

  // -- query_baseline vs query_steady: the 2% contract. Same engine,
  // same queries; steady adds exactly the per-request instrumentation
  // ServeConnection introduces (op counter, RequestTrace, kernel
  // StageTimer). Three alternating passes each to cancel drift.
  double baseline_ns = 0.0;
  double steady_ns = 0.0;
  {
    util::Rng rng(7);
    const core::Database db =
        data::PowerLawBaskets(20000, 32, 1.0, 0.5, 4, 3, 0.2, rng);
    auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
    if (!engine.has_value()) {
      std::fprintf(stderr, "error: Engine::Build failed\n");
      return 1;
    }
    std::vector<core::Itemset> queries;
    for (std::size_t i = 0; i < batch; ++i) {
      core::Itemset t(32);
      while (t.size() < 3) {
        t.Add(static_cast<std::size_t>(rng.UniformInt(32)));
      }
      queries.push_back(std::move(t));
    }
    obs::MetricsRegistry registry;
    obs::Counter* requests = registry.GetCounter(
        obs::LabeledName("serve_requests_total", "op", "estimate"));
    const std::size_t query_rounds = 400;
    std::vector<double> answers;
    // Warm both paths once.
    engine->estimate_many(queries, &answers);
    double base_total = 0.0;
    double steady_total = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      const auto b0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < query_rounds; ++r) {
        engine->estimate_many(queries, &answers);
      }
      base_total += ElapsedNs(b0);
      const auto s0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < query_rounds; ++r) {
        requests->Add();
        obs::RequestTrace trace(&registry, "estimate");
        obs::StageTimer kernel(obs::Stage::kKernel);
        engine->estimate_many(queries, &answers);
      }
      steady_total += ElapsedNs(s0);
    }
    const double denom =
        static_cast<double>(3 * query_rounds) * static_cast<double>(batch);
    baseline_ns = base_total / denom;
    steady_ns = steady_total / denom;
    rows.push_back({"query_baseline", 1, batch, baseline_ns});
    rows.push_back({"query_steady", 1, batch, steady_ns});
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
                 "\"ns_per_query\": %.2f}%s\n",
                 rows[i].kernel.c_str(), rows[i].threads, rows[i].batch,
                 rows[i].ns_per_query, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);

  const double overhead =
      baseline_ns > 0.0 ? (steady_ns - baseline_ns) / baseline_ns : 0.0;
  std::fprintf(stderr,
               "query_steady: %.2f ns/query vs baseline %.2f ns/query "
               "(%+.2f%%, contract <= 2%%)\n",
               steady_ns, baseline_ns, 100.0 * overhead);
  if (overhead > 0.02) {
    std::fprintf(stderr,
                 "error: instrumentation overhead exceeds the 2%% "
                 "contract\n");
    return 1;
  }
  return 0;
}
