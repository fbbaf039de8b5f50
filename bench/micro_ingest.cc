// micro_ingest: streaming ingest on the perf trajectory.
//
//   micro_ingest --json [out.json] [--rows 60000] [--batch 1000]
//                [--rounds 30]
//
// Four kernels in the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}:
//
//   ingest_rows   ns per row through the full pipeline (SPSC ring ->
//                 ingest thread -> builder Observe), producer + ingest
//                 thread; `batch` is the stream length, the reciprocal
//                 is rows/s sustained. Median of 5 runs.
//   ingest_rows@wal_sync=<policy>
//                 the same pipeline with the write-ahead log enabled
//                 under each sync policy (ingest/wal.h). Acceptance
//                 bar: on_snapshot (the server default) must stay
//                 within 1.2x of the no-WAL ingest_rows number, or the
//                 bench exits nonzero. The two run in 5 pairs of
//                 alternating order, the bar compares their medians
//                 (the on_snapshot row), and stderr shows each pair's
//                 ratio; every_n and every_record are single runs.
//   publish       ns per snapshot publication: builder Summary ->
//                 Engine::FromFile -> SketchPod::Publish swap.
//   query_idle    ns per estimate_many query against a published
//                 snapshot with no ingest running (the baseline).
//   query_steady  the same queries while the ingest thread churns rows
//                 and publishes into the same pod -- the build-while-
//                 serve number; `threads` counts the query thread plus
//                 the ingest thread.
//
// Every run also asserts the ingest invariant: the first published
// snapshot answers estimate_many bit-identically to a one-shot
// Engine::Build over the same row prefix with the same seed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "serve/pod.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_file.h"
#include "sketch/streaming.h"
#include "util/random.h"

namespace {

using namespace ifsketch;

constexpr std::size_t kColumns = 32;
constexpr std::uint64_t kSeed = 7;

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

std::vector<core::Itemset> MakeQueries(std::size_t count) {
  util::Rng rng(101);
  std::vector<core::Itemset> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(kColumns);
    while (t.size() < 3) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(kColumns)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

ingest::IngestOptions Options(std::size_t rows_per_snapshot) {
  ingest::IngestOptions options;
  options.algorithm = "STREAM-SUBSAMPLE";
  options.params = Params();
  options.d = kColumns;
  options.seed = kSeed;
  options.rows_per_snapshot = rows_per_snapshot;
  return options;
}

// Median of a non-empty sample (mean of the middle two when even).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

struct Row {
  std::string kernel;
  std::size_t threads;
  std::size_t batch;
  double ns_per_query;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::size_t stream_rows = 60000;
  std::size_t batch = 1000;
  std::size_t rounds = 30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--rows" && i + 1 < argc) {
      stream_rows =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_ingest --json [out.json] [--rows 60000] "
                   "[--batch 1000] [--rounds 30]\n");
      return 2;
    }
  }
  if (stream_rows < 2000 || batch == 0 || rounds == 0) {
    std::fprintf(stderr,
                 "error: --rows (>= 2000), --batch and --rounds need "
                 "positive values\n");
    return 2;
  }

  util::Rng rng(71);
  const core::Database db =
      data::PowerLawBaskets(stream_rows, kColumns, 1.0, 0.5, 4, 3, 0.2, rng);
  const std::vector<core::Itemset> queries = MakeQueries(batch);
  std::vector<Row> rows;

  // -- invariant check: first snapshot == one-shot build over the prefix.
  {
    const std::size_t prefix = stream_rows / 2;
    std::shared_ptr<const Engine> snapshot;
    {
      auto service = ingest::IngestService::Create(
          Options(prefix),
          [&](std::shared_ptr<const Engine> engine, std::uint64_t published) {
            if (published == prefix) snapshot = std::move(engine);
          });
      for (std::size_t i = 0; i < db.num_rows(); ++i) {
        service->Push(db.Row(i));
      }
      service->Finish();
    }
    core::Database prefix_db(0, kColumns);
    for (std::size_t i = 0; i < prefix; ++i) prefix_db.AppendRow(db.Row(i));
    util::Rng build_rng(kSeed);
    const auto direct =
        Engine::Build(prefix_db, "STREAM-SUBSAMPLE", Params(), build_rng);
    std::vector<double> from_snapshot, from_direct;
    snapshot->estimate_many(queries, &from_snapshot);
    direct->estimate_many(queries, &from_direct);
    if (from_snapshot != from_direct) {
      std::fprintf(stderr,
                   "error: published snapshot diverged from one-shot "
                   "build over the same prefix\n");
      return 1;
    }
  }

  // -- ingest_rows and ingest_rows@wal_sync=<policy>: ns per row through
  // the full pipeline, without and with the write-ahead log. The WAL
  // runs snapshot (and therefore checkpoint) every stream_rows/4 rows;
  // the no-WAL run publishes once at the end. Returns a negative value
  // when the WAL cannot be opened or fails mid-run.
  const auto ingest_ns_per_row =
      [&](const ingest::WalSyncPolicy* policy) -> double {
    ingest::IngestOptions options = Options(stream_rows);
    std::string wal_dir;
    if (policy != nullptr) {
      wal_dir = "micro_ingest_wal_" +
                std::string(ingest::WalSyncPolicyName(*policy));
      std::filesystem::remove_all(wal_dir);
      options = Options(stream_rows / 4);
      options.wal_dir = wal_dir;
      options.wal_sync = *policy;
    }
    auto service = ingest::IngestService::Create(
        options, [](std::shared_ptr<const Engine>, std::uint64_t) {});
    if (service == nullptr) {
      std::fprintf(stderr, "error: cannot open WAL in %s\n", wal_dir.c_str());
      return -1.0;
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
    service->Finish();
    const double ns = ElapsedNs(start) / static_cast<double>(stream_rows);
    const bool failed = service->wal_failed();
    service.reset();
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
    if (failed) {
      std::fprintf(stderr, "error: WAL failed during the bench run\n");
      return -1.0;
    }
    return ns;
  };

  // The durability tax of on_snapshot -- the default the server runs
  // with -- must stay within 1.2x of no-WAL ingest, or the bench exits
  // nonzero. One run of each is too noisy for that bar, so the two
  // variants run in kWalPairs pairs, alternating which goes first (so
  // warm-up and drift hit both), and the bar compares the medians.
  constexpr std::size_t kWalPairs = 5;
  const ingest::WalSyncPolicy on_snapshot = ingest::WalSyncPolicy::kOnSnapshot;
  std::vector<double> no_wal_runs, on_snapshot_runs;
  for (std::size_t pair = 0; pair < kWalPairs; ++pair) {
    for (std::size_t leg = 0; leg < 2; ++leg) {
      const bool wal = (leg == 0) == (pair % 2 == 1);
      const double ns = ingest_ns_per_row(wal ? &on_snapshot : nullptr);
      if (ns < 0.0) return 1;
      (wal ? on_snapshot_runs : no_wal_runs).push_back(ns);
    }
    std::fprintf(stderr, "wal tax pair %zu: on_snapshot %.2fx of no-WAL\n",
                 pair + 1, on_snapshot_runs.back() / no_wal_runs.back());
  }
  const double no_wal_ns = Median(no_wal_runs);
  const double on_snapshot_ns = Median(on_snapshot_runs);
  rows.push_back({"ingest_rows", 2, stream_rows, no_wal_ns});
  rows.push_back({std::string("ingest_rows@wal_sync=") +
                      ingest::WalSyncPolicyName(on_snapshot),
                  2, stream_rows, on_snapshot_ns});
  for (const ingest::WalSyncPolicy policy :
       {ingest::WalSyncPolicy::kEveryN, ingest::WalSyncPolicy::kEveryRecord}) {
    const double ns = ingest_ns_per_row(&policy);
    if (ns < 0.0) return 1;
    rows.push_back({std::string("ingest_rows@wal_sync=") +
                        ingest::WalSyncPolicyName(policy),
                    2, stream_rows, ns});
  }
  if (on_snapshot_ns > 1.2 * no_wal_ns) {
    std::fprintf(stderr,
                 "error: median on_snapshot WAL tax %.1f ns/row exceeds "
                 "1.2x the median no-WAL baseline %.1f ns/row\n",
                 on_snapshot_ns, no_wal_ns);
    return 1;
  }
  std::fprintf(stderr,
               "wal tax: on_snapshot %.2fx of no-WAL baseline (medians of "
               "%zu pairs)\n",
               on_snapshot_ns / no_wal_ns, kWalPairs);

  // -- publish: Summary -> FromFile -> Publish, on a warmed builder --
  // exactly what the ingest thread does at every snapshot boundary.
  serve::SketchPod pod;
  pod.AddStream("bench");
  {
    auto algorithm = sketch::BuiltinRegistry().Create("STREAM-SUBSAMPLE");
    const auto* streaming =
        dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
    util::Rng builder_rng(kSeed);
    auto builder = streaming->NewBuilder(kColumns, Params(), builder_rng);
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      builder->Observe(db.Row(i));
    }
    // Per-round timings go through the shared obs histogram so the
    // percentiles printed here use the exact bucket/quantile math of
    // the server's ingest_publish_ns metric.
    obs::Histogram publish_hist;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      sketch::SketchFile file;
      file.algorithm = "STREAM-SUBSAMPLE";
      file.params = Params();
      file.n = builder->rows_seen();
      file.d = kColumns;
      file.summary = builder->Summary();
      auto engine = Engine::FromFile(std::move(file));
      pod.Publish("bench", std::make_shared<const Engine>(std::move(*engine)),
                  builder->rows_seen());
      publish_hist.Record(static_cast<std::uint64_t>(ElapsedNs(t0)));
    }
    rows.push_back(
        {"publish", 1, 1, ElapsedNs(start) / static_cast<double>(rounds)});
    const obs::HistogramSnapshot snap = publish_hist.Snapshot();
    std::fprintf(stderr,
                 "publish latency: p50=%llu ns p90=%llu ns p99=%llu ns "
                 "max=%llu ns (%llu rounds)\n",
                 static_cast<unsigned long long>(snap.Quantile(0.5)),
                 static_cast<unsigned long long>(snap.Quantile(0.9)),
                 static_cast<unsigned long long>(snap.Quantile(0.99)),
                 static_cast<unsigned long long>(snap.max),
                 static_cast<unsigned long long>(snap.count));
  }

  // -- query_idle: estimate_many against the resident snapshot, no churn.
  {
    auto engine = pod.Acquire("bench");
    std::vector<double> answers;
    engine->estimate_many(queries, &answers);  // warm the views
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      engine->estimate_many(queries, &answers);
    }
    rows.push_back({"query_idle", 1, batch,
                    ElapsedNs(start) /
                        static_cast<double>(rounds * batch)});
  }

  // -- query_steady: the same queries while ingest churns and publishes
  // into the same pod every 2000 rows.
  {
    std::atomic<bool> done{false};
    auto service = ingest::IngestService::Create(
        Options(2000),
        [&](std::shared_ptr<const Engine> engine, std::uint64_t published) {
          pod.Publish("bench", std::move(engine), published);
        });
    std::thread feeder([&] {
      // Cycle the stream until the query side finishes.
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t i = 0;
             i < db.num_rows() && !done.load(std::memory_order_acquire);
             ++i) {
          service->Push(db.Row(i));
        }
      }
    });
    std::vector<double> answers;
    pod.Acquire("bench")->estimate_many(queries, &answers);  // warm
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      // Re-acquire each round: steady-state monitors follow the live
      // snapshot, so the swap cost is part of the measured path.
      pod.Acquire("bench")->estimate_many(queries, &answers);
    }
    const double ns =
        ElapsedNs(start) / static_cast<double>(rounds * batch);
    done.store(true, std::memory_order_release);
    feeder.join();
    service->Finish();
    rows.push_back({"query_steady", 2, batch, ns});
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
                 "\"ns_per_query\": %.1f}%s\n",
                 rows[i].kernel.c_str(), rows[i].threads, rows[i].batch,
                 rows[i].ns_per_query, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
