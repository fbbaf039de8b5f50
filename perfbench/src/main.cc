// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//             [--spans FILE]
//
// Runs one workload (see workloads.cc) in-process against the real
// serving and ingest stacks and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1 they
// are the per-layer ones from the traced run (ladder.cc). Before it come
// a host/build fingerprint line and a report line with every metric the
// run measured. All files go under --tmp, which is removed on exit; the
// traced run's spans go to --spans.
//
// Exit status: 0 when every checked answer matched, 1 when any answer was
// wrong or refused (the result line is still printed), 2 on bad usage or
// a set-up failure (no result line).
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "util/kernels.h"
#include "workloads.h"

namespace {

using perfbench::Bench;
using perfbench::LoadResult;
using perfbench::Metrics;

// Set-ups per run; setup_s is their median. Set-up-only rounds run while
// they add up to under kSetupBudgetS (and the total stays within
// kMaxSetups), so a fast set-up's median still rests on many samples.
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;
// An untraced run measures in this many rounds, each on a fresh set-up.
constexpr int kRounds = 3;
// An untraced run measures --seconds of windows with little stolen CPU
// time, holding at least the requests p99 needs; it gives up waiting
// for quiet windows after kCapFactor times --seconds.
const std::uint64_t kMinRequests = perfbench::MinSamplesFor(0.99);
constexpr double kCapFactor = 5.0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Removes the run's temp dir on every return path.
struct TempDir {
  std::string path;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--spans FILE]\n");
  return 2;
}

/// Appends one round's windows and counts to the run's (latency windows
/// aside: they go into LatencyGroups round by round).
void Append(LoadResult* run, LoadResult round) {
  run->seconds += round.seconds;
  run->requests += round.requests;
  run->queries += round.queries;
  run->failed += round.failed;
  run->stolen_ticks += round.stolen_ticks;
  const auto extend = [](auto& into, auto& from) {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  };
  extend(run->window_qps, round.window_qps);
  extend(run->window_rows_s, round.window_rows_s);
  extend(run->window_steal, round.window_steal);
  extend(run->window_seconds, round.window_seconds);
  extend(run->counted, round.counted);
  extend(run->backlog_rows, round.backlog_rows);
}

/// Median of a per-window series over the counted windows.
double CountedMedian(const std::vector<double>& values,
                     const std::vector<bool>& counted) {
  std::vector<double> kept;
  for (std::size_t w = 0; w < values.size() && w < counted.size(); ++w) {
    if (counted[w]) kept.push_back(values[w]);
  }
  return perfbench::Median(kept);
}

double WindowMedian(const std::vector<LoadResult>& segments, bool traced) {
  std::vector<double> windows;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if ((i % 2 == 1) != traced) continue;
    for (std::size_t w = 0; w < segments[i].window_qps.size(); ++w) {
      if (segments[i].counted[w]) windows.push_back(segments[i].window_qps[w]);
    }
  }
  return perfbench::Median(windows);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, tmp, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--tmp") {
      tmp = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !(seconds > 0.0) ||
      (trace != 0 && trace != 1) || tmp.empty()) {
    return Usage();
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  perfbench::Config config;
  if (!perfbench::LookupConfig(workload, nproc, &config)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 workload.c_str());
    return Usage();
  }
  TempDir temp{tmp};
  std::error_code ec;
  std::filesystem::create_directories(tmp, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", tmp.c_str());
    return 2;
  }

  std::printf(
      "{\"fingerprint\": {\"cpu\": %s, \"nproc\": %zu, \"kernel_tier\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"workload\": %s, \"seed\": "
      "%llu, \"seconds\": %s, \"trace\": %d, \"connections\": %zu}}\n",
      JsonString(CpuModel()).c_str(), nproc,
      JsonString(ifsketch::util::KernelTierName(
                     ifsketch::util::ActiveKernelTier()))
          .c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(workload).c_str(),
      static_cast<unsigned long long>(seed), JsonNumber(seconds).c_str(),
      trace, config.connections);
  std::fflush(stdout);

  Bench bench(config, seed, tmp);
  std::vector<double> setup_s, setup_steal;
  int round = 0;
  const auto set_up = [&] {
    std::string error;
    const double stolen = perfbench::StolenTicks();
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = bench.Setup(round++, &error);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    setup_steal.push_back((perfbench::StolenTicks() - stolen) /
                          setup_s.back());
    if (!ok) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    }
    return ok;
  };
  // Set-up-only rounds first, while set-ups are fast, so that setup_s
  // rests on many samples; then the measured rounds, each on a fresh
  // set-up.
  const int measured_rounds = trace == 0 ? kRounds : 1;
  double setup_total = 0.0;
  while (round + measured_rounds < kMaxSetups &&
         setup_total < kSetupBudgetS) {
    if (!set_up()) return 2;
    setup_total += setup_s.back();
    bench.Teardown();
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto prepare_reference = [&] {
    std::string error;
    ++attempted;
    if (!bench.PrepareReference(&error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      ++failed;
    }
  };
  const bool live = config.files == 0;

  Metrics report;  // every metric this run measured
  Metrics result;  // the ones BENCHMARK.json lists for this trace mode
  std::vector<perfbench::SpanRecorder> recorders(config.connections);
  perfbench::SpanRecorder ladder_recorder;

  if (trace == 0) {
    // Each round measures a third of the run on its own server instance,
    // so how the scheduler happened to place one instance's threads
    // cannot set the whole run's figures.
    LoadResult load;
    perfbench::LatencyGroups latency(kMinRequests);
    std::vector<double> lags;
    for (int r = 0; r < kRounds; ++r) {
      if (r > 0) bench.Teardown();
      if (!set_up()) return 2;
      prepare_reference();
      bench.StartBackground(false);
      LoadResult round_load = bench.RunLoad(
          seconds / kRounds, seconds * kCapFactor / kRounds,
          (kMinRequests + kRounds - 1) / kRounds,
          live ? (perfbench::MinSamplesFor(0.90) + kRounds - 1) / kRounds
               : 0);
      for (std::size_t w = 0; w < round_load.counted.size(); ++w) {
        if (round_load.counted[w]) latency.Add(round_load.window_latency[w]);
      }
      Append(&load, std::move(round_load));
      bench.StopBackground();
      const std::vector<double> round_lags = bench.SnapshotLagsMs();
      lags.insert(lags.end(), round_lags.begin(), round_lags.end());
    }
    attempted += load.requests;
    failed += load.failed;
    report["query_qps"] = {CountedMedian(load.window_qps, load.counted),
                           "queries/s"};
    latency.Finish();
    report["request_p50_us"] = {latency.P50(), "us"};
    report["request_p99_us"] = {latency.P99(), "us"};
    report["latency_samples"] = {static_cast<double>(latency.samples()),
                                 "count"};
    const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
    report["steal_frac"] = {load.stolen_ticks /
                                (load.seconds * ticks_per_s *
                                 static_cast<double>(nproc)),
                            "ratio"};
    report["requests"] = {static_cast<double>(load.requests), "count"};
    report["measured_s"] = {load.seconds, "s"};
    if (live) {
      attempted += bench.subscribes();
      failed += bench.subscribe_failed();
      report["ingest_rows_per_s"] = {
          CountedMedian(load.window_rows_s, load.counted), "rows/s"};
      report["snapshot_lag_p50_ms"] = {perfbench::Percentile(lags, 0.50),
                                       "ms"};
      report["snapshot_lag_p90_ms"] = {perfbench::Percentile(lags, 0.90),
                                       "ms"};
      report["snapshot_lag_samples"] = {static_cast<double>(lags.size()),
                                        "count"};
      if (!perfbench::SupportsPercentile(lags.size(), 0.90)) {
        std::fprintf(stderr,
                     "perfbench: only %zu snapshot lags; p90 unsupported\n",
                     lags.size());
      }
    }
    if (!perfbench::SupportsPercentile(latency.samples(), 0.99)) {
      std::fprintf(stderr, "perfbench: only %llu requests; p99 unsupported\n",
                   static_cast<unsigned long long>(latency.samples()));
    }
  } else {
    if (!set_up()) return 2;
    prepare_reference();
    bench.StartBackground(true);
    const Bench::Counters before = bench.ReadCounters();
    // Untraced and traced segments alternate, so drift hits both alike.
    std::vector<LoadResult> segments;
    std::uint64_t requests = 0;
    for (int seg = 0; seg < 4; ++seg) {
      segments.push_back(bench.RunLoad(seconds * 0.15, seconds * 0.15, 0, 0,
                                       seg % 2 == 1 ? &recorders : nullptr));
      requests += segments.back().requests;
      attempted += segments.back().requests;
      failed += segments.back().failed;
    }
    const Bench::Counters after = bench.ReadCounters();
    bench.StopBackground();
    std::vector<double> window_rows_s, backlog;
    for (const LoadResult& s : segments) {
      window_rows_s.insert(window_rows_s.end(), s.window_rows_s.begin(),
                           s.window_rows_s.end());
      backlog.insert(backlog.end(), s.backlog_rows.begin(),
                     s.backlog_rows.end());
    }
    const double untraced = WindowMedian(segments, false);
    const double traced = WindowMedian(segments, true);
    report["trace.overhead_frac"] = {(untraced - traced) / untraced, "ratio"};

    const double hits = static_cast<double>(after.hits - before.hits);
    const double loads = static_cast<double>(after.loads - before.loads);
    const double evictions =
        static_cast<double>(after.evictions - before.evictions);
    const double per_1k = requests > 0 ? 1000.0 / static_cast<double>(requests)
                                       : 0.0;
    report["serve.pod.hit_ratio"] = {
        hits + loads > 0 ? hits / (hits + loads) : 1.0, "ratio"};
    report["serve.pod.loads_per_1k_requests"] = {loads * per_1k, "count/1k"};
    report["serve.pod.evictions_per_1k_requests"] = {evictions * per_1k,
                                                     "count/1k"};
    const double batches =
        static_cast<double>(after.batches - before.batches);
    report["serve.router.requests_per_batch"] = {
        batches > 0 ? static_cast<double>(after.coalesced_requests -
                                          before.coalesced_requests) /
                          batches
                    : 0.0,
        "ratio"};
    std::vector<double> lags = live ? bench.SnapshotLagsMs()
                                    : std::vector<double>{};
    if (live) {
      attempted += bench.subscribes();
      failed += bench.subscribe_failed();
    }
    report["ingest.push_wait_frac"] = {live ? bench.PushWaitFrac() : 0.0,
                                       "ratio"};
    report["ingest.ring_backlog_rows"] = {
        live ? perfbench::Median(backlog) : 0.0, "rows"};
    report["ingest.rows_per_s"] = {
        live ? perfbench::Median(window_rows_s) : 0.0, "rows/s"};
    report["ingest.snapshot_lag_p50_ms"] = {
        live ? perfbench::Percentile(lags, 0.50) : 0.0, "ms"};
    report["ingest.snapshot_lag_p90_ms"] = {
        live ? perfbench::Percentile(lags, 0.90) : 0.0, "ms"};

    perfbench::LadderResult ladder =
        bench.RunLadder(seconds * 0.4, &ladder_recorder);
    attempted += ladder.requests;
    failed += ladder.failed;
    report.insert(ladder.metrics.begin(), ladder.metrics.end());
  }
  report["setup_s"] = {
      perfbench::Median(perfbench::QuietHalf(setup_s, setup_steal)), "s"};
  report["setups"] = {static_cast<double>(setup_s.size()), "count"};
  report["peak_rss_mb"] = {PeakRssMb(), "MiB"};

  static const char* const kEndToEnd[] = {"setup_s", "query_qps",
                                          "request_p50_us", "request_p99_us",
                                          "peak_rss_mb"};
  static const char* const kPerLayer[] = {
      "core.support_counts_ns_per_query",
      "engine.self_ns_per_query",
      "serve.router.self_ns_per_request",
      "serve.router.requests_per_batch",
      "serve.protocol.ns_per_request",
      "serve.protocol.bytes_per_query",
      "serve.transport.self_ns_per_request",
      "serve.reactor.self_ns_per_request",
      "serve.pod.hit_ratio",
      "serve.pod.loads_per_1k_requests",
      "serve.pod.evictions_per_1k_requests",
      "serve.pod.acquire_us",
      "sketch.open_us",
      "sketch.observe_ns_per_row",
      "ingest.wal.append_ns_per_row",
      "ingest.wal.checkpoint_us",
      "ingest.publish_us",
      "ingest.push_wait_frac",
      "ingest.ring_backlog_rows",
      "ingest.rows_per_s",
      "ingest.snapshot_lag_p50_ms",
      "ingest.snapshot_lag_p90_ms",
      "trace.overhead_frac"};
  if (trace == 0) {
    for (const char* name : kEndToEnd) result[name] = report.at(name);
  } else {
    for (const char* name : kPerLayer) result[name] = report.at(name);
  }

  for (const auto& [name, m] : result) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", name.c_str());
      ++attempted;
      ++failed;
    }
  }
  report["failed_frac"] = {
      static_cast<double>(failed) / static_cast<double>(attempted), "ratio"};

  if (trace == 1 && !spans_path.empty()) {
    std::FILE* out = std::fopen(spans_path.c_str(), "w");
    bool ok = out != nullptr;
    for (std::size_t c = 0; ok && c < recorders.size(); ++c) {
      ok = recorders[c].AppendTsv(out, "conn" + std::to_string(c) + "\t");
    }
    ok = ok && ladder_recorder.AppendTsv(out, "ladder\t");
    if (out != nullptr) ok = std::fclose(out) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   spans_path.c_str());
    }
  }

  std::printf("{\"report\": %s}\n", JsonMetrics(report).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonMetrics(result).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
