// ifsketch_client: query a running ifsketch_server.
//
//   ifsketch_client --port P[,P2,...] [--retries N] [--timeout-ms MS]
//                   info  <name>
//   ifsketch_client --port P ... query <name> <attr> [attr...]
//   ifsketch_client --port P ... batch <name> [frames]  (queries on stdin)
//   ifsketch_client --port P ... refresh <name>
//   ifsketch_client --port P ... subscribe <name> <min_epoch> [timeout_ms]
//   ifsketch_client --port P ... health
//   ifsketch_client --port P ... stats
//
// --port takes a comma-separated endpoint list: the client connects to
// the first, and on a lost connection retries (up to --retries attempts
// total, jittered exponential backoff) rotating through the list -- so a
// killed server is survived as long as one listed replica still answers.
// --timeout-ms bounds each attempt's wait for a reply; an expired
// deadline counts as a lost connection and rotates/retries the same way.
// Request-level refusals (unknown sketch, bad query) never retry.
//
// `query` prints the same line ifsketch_cli prints for a direct local
// query of the same sketch file -- served answers are bit-identical to
// direct Engine queries, and the CI smoke test diffs the two outputs.
// `batch` reads one query per stdin line (ascending attribute indices,
// space-separated) and prints one estimate per line; the whole batch
// travels in a single request frame and is answered by one batched Engine
// call server-side. With the optional [frames] argument (> 1), the
// batch is instead PIPELINED: the queries split into up to that many
// request frames written back-to-back on one connection, and the
// replies -- which the server returns strictly in request order -- are
// concatenated. Output is bit-identical to the single-frame form; the
// CI reactor smoke diffs the two.
//
// `stats` pulls the server's full metrics registry over the STATS
// opcode and prints it in the Prometheus text exposition format
// (obs::MetricsSnapshot::RenderText) -- counters, gauges, and
// histograms with cumulative buckets plus derived p50/p90/p99 comment
// lines. The percentiles are computed client-side from the wire buckets
// by the same obs::HistogramSnapshot::Quantile the server uses, so both
// ends always agree.
//
// `refresh` reports the snapshot a stream sketch currently serves;
// `subscribe` blocks until the epoch exceeds min_epoch (default timeout
// 30 s) and exits 0 only when the advance was observed, so shell
// pipelines can wait for a publish: the CI ingest smoke does exactly
// that.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/itemset.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace ifsketch;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ifsketch_client --port P[,P2,...] [--retries N] "
               "[--timeout-ms MS] <command>\n"
               "commands:\n"
               "  info  <name>\n"
               "  query <name> <attr> [attr...]\n"
               "  batch <name> [frames]   (one query per stdin line; "
               "frames > 1 pipelines)\n"
               "  refresh <name>\n"
               "  subscribe <name> <min_epoch> [timeout_ms]\n"
               "  health\n"
               "  stats\n");
  return 2;
}

int ServerError(const serve::SketchClient& client) {
  std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
  // Mirror ifsketch_cli's exit-code split: unknown name / bad query are
  // caller mistakes (1); transport or server trouble is 4.
  switch (client.last_status()) {
    case serve::Status::kUnknownSketch:
    case serve::Status::kUnsupportedQuery:
    case serve::Status::kBadRequest:
      return 1;
    default:
      return 4;
  }
}

int Info(serve::SketchClient& client, const std::string& name) {
  const auto info = client.Info(name);
  if (!info.has_value()) return ServerError(client);
  std::printf("algorithm:  %s\n"
              "guarantee:  %s %s  (k=%u, eps=%g, delta=%g)\n"
              "database:   n=%llu rows, d=%llu attributes\n"
              "summary:    %llu bits\n",
              info->algorithm.c_str(),
              info->scope == 0 ? "FOR-ALL" : "FOR-EACH",
              info->answer == 0 ? "INDICATOR" : "ESTIMATOR", info->k,
              info->eps, info->delta,
              static_cast<unsigned long long>(info->n),
              static_cast<unsigned long long>(info->d),
              static_cast<unsigned long long>(info->summary_bits));
  return 0;
}

int Query(serve::SketchClient& client, const std::string& name,
          const std::vector<std::uint32_t>& attrs) {
  // Fetch the sketch's context first: the printed line needs d (for the
  // itemset rendering), eps/delta and the algorithm name.
  const auto info = client.Info(name);
  if (!info.has_value()) return ServerError(client);
  for (std::uint32_t a : attrs) {
    if (a >= info->d) {
      std::fprintf(stderr, "error: attribute %u out of range (d=%llu)\n",
                   a, static_cast<unsigned long long>(info->d));
      return 1;
    }
  }
  core::Itemset t(static_cast<std::size_t>(info->d));
  for (std::uint32_t a : attrs) t.Add(a);

  if (info->answer == 0) {
    const auto bits = client.AreFrequent(name, {attrs});
    if (!bits.has_value()) return ServerError(client);
    std::printf("f%s %s %g  (indicator sketch, prob %.2f, via %s)\n",
                t.ToString().c_str(), (*bits)[0] ? ">" : "<=", info->eps,
                1.0 - info->delta, info->algorithm.c_str());
    return 0;
  }
  const auto answers = client.EstimateMany(name, {attrs});
  if (!answers.has_value()) return ServerError(client);
  std::printf("f%s ~= %.5f  (+/- %.4f with prob %.2f, via %s)\n",
              t.ToString().c_str(), (*answers)[0], info->eps,
              1.0 - info->delta, info->algorithm.c_str());
  return 0;
}

int Refresh(serve::SketchClient& client, const std::string& name) {
  const auto state = client.Refresh(name);
  if (!state.has_value()) return ServerError(client);
  std::printf("epoch %llu  rows_seen %llu\n",
              static_cast<unsigned long long>(state->epoch),
              static_cast<unsigned long long>(state->rows_seen));
  return 0;
}

int Subscribe(serve::SketchClient& client, const std::string& name,
              std::uint64_t min_epoch, std::uint32_t timeout_ms) {
  const auto state = client.Subscribe(name, min_epoch, timeout_ms);
  if (!state.has_value()) return ServerError(client);
  std::printf("epoch %llu  rows_seen %llu\n",
              static_cast<unsigned long long>(state->epoch),
              static_cast<unsigned long long>(state->rows_seen));
  if (state->epoch <= min_epoch) {
    std::fprintf(stderr, "error: timed out waiting for epoch > %llu\n",
                 static_cast<unsigned long long>(min_epoch));
    return 1;
  }
  return 0;
}

int Health(serve::SketchClient& client) {
  const auto pods = client.Health();
  if (!pods.has_value()) return ServerError(client);
  static const char* const kNames[] = {"healthy", "suspect", "down"};
  for (std::size_t i = 0; i < pods->size(); ++i) {
    const serve::PodHealthInfo& pod = (*pods)[i];
    std::printf("pod %zu: %s failures=%u inflight=%llu resident=%lluB\n",
                i, pod.health <= 2 ? kNames[pod.health] : "?",
                pod.consecutive_failures,
                static_cast<unsigned long long>(pod.inflight),
                static_cast<unsigned long long>(pod.resident_bytes));
  }
  return 0;
}

int Stats(serve::SketchClient& client) {
  const auto stats = client.Stats();
  if (!stats.has_value()) return ServerError(client);
  // Rebuild a MetricsSnapshot from the wire structs and render with the
  // shared exposition code -- identical output to a server-side dump.
  obs::MetricsSnapshot snap;
  for (const serve::StatsCounter& c : stats->counters) {
    snap.counters.emplace_back(c.name, c.value);
  }
  for (const serve::StatsGauge& g : stats->gauges) {
    snap.gauges.emplace_back(g.name, g.value);
  }
  for (const serve::StatsHistogram& h : stats->histograms) {
    obs::HistogramSnapshot hist;
    hist.count = h.count;
    hist.sum = h.sum;
    hist.max = h.max;
    hist.buckets = h.buckets;
    snap.histograms.emplace_back(h.name, std::move(hist));
  }
  std::fputs(snap.RenderText().c_str(), stdout);
  return 0;
}

int Batch(serve::SketchClient& client, const std::string& name,
          std::size_t frames) {
  std::vector<std::vector<std::uint32_t>> queries;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::vector<std::uint32_t> attrs;
    const char* p = line.c_str();
    char* end = nullptr;
    for (;;) {
      const unsigned long v = std::strtoul(p, &end, 10);
      if (end == p) break;
      attrs.push_back(static_cast<std::uint32_t>(v));
      p = end;
    }
    if (!attrs.empty()) queries.push_back(std::move(attrs));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "error: no queries on stdin\n");
    return 1;
  }
  const auto answers = frames > 1
                           ? client.EstimateManyPipelined(name, queries, frames)
                           : client.EstimateMany(name, queries);
  if (!answers.has_value()) return ServerError(client);
  for (double a : *answers) std::printf("%.17g\n", a);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::uint16_t> ports;
  unsigned long retries = 3;
  unsigned long timeout_ms = 0;
  for (std::size_t i = 0; i + 1 < args.size();) {
    if (args[i] == "--port") {
      // Comma-separated endpoint list; each entry is a loopback port.
      const std::string spec = args[i + 1];
      std::size_t pos = 0;
      while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string piece = spec.substr(pos, comma - pos);
        char* end = nullptr;
        const unsigned long v = std::strtoul(piece.c_str(), &end, 10);
        if (piece.empty() || end == nullptr || *end != '\0' || v == 0 ||
            v > 65535) {
          return Usage();
        }
        ports.push_back(static_cast<std::uint16_t>(v));
        pos = comma + 1;
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--retries") {
      char* end = nullptr;
      retries = std::strtoul(args[i + 1].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || retries == 0 ||
          retries > 100) {
        return Usage();
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--timeout-ms") {
      char* end = nullptr;
      timeout_ms = std::strtoul(args[i + 1].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || timeout_ms == 0 ||
          timeout_ms > 3600000) {
        return Usage();
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  if (ports.empty() || args.empty()) return Usage();

  // The factory rotates through the endpoint list: attempt 1 uses the
  // first port, each reconnect moves to the next, wrapping around.
  serve::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(retries);
  policy.attempt_timeout = std::chrono::milliseconds(timeout_ms);
  serve::SketchClient client(
      [ports, next = std::size_t{0}]() mutable {
        return serve::TcpConnect(ports[next++ % ports.size()]);
      },
      policy);

  const std::string& cmd = args[0];
  if (cmd == "health" && args.size() == 1) return Health(client);
  if (cmd == "stats" && args.size() == 1) return Stats(client);
  if (args.size() < 2) return Usage();
  const std::string& name = args[1];
  if (cmd == "info" && args.size() == 2) return Info(client, name);
  if (cmd == "query" && args.size() >= 3) {
    std::vector<std::uint32_t> attrs;
    for (std::size_t i = 2; i < args.size(); ++i) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(args[i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return Usage();
      attrs.push_back(static_cast<std::uint32_t>(v));
    }
    return Query(client, name, attrs);
  }
  if (cmd == "batch" && (args.size() == 2 || args.size() == 3)) {
    std::size_t frames = 1;
    if (args.size() == 3) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(args[2].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v == 0 || v > 4096) {
        return Usage();
      }
      frames = static_cast<std::size_t>(v);
    }
    return Batch(client, name, frames);
  }
  if (cmd == "refresh" && args.size() == 2) return Refresh(client, name);
  if (cmd == "subscribe" && (args.size() == 3 || args.size() == 4)) {
    char* end = nullptr;
    const unsigned long long epoch = std::strtoull(args[2].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return Usage();
    unsigned long timeout_ms = 30000;
    if (args.size() == 4) {
      timeout_ms = std::strtoul(args[3].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' ||
          timeout_ms > serve::kMaxSubscribeTimeoutMs) {
        return Usage();
      }
    }
    return Subscribe(client, name, static_cast<std::uint64_t>(epoch),
                     static_cast<std::uint32_t>(timeout_ms));
  }
  return Usage();
}
