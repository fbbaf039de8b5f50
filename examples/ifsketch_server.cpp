// ifsketch_server: serve IFSK sketch files over loopback TCP.
//
//   ifsketch_server --sketch NAME=PATH [--sketch NAME=PATH ...]
//                   [--port P] [--pods N] [--budget BYTES]
//                   [--threads T] [--loop-threads L] [--max-conns C]
//                   [--stats-every SECS]
//                   [--ingest NAME [--ingest-file PATH] [--ingest-algo A]
//                    [--ingest-every N] [--ingest-save PATH]
//                    [--ingest-k K] [--ingest-eps E]
//                    [--wal-dir DIR] [--wal-sync POLICY] [--wal-every N]]
//
// Registers each NAME=PATH on its owning pod (serve/router.h places
// every name on one of the N pods by rendezvous hashing), listens
// on 127.0.0.1:P (0 = ephemeral), and serves the wire protocol
// (serve/protocol.h) through the epoll reactor (serve/reactor.h):
// --loop-threads event loops multiplex every connection, clients may
// pipeline many request frames per connection (replies come back in
// request order), and each loop answers the requests it reads itself,
// fanning kernels out over the query thread pool; only subscribe
// long-polls wait on a separate dispatch pool. A heavy request thus
// delays the other connections on its loop, never those on other
// loops (one loop per core by default). Concurrent requests for the same
// sketch run side by side on one engine. Sketch files load on first use
// and stay resident under the per-pod byte budget (LRU eviction,
// frequency-gated admission; see serve/pod.h).
// Failover is between server processes: run several and give the
// client their ports (ifsketch_client --port P1,P2,...).
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// in-flight connections drain, the --ingest-save snapshot (if any) is
// written, and the per-sketch stats dump before a clean exit 0. A second
// signal force-quits immediately with exit 130. (When --ingest reads
// stdin and the pipe never closes, the feeder keeps the process alive
// until EOF or a second signal.)
//
// --ingest NAME additionally serves a live stream sketch: transaction
// rows (the data/io.h text format: first line d, then one row of
// space-separated attribute indices per line) are read from
// --ingest-file (default stdin) and fed through the ingest subsystem
// (src/ingest/), which publishes a snapshot to the pod every
// --ingest-every rows plus a final one at EOF; clients follow along
// with the refresh/subscribe opcodes. --ingest-save writes the last
// published snapshot to an IFSK file at exit (atomic replace + CRC32C
// integrity trailer) so scripts can diff served answers against
// ifsketch_cli on the same snapshot.
//
// --wal-dir DIR makes the ingest durable (PR 10): every row is logged
// write-ahead to DIR and the builder state is checkpointed at each
// snapshot, so a server killed at any point and restarted on the same
// DIR recovers a prefix of the stream and serves it bit-identically to
// a run that never crashed (feed the restart a stream holding just the
// width header to serve the recovered state without new rows).
// --wal-sync bounds what a power loss can cost: every_record /
// every_n (with --wal-every) / on_snapshot (default; a plain kill -9
// still only loses the in-process append buffer).
//
// Observability (PR 8): every request/stage/pod/ingest metric lands in
// the process-wide obs::MetricsRegistry (see src/obs/metrics.h for the
// full reference table). --stats-every SECS dumps the registry to
// stderr every SECS seconds, one line per metric (RenderLines format),
// and SIGUSR1 triggers the same dump on demand at any time. Clients can
// instead pull the registry over the wire with the STATS opcode
// (`ifsketch_client stats`).
//
// Prints exactly one "listening on <port>" line to stdout once the
// socket is bound, so scripts (CI smoke) can scrape the ephemeral port.
// --max-conns C caps CONCURRENT connections: accepts past the cap are
// refused at accept time (counted in serve_conns_rejected_total) and
// the slot frees when a connection closes; the default is uncapped.
// The process serves until signalled. Answers are bit-identical to
// querying the same files locally with ifsketch_cli.

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "serve/pod.h"
#include "serve/reactor.h"
#include "serve/router.h"
#include "serve/server.h"
#include "util/thread_pool.h"

namespace {

using namespace ifsketch;

int Usage() {
  std::fprintf(
      stderr,
      "usage: ifsketch_server --sketch NAME=PATH [--sketch NAME=PATH ...]\n"
      "                       [--port P] [--pods N] [--budget BYTES]\n"
      "                       [--threads T] "
      "[--loop-threads L] [--max-conns C]\n"
      "\n"
      "  --sketch NAME=PATH  register an IFSK file under NAME "
      "(repeatable)\n"
      "  --port P            TCP port on 127.0.0.1 (default 0 = "
      "ephemeral)\n"
      "  --pods N            shard count (default 1)\n"
      "  --budget BYTES      per-pod resident byte budget (default "
      "unlimited)\n"
      "  --threads T         query thread-pool size (default: "
      "IFSKETCH_THREADS, else all cores)\n"
      "  --loop-threads L    epoll event-loop threads (default: all "
      "cores)\n"
      "  --max-conns C       concurrent connection cap; accepts past it "
      "are refused (default: uncapped)\n"
      "  --stats-every SECS  dump all metrics to stderr every SECS "
      "seconds (SIGUSR1 dumps on demand)\n"
      "  --ingest NAME       serve a live stream sketch under NAME\n"
      "  --ingest-file PATH  transaction stream (default: stdin)\n"
      "  --ingest-algo A     streaming algorithm (default: "
      "STREAM-SUBSAMPLE)\n"
      "  --ingest-every N    rows per published snapshot (default: "
      "10000)\n"
      "  --ingest-save PATH  write the last snapshot as IFSK at exit\n"
      "  --ingest-k K        query cardinality parameter (default: 2)\n"
      "  --ingest-eps E      precision parameter (default: 0.05)\n"
      "  --wal-dir DIR       write-ahead log directory for --ingest; a\n"
      "                      restart on the same DIR recovers the stream\n"
      "                      prefix and serves it bit-identically\n"
      "  --wal-sync POLICY   every_record | every_n | on_snapshot "
      "(default: on_snapshot)\n"
      "  --wal-every N       appends per fsync under every_n "
      "(default: 64)\n");
  return 2;
}

bool ParseEps(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || !(v > 0.0) || !(v <= 1.0)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseSize(const std::string& s, std::size_t* out) {
  // strtoull silently wraps negatives ("-1" -> ULLONG_MAX, which would
  // alias kUnlimited); only plain digits are a size.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// One-line-per-metric registry dump to stderr, fenced so interleaved
/// log lines cannot be mistaken for metrics by scripts.
void DumpMetrics(const char* why) {
  const std::string lines = obs::MetricsRegistry::Default().RenderLines();
  std::fprintf(stderr, "--- metrics (%s) ---\n%s--- end metrics ---\n", why,
               lines.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> sketches;
  std::size_t port = 0;
  std::size_t pods = 1;
  std::size_t budget = serve::SketchPod::kUnlimited;
  std::size_t max_conns = 0;     // concurrent cap; 0 = unlimited
  std::size_t loop_threads = 0;  // 0 = all cores
  std::size_t stats_every = 0;   // seconds; 0 = no periodic dump
  std::string ingest_name;
  std::string ingest_file;  // empty or "-" = stdin
  std::string ingest_algo = "STREAM-SUBSAMPLE";
  std::string ingest_save;
  std::size_t ingest_every = 10000;
  std::size_t ingest_k = 2;
  double ingest_eps = 0.05;
  std::string wal_dir;
  ingest::WalSyncPolicy wal_sync = ingest::WalSyncPolicy::kOnSnapshot;
  std::size_t wal_every = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sketch" && has_value) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "error: --sketch needs NAME=PATH (got %s)\n",
                     spec.c_str());
        return 2;
      }
      sketches.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--port" && has_value) {
      if (!ParseSize(argv[++i], &port) || port > 65535) return Usage();
    } else if (arg == "--pods" && has_value) {
      if (!ParseSize(argv[++i], &pods) || pods == 0 || pods > 1024) {
        return Usage();
      }
    } else if (arg == "--budget" && has_value) {
      if (!ParseSize(argv[++i], &budget) || budget == 0) return Usage();
    } else if (arg == "--threads" && has_value) {
      std::size_t threads = 0;
      if (!ParseSize(argv[++i], &threads) || threads == 0 ||
          threads > 4096) {
        return Usage();
      }
      util::ThreadPool::SetDefaultThreadCount(threads);
    } else if (arg == "--loop-threads" && has_value) {
      if (!ParseSize(argv[++i], &loop_threads) || loop_threads == 0 ||
          loop_threads > 1024) {
        return Usage();
      }
    } else if (arg == "--max-conns" && has_value) {
      if (!ParseSize(argv[++i], &max_conns) || max_conns == 0) {
        return Usage();
      }
    } else if (arg == "--stats-every" && has_value) {
      if (!ParseSize(argv[++i], &stats_every) || stats_every == 0) {
        return Usage();
      }
    } else if (arg == "--ingest" && has_value) {
      ingest_name = argv[++i];
      if (ingest_name.empty()) return Usage();
    } else if (arg == "--ingest-file" && has_value) {
      ingest_file = argv[++i];
    } else if (arg == "--ingest-algo" && has_value) {
      ingest_algo = argv[++i];
    } else if (arg == "--ingest-every" && has_value) {
      if (!ParseSize(argv[++i], &ingest_every) || ingest_every == 0) {
        return Usage();
      }
    } else if (arg == "--ingest-save" && has_value) {
      ingest_save = argv[++i];
    } else if (arg == "--ingest-k" && has_value) {
      if (!ParseSize(argv[++i], &ingest_k) || ingest_k == 0) return Usage();
    } else if (arg == "--ingest-eps" && has_value) {
      if (!ParseEps(argv[++i], &ingest_eps)) return Usage();
    } else if (arg == "--wal-dir" && has_value) {
      wal_dir = argv[++i];
      if (wal_dir.empty()) return Usage();
    } else if (arg == "--wal-sync" && has_value) {
      if (!ingest::ParseWalSyncPolicy(argv[++i], &wal_sync)) return Usage();
    } else if (arg == "--wal-every" && has_value) {
      if (!ParseSize(argv[++i], &wal_every) || wal_every == 0) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (sketches.empty() && ingest_name.empty()) return Usage();
  if (!wal_dir.empty() && ingest_name.empty()) {
    std::fprintf(stderr, "error: --wal-dir requires --ingest\n");
    return 2;
  }

  // Take SIGINT/SIGTERM out of every thread's delivery set before any
  // thread exists; a dedicated sigwait thread (below) is then the only
  // place signals are ever handled, so the handler logic runs in a
  // normal thread context instead of an async-signal one.
  // SIGUSR1 rides along in the same set: the sigwait thread answers it
  // with a metrics dump instead of a shutdown.
  sigset_t sigset;
  sigemptyset(&sigset);
  sigaddset(&sigset, SIGINT);
  sigaddset(&sigset, SIGTERM);
  sigaddset(&sigset, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &sigset, nullptr);

  std::vector<std::shared_ptr<serve::SketchPod>> pod_vec;
  pod_vec.reserve(pods);
  for (std::size_t i = 0; i < pods; ++i) {
    pod_vec.push_back(std::make_shared<serve::SketchPod>(budget));
  }
  serve::Router router(std::move(pod_vec));
  // Validate EVERY registration before binding the port: an operator
  // restarting a server with a long --sketch roster learns about all the
  // bad entries (duplicate names, unopenable or corrupt files) in one
  // pass, instead of one failure per restart.
  std::size_t bad_registrations = 0;
  for (const auto& [name, path] : sketches) {
    if (!router.AddSketch(name, path)) {
      std::fprintf(stderr, "error: --sketch %s=%s: duplicate sketch name\n",
                   name.c_str(), path.c_str());
      ++bad_registrations;
      continue;
    }
    // Load eagerly so a bad path fails at startup, not at first query.
    if (router.Acquire(name) == nullptr) {
      std::string detail;
      (void)Engine::Open(path, &detail);  // re-open solely for the reason
      std::fprintf(stderr, "error: --sketch %s=%s: %s\n", name.c_str(),
                   path.c_str(), detail.c_str());
      ++bad_registrations;
      continue;
    }
    std::fprintf(stderr, "serving \"%s\" from %s on shard %zu\n",
                 name.c_str(), path.c_str(), router.ShardOf(name));
  }
  if (!ingest_name.empty()) {
    if (!router.AddStream(ingest_name)) {
      std::fprintf(stderr, "error: --ingest %s: duplicate sketch name\n",
                   ingest_name.c_str());
      ++bad_registrations;
    } else {
      std::fprintf(stderr, "ingesting \"%s\" (%s) on shard %zu\n",
                   ingest_name.c_str(), ingest_algo.c_str(),
                   router.ShardOf(ingest_name));
    }
  }
  if (bad_registrations > 0) {
    std::fprintf(stderr, "error: %zu invalid sketch registration%s\n",
                 bad_registrations, bad_registrations == 1 ? "" : "s");
    return 1;
  }

  serve::ReactorOptions reactor_options;
  reactor_options.loop_threads = loop_threads;
  reactor_options.max_connections = max_conns;
  serve::ReactorServer reactor(router, reactor_options);
  if (!reactor.Listen(static_cast<std::uint16_t>(port))) {
    std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%zu\n", port);
    return 1;
  }
  std::printf("listening on %u\n", reactor.port());
  std::fflush(stdout);

  // Graceful shutdown: the sigwait thread turns the first SIGINT/SIGTERM
  // into "stop accepting" (reactor.StopAccepting() refuses new
  // connections, the WaitDrained below returns once the open ones
  // finish) and a second signal into an immediate _exit(130) for wedged
  // drains.
  std::atomic<bool> exiting{false};
  std::atomic<bool> stopping{false};
  std::thread sig_thread([&] {
    int sig = 0;
    while (sigwait(&sigset, &sig) == 0) {
      if (exiting.load()) return;  // end-of-main wakeup, not a request
      if (sig == SIGUSR1) {
        DumpMetrics("SIGUSR1");
        continue;
      }
      if (stopping.exchange(true)) _exit(130);  // second signal
      std::fprintf(stderr,
                   "caught signal %d: draining (signal again to force "
                   "quit)\n",
                   sig);
      reactor.StopAccepting();
    }
  });

  // Periodic metrics dump: a plain timer thread on a condition variable
  // so shutdown can wake it immediately instead of waiting out the last
  // interval.
  std::mutex stats_mu;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::thread stats_thread;
  if (stats_every > 0) {
    stats_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(stats_mu);
      while (!stats_cv.wait_for(lock, std::chrono::seconds(stats_every),
                                [&] { return stats_stop; })) {
        lock.unlock();
        DumpMetrics("periodic");
        lock.lock();
      }
    });
  }

  // The feeder thread owns the whole ingest pipeline: it reads the
  // stream header (d), creates the IngestService, pushes every row and
  // drains at EOF. Snapshots land in the router via Publish (waking
  // subscribers) and the latest one is kept for --ingest-save. Started
  // after the listening line so scripts can already scrape the port
  // while the stream is arriving.
  std::mutex snapshot_mu;
  std::shared_ptr<const Engine> last_snapshot;
  std::thread feeder;
  if (!ingest_name.empty()) {
    feeder = std::thread([&] {
      std::ifstream stream_file;
      std::istream* in = &std::cin;
      if (!ingest_file.empty() && ingest_file != "-") {
        stream_file.open(ingest_file);
        if (!stream_file) {
          std::fprintf(stderr, "error: cannot open ingest stream %s\n",
                       ingest_file.c_str());
          return;
        }
        in = &stream_file;
      }
      std::string line;
      long long dv = -1;
      if (!std::getline(*in, line) ||
          !(std::istringstream(line) >> dv) || dv <= 0) {
        std::fprintf(stderr, "error: ingest stream has no width header\n");
        return;
      }
      const std::size_t d = static_cast<std::size_t>(dv);

      ingest::IngestOptions options;
      options.algorithm = ingest_algo;
      options.d = d;
      options.rows_per_snapshot = ingest_every;
      options.params.k = ingest_k;
      options.params.eps = ingest_eps;
      options.params.delta = 0.05;
      options.params.scope = core::Scope::kForAll;
      options.params.answer = core::Answer::kEstimator;
      options.wal_dir = wal_dir;
      options.wal_sync = wal_sync;
      options.wal_sync_every = wal_every;
      std::string error;
      auto service = ingest::IngestService::Create(
          options,
          [&](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
            {
              std::lock_guard<std::mutex> lock(snapshot_mu);
              last_snapshot = engine;
            }
            const std::uint64_t epoch =
                router.Publish(ingest_name, std::move(engine), rows);
            std::fprintf(stderr, "published \"%s\" epoch %llu (%llu rows)\n",
                         ingest_name.c_str(),
                         static_cast<unsigned long long>(epoch),
                         static_cast<unsigned long long>(rows));
          },
          &error);
      if (service == nullptr) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return;
      }
      if (!wal_dir.empty()) {
        const ingest::WalRecovery& rec = service->recovery();
        std::fprintf(
            stderr,
            "recovered \"%s\" from %s: %llu rows (checkpoint %llu, "
            "replayed %llu, truncated %llu bytes)\n",
            ingest_name.c_str(), wal_dir.c_str(),
            static_cast<unsigned long long>(rec.rows),
            static_cast<unsigned long long>(rec.checkpoint_rows),
            static_cast<unsigned long long>(rec.replayed_rows),
            static_cast<unsigned long long>(rec.truncated_bytes));
      }
      while (std::getline(*in, line)) {
        util::BitVector row(d);
        std::istringstream ls(line);
        long long a = 0;
        bool ok = true;
        while (ls >> a) {
          if (a < 0 || static_cast<std::size_t>(a) >= d) {
            ok = false;
            break;
          }
          row.Set(static_cast<std::size_t>(a), true);
        }
        // Same garbage rule as data::ReadTransactions: a clean line ends
        // in extraction-failure-at-eof.
        if (!ok || !ls.eof()) {
          std::fprintf(stderr, "warning: skipping malformed ingest row\n");
          continue;
        }
        service->Push(std::move(row));
      }
      service->Finish();
      std::fprintf(stderr, "ingest done: %llu rows, %llu snapshots\n",
                   static_cast<unsigned long long>(service->rows_ingested()),
                   static_cast<unsigned long long>(
                       service->snapshots_published()));
    });
  }

  // The reactor's loop threads serve every connection from here on;
  // main just waits for the shutdown sequence (StopAccepting from the
  // sigwait thread, then the open connections closing). The wait keeps
  // `router` (and this frame) alive until the last connection drains.
  reactor.WaitDrained();
  if (feeder.joinable()) feeder.join();

  if (stats_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats_stop = true;
    }
    stats_cv.notify_all();
    stats_thread.join();
  }

  // Retire the signal thread: mark the run as over, then poke it out of
  // sigwait with one of the signals it is already watching.
  exiting.store(true);
  pthread_kill(sig_thread.native_handle(), SIGTERM);
  sig_thread.join();

  if (!ingest_save.empty()) {
    std::lock_guard<std::mutex> lock(snapshot_mu);
    if (last_snapshot == nullptr) {
      std::fprintf(stderr, "error: no snapshot was published to save\n");
      return 1;
    }
    // Durable copy: atomic replace plus the CRC32C integrity trailer, so
    // a later serve of this file can detect bit rot.
    std::string save_error;
    if (!last_snapshot->Save(ingest_save, &save_error,
                             sketch::SketchChecksum::kCrc32c)) {
      std::fprintf(stderr, "error: cannot write %s: %s\n",
                   ingest_save.c_str(), save_error.c_str());
      return 1;
    }
    std::fprintf(stderr, "saved last snapshot to %s\n", ingest_save.c_str());
  }

  if (stats_every > 0) DumpMetrics("exit");
  for (const auto& pod : router.pods()) {
    for (const auto& s : pod->stats()) {
      std::fprintf(stderr,
                   "stats %s: hits=%llu loads=%llu bypasses=%llu "
                   "duplicate_loads=%llu evictions=%llu queries=%llu "
                   "publishes=%llu resident=%zuB\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.hits),
                   static_cast<unsigned long long>(s.loads),
                   static_cast<unsigned long long>(s.bypasses),
                   static_cast<unsigned long long>(s.duplicate_loads),
                   static_cast<unsigned long long>(s.evictions),
                   static_cast<unsigned long long>(s.queries),
                   static_cast<unsigned long long>(s.publishes),
                   s.resident_bytes);
    }
  }
  return 0;
}
