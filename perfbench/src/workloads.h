// The four benchmark workloads over the real serving and ingest stacks.
//
// One Bench instance drives one workload in-process: it generates the
// data from the workload seed, builds and saves the sketches (or starts
// the live ingest pipeline), serves them through serve::ReactorServer on
// 127.0.0.1, and loads the server from closed-loop serve::SketchClient
// connections -- each waits for its reply before sending again, so the
// connection count (never more than nproc) sets the load. Every served
// answer is checked against a direct Engine answer.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "engine.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/pod.h"
#include "serve/reactor.h"
#include "serve/router.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// What one workload serves and sends.
struct Config {
  std::size_t rows = 0;            ///< database rows (ingest: row pool)
  std::size_t d = 64;              ///< attributes
  double eps = 0.05;               ///< sketch precision
  std::size_t files = 0;           ///< sketch files served (0 = live stream)
  bool checksum = false;           ///< CRC32C trailer on the saved files
  std::size_t budget_files = 0;    ///< pod budget in files (0 = unlimited)
  std::size_t connections = 1;     ///< closed-loop query connections
  std::size_t batch_queries = 16;  ///< queries per request
  std::size_t batch_pool = 64;     ///< distinct batches cycled through
  bool mix_are_frequent = false;   ///< ESTIMATE:ARE_FREQUENT 3:1
  bool zipf_names = false;         ///< sketch names drawn Zipf(1)
  std::size_t rows_per_snapshot = 2000;  ///< live stream only
  std::size_t ladder_requests = 64;      ///< requests per rung per round
};

/// The named workload's configuration for a host with `nproc` CPUs;
/// false for an unknown name.
bool LookupConfig(const std::string& workload, std::size_t nproc,
                  Config* config);

/// The parameters every sketch of the workload is built with.
ifsketch::core::SketchParams ParamsFor(const Config& config);

/// Bit-for-bit equality of two answer vectors.
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b);

/// A measured value and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

enum class Op : std::uint8_t { kEstimate, kAreFrequent };

struct Batch {
  std::vector<std::vector<std::uint32_t>> wire;  ///< what the client sends
  std::vector<ifsketch::core::Itemset> itemsets; ///< the same, for Engine
};

/// One request of a connection's stream.
struct Request {
  std::uint32_t name = 0;
  std::uint32_t batch = 0;
  Op op = Op::kEstimate;
};

/// CPU time the hypervisor stole from this machine so far, in clock
/// ticks summed over CPUs (the steal column of /proc/stat; 0 where the
/// kernel does not report it).
double StolenTicks();

/// Outcome of one closed-loop measurement segment, window by window. Each
/// window carries the CPU time stolen from the machine during it, and
/// `counted` marks the least-stolen windows (LeastStolen) that the
/// reported figures come from.
struct LoadResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  double stolen_ticks = 0.0;
  /// Request round trips per window (sized for the longest run; entries
  /// past window_steal.size() stay empty).
  std::vector<LatencyHistogram> window_latency;
  std::vector<double> window_qps;      ///< answers/s per window
  std::vector<double> window_rows_s;   ///< ingested rows/s per window
  std::vector<double> window_steal;    ///< stolen ticks per window
  std::vector<double> window_seconds;  ///< length of each window
  std::vector<bool> counted;           ///< windows the figures come from
  std::vector<double> backlog_rows;    ///< pushed - ingested, per window
};

/// Per-layer numbers from the traced run's ladder (see ladder.cc).
struct LadderResult {
  Metrics metrics;
  std::uint64_t requests = 0;  ///< ladder calls that were answer-checked
  std::uint64_t failed = 0;
};

class Bench {
 public:
  Bench(Config config, std::uint64_t seed, std::string tmp_dir);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// One full set-up: data generation, sketch build + save (or ingest
  /// start + first snapshot), pod/router, server start, connect, and a
  /// warm-up. Everything a user of the system pays before the first
  /// measured request. `round` keeps each set-up's files apart.
  bool Setup(int round, std::string* error);

  /// Stops everything Setup started and deletes its files.
  void Teardown();

  /// After a Setup that will be measured: reference answers for every
  /// (name, batch) from direct Engine calls, and for the live stream the
  /// check that the first snapshot equals Engine::Build over its row
  /// prefix. Not part of the set-up time.
  bool PrepareReference(std::string* error);

  /// Live stream only: starts / stops the full-speed producer and the
  /// SUBSCRIBE connection. `time_push` also accumulates time blocked in
  /// Push (traced runs only).
  void StartBackground(bool time_push);
  void StopBackground();

  /// Runs the query connections closed-loop until the windows in which
  /// the hypervisor stole at most 1% of the CPU time last `seconds` and
  /// hold `min_requests` requests, and (live stream) the subscriber saw
  /// `min_snapshots` new snapshots -- or until `cap_seconds` have passed.
  /// With `recorders`, each connection records one span per request into
  /// its own recorder.
  LoadResult RunLoad(double seconds, double cap_seconds,
                     std::uint64_t min_requests, std::uint64_t min_snapshots,
                     std::vector<SpanRecorder>* recorders = nullptr);

  /// Traced layer ladder; see ladder.cc.
  LadderResult RunLadder(double seconds, SpanRecorder* recorder);

  /// Snapshot lags joined from producer and subscriber marks (ms).
  std::vector<double> SnapshotLagsMs() const;

  /// Fraction of producer wall time spent inside Push (traced runs).
  double PushWaitFrac() const;

  /// SUBSCRIBE calls made / failed by the live stream's subscriber.
  std::uint64_t subscribes() const { return subscribes_.load(); }
  std::uint64_t subscribe_failed() const { return subscribe_failed_.load(); }

  /// Pod and coalescing counters, for before/after deltas.
  struct Counters {
    std::uint64_t hits = 0, loads = 0, evictions = 0;
    std::uint64_t batches = 0, coalesced_requests = 0;
  };
  Counters ReadCounters() const;

 private:
  bool SetupFiles(int round, std::string* error);
  bool SetupStream(int round, std::string* error);
  bool Connect(std::string* error);
  bool WarmUp(std::string* error);
  void MakeStreams();
  /// Checks one served reply; `lo`/`hi` bound the live snapshot rows.
  bool Verify(const Request& r, const std::vector<double>* estimates,
              const std::vector<bool>* bits, std::uint64_t lo,
              std::uint64_t hi);
  void Producer(bool time_push);
  void Subscriber();

  Config config_;
  std::uint64_t seed_;
  std::string tmp_dir_;

  // Inputs, regenerated by every Setup from the seed.
  ifsketch::core::Database db_;
  std::vector<std::string> names_;
  std::vector<std::string> paths_;
  std::vector<Batch> batches_;
  std::vector<std::vector<Request>> streams_;  // one per connection
  std::vector<std::uint64_t> positions_;       // next request id, per conn

  // Reference answers [name][batch] from direct Engine calls.
  std::vector<std::shared_ptr<const ifsketch::Engine>> reference_;
  std::vector<std::vector<std::vector<double>>> expected_;
  std::vector<std::vector<std::vector<bool>>> expected_bits_;

  // The served stack. Declaration order is teardown order reversed.
  std::unique_ptr<ifsketch::obs::MetricsRegistry> registry_;
  std::shared_ptr<ifsketch::serve::SketchPod> pod_;
  std::unique_ptr<ifsketch::serve::Router> router_;
  std::unique_ptr<ifsketch::serve::ReactorServer> server_;
  std::vector<std::unique_ptr<ifsketch::serve::SketchClient>> clients_;

  // Live stream: snapshots the query check may still need, by rows.
  std::mutex book_mu_;
  std::map<std::uint64_t, std::shared_ptr<const ifsketch::Engine>> book_;
  std::uint64_t book_keep_from_ = 0;
  std::shared_ptr<const ifsketch::Engine> first_snapshot_;
  std::unique_ptr<ifsketch::serve::SketchClient> subscriber_;
  std::unique_ptr<ifsketch::ingest::IngestService> service_;
  std::size_t next_row_ = 0;  // producer's position in the row pool

  std::atomic<bool> background_stop_{false};
  std::atomic<std::uint64_t> rows_pushed_{0};
  std::atomic<std::uint64_t> subscribes_{0};
  std::atomic<std::uint64_t> subscribe_failed_{0};
  std::atomic<std::uint64_t> snapshots_seen_{0};
  std::vector<Mark> push_marks_;       // producer thread only while running
  std::vector<Mark> reply_marks_;      // subscriber thread only
  std::int64_t push_wait_ns_ = 0;      // producer thread only
  std::int64_t producer_wall_ns_ = 0;  // producer thread only
  std::thread producer_;
  std::thread subscriber_thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
