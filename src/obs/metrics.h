// Process-wide metrics: sharded counters, gauges, log-bucketed
// histograms, and the registry that names them (PR 8).
//
// Design constraints, in order:
//
//   1. Recording must never block and must cost single-digit
//      nanoseconds: every hot-path mutation is one or two relaxed
//      atomic RMWs on pre-resolved pointers. Counters shard across
//      cache-line-padded cells indexed by a per-thread shard id so
//      concurrent writers do not bounce one line; histograms bucket by
//      a branch-free log-linear index (exact below 8, ~12.5% relative
//      error above) so Record is an add on one of 252 slots.
//   2. Snapshots are mergeable: a HistogramSnapshot is the full bucket
//      vector plus count/sum/max, Merge is element-wise addition, and
//      p50/p90/p99 are derived from bucket bounds by the one shared
//      Quantile routine -- the server, the STATS client, and the
//      benches all report percentiles through this same function, so
//      they can never disagree on the math.
//   3. Registration is cold-path only: GetCounter/GetGauge/GetHistogram
//      take a mutex and return stable pointers (node-based map, never
//      invalidated); callers resolve once at setup and hold the
//      pointer. Reads (Snapshot/RenderText) take the same mutex only to
//      walk the name index; the values themselves are racy-relaxed by
//      design and each metric is monotone, so a snapshot taken during
//      recording is a valid "some point in the recent past" view.
//
// Naming convention (see ROADMAP "Observability"): snake_case metric
// name, `_total` suffix for counters, `_ns`/`_bytes` unit suffix where
// applicable, Prometheus-style `{key="value"}` labels baked into the
// name string (labels are part of the registry key; there is no
// separate label index).
//
// Metrics reference (what the serving stack registers; the table is the
// contract the CI e2e smoke greps against):
//
//   name                                          kind      meaning
//   ----------------------------------------------------------------------
//   serve_requests_total{op=...}                  counter   decoded request
//                                                           frames by opcode
//   serve_request_ns{op=...}                      histogram wall time per
//                                                           request, decode
//                                                           to encode
//   serve_stage_decode_ns | _route_ns | _acquire_ns
//     | _kernel_ns | _encode_ns                   histogram per-stage spans
//                                                           from the request
//                                                           trace
//   serve_coalesce_batches_total                  counter   Engine batch calls
//                                                           issued by the
//                                                           router
//   serve_coalesce_requests_total                 counter   requests those
//                                                           calls answered;
//                                                           one each, so equal
//                                                           to batches
//   serve_loop_connections{loop=...}              gauge     open connections
//                                                           on an event loop
//   serve_loop_outbound_bytes{loop=...}           gauge     queued reply bytes
//                                                           across a loop's
//                                                           connections
//   serve_loop_wakeups_total{loop=...}            counter   epoll_wait returns
//   serve_conns_rejected_total                    counter   accepts refused at
//                                                           the connection cap
//   serve_backpressure_hangups_total              counter   connections closed
//                                                           at the outbound
//                                                           byte cap
//   serve_pod_inflight{pod=...}                   gauge     requests in flight
//   serve_pod_health_transitions_total{pod=...}   counter   health state edges
//   serve_pod_probes_total{pod=...}               counter   probe dispatches
//   serve_pod_failovers_total{pod=...}            counter   reroutes away
//   serve_sketch_queries_total{pod=,sketch=}      counter   point queries
//   serve_sketch_hits_total / _loads_total
//     / _evictions_total{pod=,sketch=}            counter   pod cache traffic
//   serve_sketch_bypasses_total{pod=,sketch=}     counter   loads served but
//                                                           not installed: a
//                                                           resident is hotter
//   serve_sketch_duplicate_loads_total            counter   Engine::Open calls
//     {pod=,sketch=}                                        discarded: a
//                                                           concurrent Acquire
//                                                           loaded it first
//   serve_sketch_publishes_total{pod=,sketch=}    counter   snapshot installs
//   serve_sketch_epoch{pod=,sketch=}              gauge     published epoch
//                                                           (cross-pod max -
//                                                           value = lag)
//   ingest_rows_total                             counter   rows drained from
//                                                           the ring
//   ingest_ring_occupancy                         gauge     rows waiting
//   ingest_publish_ns                             histogram snapshot publish
//                                                           latency
//   ingest_snapshots_total                        counter   publishes
//   wal_records_total                             counter   rows appended to
//                                                           the write-ahead log
//   wal_fsync_ns                                  histogram fdatasync latency
//                                                           at sync points
//   wal_segment_bytes                             gauge     bytes in the
//                                                           active segment
//   recovery_replayed_rows_total                  counter   rows replayed from
//                                                           segment tails at
//                                                           startup recovery
//   threadpool_queue_depth                        gauge     queued tasks
//   ifsketch_build_info{build_type=,compiler=,    gauge     1, set when the
//     kernel_tier=}                                         server starts
//                                                           listening: which
//                                                           build and kernel
//                                                           tier is serving
//   client_retries_total                          counter   client-side
//                                                           reconnect attempts
//
#ifndef IFSKETCH_OBS_METRICS_H_
#define IFSKETCH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ifsketch::obs {

/// Stable per-thread shard index in [0, kCounterShards). Assigned
/// round-robin on first use per thread; exposed for tests.
std::size_t ThisThreadShard();

/// Monotone counter. Add is one relaxed fetch_add on a
/// cache-line-padded cell chosen by the calling thread's shard, so
/// concurrent writers on different cores do not contend. Value sums the
/// cells (racy-relaxed: exact once writers quiesce, a valid recent
/// lower bound while they run).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void Add(std::uint64_t n = 1) {
    cells_[ThisThreadShard() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kShards];
};

/// Last-write-wins signed gauge (occupancy, queue depth, epoch).
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<std::int64_t> v_{0};
};

/// Log-linear bucket layout shared by Histogram, HistogramSnapshot and
/// the STATS wire codec. Values 0..7 get exact buckets; above that each
/// power of two splits into 4 sub-buckets, so the bucket upper bound
/// overstates a recorded value by at most 25% (quantiles inherit that
/// bound). 252 buckets cover the full uint64 range.
inline constexpr std::size_t kHistogramBuckets = 252;

/// Bucket index for a recorded value (branch-free above the exact
/// region).
constexpr std::size_t BucketIndex(std::uint64_t v) {
  if (v < 8) return static_cast<std::size_t>(v);
  // Exponent e >= 3: 2^e <= v < 2^(e+1); 2 mantissa bits pick the
  // sub-bucket.
  const int e = std::bit_width(v) - 1;
  const std::size_t sub =
      static_cast<std::size_t>(v >> (e - 2) & 0x3);
  return (static_cast<std::size_t>(e) - 2) * 4 + sub + 4;
}

/// Inclusive upper bound of bucket `idx` -- the value quantiles report
/// for samples landing there.
constexpr std::uint64_t BucketUpperBound(std::size_t idx) {
  if (idx < 8) return static_cast<std::uint64_t>(idx);
  const std::size_t e = (idx - 4) / 4 + 2;
  const std::uint64_t sub = (idx - 4) % 4;
  // Lower bound of the next bucket, minus one.
  const std::uint64_t lo =
      (std::uint64_t{4} + sub + 1) << (e - 2);
  return lo - 1;
}

/// Mergeable point-in-time view of a histogram. Element-wise additive:
/// merging shards then taking a quantile gives exactly the quantile of
/// the pooled recording, because the bucket layout is fixed.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // size <= kHistogramBuckets,
                                       // trimmed at last nonzero

  void Merge(const HistogramSnapshot& other);
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Nearest-rank quantile over bucket upper bounds: the smallest
  /// bucket bound b such that at least ceil(q * count) samples are <=
  /// b. q in [0,1]; returns 0 for an empty histogram, and `max` for
  /// q >= 1.
  std::uint64_t Quantile(double q) const;
};

/// Lock-free log-bucketed histogram. Record is two relaxed fetch_adds
/// (bucket + sum) and a rarely-taken max CAS.
class Histogram {
 public:
  void Record(std::uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  alignas(64) std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Full registry snapshot: every metric by name, values frozen at read
/// time. This is what the STATS opcode ships and what RenderText
/// formats, so wire consumers and local dumps see the same data.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Prometheus-style text exposition: `# TYPE` comments, cumulative
  /// `_bucket{le=...}` lines for histograms plus `_sum`/`_count`, and a
  /// derived-quantile comment line per histogram.
  std::string RenderText() const;
  /// One line per metric: `name value` for counters/gauges,
  /// `name count=.. mean=.. p50=.. p90=.. p99=.. max=..` for
  /// histograms. The --stats-every / SIGUSR1 dump format.
  std::string RenderLines() const;
};

/// Name -> metric index. Get* registers on first use and returns a
/// stable pointer; resolving is mutex-guarded (cold path), the returned
/// metrics are lock-free (hot path). Instantiable for tests; the
/// serving stack defaults to the process-wide Default() instance.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  std::string RenderText() const { return Snapshot().RenderText(); }
  std::string RenderLines() const { return Snapshot().RenderLines(); }

  /// Process-unique id, never reused across instances. Thread-local
  /// caches of Get* pointers key on (this, generation()) so a registry
  /// reallocated at a freed predecessor's address cannot satisfy the
  /// predecessor's cache entries (see RequestTrace).
  std::uint64_t generation() const { return generation_; }

 private:
  const std::uint64_t generation_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// `base{key="value"}` -- the convention for baking one label into a
/// registry name. Compose nested calls for multiple labels in
/// alphabetical key order.
std::string LabeledName(const std::string& base, const std::string& key,
                        const std::string& value);
/// `base{k1="v1",k2="v2"}` two-label convenience (pod + sketch).
std::string LabeledName2(const std::string& base, const std::string& k1,
                         const std::string& v1, const std::string& k2,
                         const std::string& v2);

}  // namespace ifsketch::obs

#endif  // IFSKETCH_OBS_METRICS_H_
