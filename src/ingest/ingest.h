// Build-while-serve ingest: streaming sketch maintenance with periodic
// immutable snapshot publication.
//
// The paper's streaming claim (§1.2: row sampling is the optimal
// streaming architecture) meets the serving stack here. An IngestService
// owns a dedicated ingest thread fed through a bounded lock-free SPSC
// ring (spsc_ring.h). The thread consumes transaction rows, advances a
// sketch::StreamingBuilder (any registry algorithm implementing the
// sketch::StreamingSketch mixin -- STREAM-SUBSAMPLE, STREAM-STRATIFIED,
// STREAM-IMPORTANCE), and every rows_per_snapshot rows serializes the
// builder state into a full ifsketch::Engine via Engine::FromFile and
// hands it to the publish callback. Snapshots are immutable: queries on
// an already-published Engine never see later rows, and the callback
// typically routes into serve::SketchPod::Publish, whose atomic
// shared_ptr swap retires the previous snapshot exactly like eviction
// (in-flight queries finish on their own reference).
//
// Threading contract:
//   - Exactly one producer thread calls Push / Finish (SPSC ring).
//   - The ingest thread is the only toucher of the builder and the Rng,
//     so builder state needs no locking; the publish callback runs on
//     the ingest thread and must be safe to call from there.
//   - rows_ingested() / snapshots_published() are atomic and readable
//     from any thread.
//
// Determinism contract (what the bit-identity tests enforce): snapshots
// are published at exact row counts, builders only draw randomness in
// Observe, and summary layouts are data-independent -- so the snapshot
// after N rows is bit-identical to Engine::Build over the same N-row
// prefix with the same seed.
#ifndef IFSKETCH_INGEST_INGEST_H_
#define IFSKETCH_INGEST_INGEST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "engine.h"
#include "ingest/spsc_ring.h"
#include "ingest/wal.h"
#include "obs/metrics.h"
#include "sketch/streaming.h"
#include "util/durable.h"
#include "util/random.h"

namespace ifsketch::ingest {

struct IngestOptions {
  /// Registry name of a streaming algorithm (must implement the
  /// sketch::StreamingSketch mixin).
  std::string algorithm = "STREAM-SUBSAMPLE";
  core::SketchParams params;
  /// Row width; every pushed row must have exactly this many bits.
  std::size_t d = 0;
  /// Seed of the builder's dedicated Rng.
  std::uint64_t seed = 1;
  /// Publish a snapshot every this many ingested rows (and once more at
  /// Finish if rows remain since the last snapshot).
  std::size_t rows_per_snapshot = 10000;
  /// SPSC ring size (rounded up to a power of two).
  std::size_t ring_capacity = 1024;
  /// Metrics sink (ingest_rows_total, ingest_snapshots_total,
  /// ingest_publish_ns, ingest_ring_occupancy -- see obs/metrics.h).
  /// nullptr = the process-wide default registry.
  obs::MetricsRegistry* registry = nullptr;

  // ---- durability (PR 10). Empty wal_dir = no WAL, the pre-PR-10
  // in-memory behavior. Non-empty: every row is logged write-ahead to
  // that directory and the builder + Rng state is checkpointed at every
  // snapshot publication, so Create on the same directory after a crash
  // recovers a prefix of the stream and continues bit-identically to an
  // unbroken run over that prefix (see ingest/wal.h).
  std::string wal_dir;
  WalSyncPolicy wal_sync = WalSyncPolicy::kOnSnapshot;
  /// Appends per fsync under WalSyncPolicy::kEveryN.
  std::uint64_t wal_sync_every = 64;
  /// Test seam: forwarded to WalOptions::sink_factory.
  util::FileSinkFactory wal_sink_factory;
};

/// Dedicated ingest thread + ring + streaming builder. See the file
/// comment for the threading and determinism contracts.
class IngestService {
 public:
  /// Receives each published snapshot and the exact number of rows it
  /// covers. Runs on the ingest thread.
  using PublishFn =
      std::function<void(std::shared_ptr<const Engine>, std::uint64_t)>;

  /// Resolves options.algorithm through the builtin registry and starts
  /// the ingest thread. nullptr (with *error set when non-null) when the
  /// algorithm is unknown or not streaming, or options are degenerate.
  static std::unique_ptr<IngestService> Create(const IngestOptions& options,
                                               PublishFn publish,
                                               std::string* error = nullptr);

  /// Finishes (drains + final snapshot) if the caller never did.
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Enqueues one row (width options.d). Blocks -- spinning with
  /// yield -- while the ring is full. Producer thread only; must not be
  /// called after Finish(). The service owns what it enqueues: a view
  /// row (e.g. core::Database::Row) is deep-copied first, so the source
  /// may be destroyed right after Push returns.
  void Push(util::BitVector row);

  /// Drains the ring, publishes a final snapshot of any rows not yet
  /// covered by one, and joins the ingest thread. Idempotent.
  void Finish();

  /// Rows fully ingested (observed by the builder) so far.
  std::uint64_t rows_ingested() const {
    return rows_ingested_.load(std::memory_order_acquire);
  }

  /// Snapshots handed to the publish callback so far.
  std::uint64_t snapshots_published() const {
    return snapshots_published_.load(std::memory_order_acquire);
  }

  /// What Create recovered from options.wal_dir (all-zero when the WAL
  /// was absent, empty, or disabled). Immutable after Create returns.
  const WalRecovery& recovery() const { return recovery_; }

  /// True once a WAL append/checkpoint I/O failure latched. The service
  /// keeps ingesting (availability over durability); the failure detail
  /// was logged to stderr when it happened.
  bool wal_failed() const {
    return wal_failed_.load(std::memory_order_acquire);
  }

  const IngestOptions& options() const { return options_; }

 private:
  IngestService(IngestOptions options, PublishFn publish,
                std::unique_ptr<core::SketchAlgorithm> algorithm,
                const sketch::StreamingSketch* streaming);

  /// Starts the ingest thread (after Create finished WAL recovery, so
  /// the thread never races the recovery replay on the builder).
  void Start();

  /// Ingest-thread main loop.
  void Run();

  /// Builds an Engine from the builder's current state and hands it to
  /// the publish callback. Ingest thread only.
  void PublishSnapshot(std::uint64_t rows);

  IngestOptions options_;
  PublishFn publish_;
  obs::Counter* rows_metric_;        // ingest_rows_total
  obs::Counter* snapshots_metric_;   // ingest_snapshots_total
  obs::Histogram* publish_metric_;   // ingest_publish_ns
  obs::Gauge* occupancy_metric_;     // ingest_ring_occupancy
  std::unique_ptr<core::SketchAlgorithm> algorithm_;  // keeps name alive
  util::Rng rng_;
  std::unique_ptr<sketch::StreamingBuilder> builder_;
  std::unique_ptr<Wal> wal_;    // nullptr when options_.wal_dir is empty
  WalRecovery recovery_;        // set before the ingest thread starts
  std::atomic<bool> wal_failed_{false};
  SpscRing<util::BitVector> ring_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> rows_ingested_{0};
  std::atomic<std::uint64_t> snapshots_published_{0};
  std::uint64_t last_published_rows_ = 0;  // ingest thread only
  bool finished_ = false;                  // producer thread only
  std::thread thread_;
};

}  // namespace ifsketch::ingest

#endif  // IFSKETCH_INGEST_INGEST_H_
