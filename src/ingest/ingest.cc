#include "ingest/ingest.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_file.h"
#include "util/check.h"

namespace ifsketch::ingest {
namespace {

obs::MetricsRegistry& ResolveRegistry(obs::MetricsRegistry* registry) {
  return registry != nullptr ? *registry : obs::MetricsRegistry::Default();
}

}  // namespace

std::unique_ptr<IngestService> IngestService::Create(
    const IngestOptions& options, PublishFn publish, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (options.d == 0) return fail("ingest: d must be positive");
  if (options.rows_per_snapshot == 0) {
    return fail("ingest: rows_per_snapshot must be positive");
  }
  if (publish == nullptr) return fail("ingest: publish callback required");
  auto algorithm = sketch::BuiltinRegistry().Create(options.algorithm);
  if (algorithm == nullptr) {
    return fail("ingest: unknown algorithm " + options.algorithm);
  }
  const auto* streaming =
      dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
  if (streaming == nullptr) {
    return fail("ingest: " + options.algorithm +
                " does not support streaming construction");
  }
  if (!options.wal_dir.empty() && options.wal_sync == WalSyncPolicy::kEveryN &&
      options.wal_sync_every == 0) {
    return fail("ingest: wal_sync_every must be positive");
  }
  auto service = std::unique_ptr<IngestService>(new IngestService(
      options, std::move(publish), std::move(algorithm), streaming));
  if (!options.wal_dir.empty()) {
    // Recovery happens here, before the ingest thread exists, so the
    // replay owns the builder and the Rng without synchronization.
    WalOptions wal_options;
    wal_options.dir = options.wal_dir;
    wal_options.sync = options.wal_sync;
    wal_options.sync_every = options.wal_sync_every;
    wal_options.registry = options.registry;
    wal_options.sink_factory = options.wal_sink_factory;
    std::string wal_error;
    service->wal_ = Wal::Open(wal_options, options.algorithm, options.params,
                              options.d, options.seed,
                              service->builder_.get(), &service->rng_,
                              &service->recovery_, &wal_error);
    if (service->wal_ == nullptr) return fail("ingest: " + wal_error);
    service->rows_ingested_.store(service->recovery_.rows,
                                  std::memory_order_release);
  }
  service->Start();
  return service;
}

IngestService::IngestService(IngestOptions options, PublishFn publish,
                             std::unique_ptr<core::SketchAlgorithm> algorithm,
                             const sketch::StreamingSketch* streaming)
    : options_(std::move(options)),
      publish_(std::move(publish)),
      rows_metric_(
          ResolveRegistry(options_.registry).GetCounter("ingest_rows_total")),
      snapshots_metric_(ResolveRegistry(options_.registry)
                            .GetCounter("ingest_snapshots_total")),
      publish_metric_(ResolveRegistry(options_.registry)
                          .GetHistogram("ingest_publish_ns")),
      occupancy_metric_(ResolveRegistry(options_.registry)
                            .GetGauge("ingest_ring_occupancy")),
      algorithm_(std::move(algorithm)),
      rng_(options_.seed),
      builder_(streaming->NewBuilder(options_.d, options_.params, rng_)),
      ring_(options_.ring_capacity) {}

void IngestService::Start() {
  thread_ = std::thread([this] { Run(); });
}

IngestService::~IngestService() { Finish(); }

void IngestService::Push(util::BitVector row) {
  IFSKETCH_CHECK(!finished_);
  IFSKETCH_CHECK_EQ(row.size(), options_.d);
  // A view (Push(db.Row(i))) borrows memory the producer may free before
  // the ingest thread reads it: the ring only ever carries owned rows.
  if (row.is_view()) row = util::BitVector(row);
  while (!ring_.TryPush(std::move(row))) std::this_thread::yield();
}

void IngestService::Finish() {
  if (finished_) return;
  finished_ = true;
  stop_.store(true, std::memory_order_release);
  // Create may fail after construction but before Start (WAL recovery
  // refused the directory); the thread never ran then.
  if (thread_.joinable()) thread_.join();
}

void IngestService::Run() {
  // Recovery restored `recovery_.rows` rows into the builder before this
  // thread started. Publish them immediately -- consumers should see the
  // recovered state without waiting for new rows -- and keep the
  // absolute row count, so the snapshot cadence (every
  // rows_per_snapshot ABSOLUTE rows) matches an unbroken run.
  std::uint64_t rows = recovery_.rows;
  if (rows > 0) PublishSnapshot(rows);
  util::BitVector row;
  for (;;) {
    if (!ring_.TryPop(&row)) {
      // Re-check the ring after seeing stop: the producer sets stop only
      // after its last Push, so stop + empty means fully drained.
      if (stop_.load(std::memory_order_acquire) && ring_.Empty()) break;
      std::this_thread::yield();
      continue;
    }
    // Write-ahead: the row reaches the log before the builder -- the
    // recovered prefix therefore contains every row the builder ever
    // observed. A log I/O failure latches durability off but ingest
    // continues (availability over durability); the operator learns via
    // stderr + wal_failed().
    if (wal_ != nullptr && !wal_failed() && !wal_->Append(row)) {
      std::fprintf(stderr,
                   "ifsketch ingest: WAL failed, continuing without "
                   "durability: %s\n",
                   wal_->error().c_str());
      wal_failed_.store(true, std::memory_order_release);
    }
    builder_->Observe(row);
    ++rows;
    rows_ingested_.store(rows, std::memory_order_release);
    rows_metric_->Add();
    occupancy_metric_->Set(static_cast<std::int64_t>(ring_.SizeApprox()));
    if (rows % options_.rows_per_snapshot == 0) PublishSnapshot(rows);
  }
  if (rows > last_published_rows_) PublishSnapshot(rows);
}

void IngestService::PublishSnapshot(std::uint64_t rows) {
  // Checkpoint BEFORE the snapshot becomes visible: anything a consumer
  // can query must survive a crash, so recovery restores at least the
  // rows of the newest published snapshot.
  if (wal_ != nullptr && !wal_failed() &&
      !wal_->Checkpoint(*builder_, rng_, rows)) {
    std::fprintf(stderr,
                 "ifsketch ingest: WAL checkpoint failed, continuing "
                 "without durability: %s\n",
                 wal_->error().c_str());
    wal_failed_.store(true, std::memory_order_release);
  }
  const auto publish_start = std::chrono::steady_clock::now();
  sketch::SketchFile file;
  file.algorithm = options_.algorithm;
  file.params = options_.params;
  file.n = rows;
  file.d = options_.d;
  file.summary = builder_->Summary();
  auto engine = Engine::FromFile(std::move(file));
  // The builder produced the summary through the registered algorithm's
  // own layout, so FromFile's size validation cannot fail here.
  IFSKETCH_CHECK(engine.has_value());
  last_published_rows_ = rows;
  auto shared = std::make_shared<const Engine>(std::move(*engine));
  snapshots_published_.fetch_add(1, std::memory_order_acq_rel);
  publish_(std::move(shared), rows);
  snapshots_metric_->Add();
  publish_metric_->Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - publish_start)
          .count()));
}

}  // namespace ifsketch::ingest
