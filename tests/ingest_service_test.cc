// IngestService: registry-driven bit-identity (a mid-stream snapshot
// answers exactly like a one-shot Engine::Build over the same row
// prefix with the same seed -- the determinism contract in
// ingest/ingest.h), snapshot cadence, Create error paths, snapshot
// persistence, and a build-while-serve stress run under the CI tsan job.

#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "serve/pod.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/streaming.h"
#include "util/random.h"

namespace ifsketch::ingest {
namespace {

constexpr std::size_t kColumns = 24;

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

IngestOptions Options(const std::string& algorithm,
                      std::size_t rows_per_snapshot) {
  IngestOptions options;
  options.algorithm = algorithm;
  options.params = Params();
  options.d = kColumns;
  options.seed = 17;
  options.rows_per_snapshot = rows_per_snapshot;
  options.ring_capacity = 64;  // small: exercise the full-ring spin path
  return options;
}

/// Every registered algorithm that implements the streaming mixin --
/// the set the ingest subsystem accepts, discovered the same way
/// IngestService::Create does.
std::vector<std::string> StreamingAlgorithms() {
  std::vector<std::string> names;
  for (const auto& name : Engine::KnownAlgorithms()) {
    const auto algorithm = sketch::BuiltinRegistry().Create(name);
    if (dynamic_cast<const sketch::StreamingSketch*>(algorithm.get()) !=
        nullptr) {
      names.push_back(name);
    }
  }
  return names;
}

std::vector<core::Itemset> MakeQueries() {
  util::Rng rng(404);
  std::vector<core::Itemset> queries;
  for (std::size_t size = 1; size <= 2; ++size) {
    for (std::size_t i = 0; i < 40; ++i) {
      core::Itemset t(kColumns);
      while (t.size() < size) {
        t.Add(static_cast<std::size_t>(rng.UniformInt(kColumns)));
      }
      queries.push_back(std::move(t));
    }
  }
  return queries;
}

TEST(IngestServiceTest, RegistryExposesAllThreeStreamingAlgorithms) {
  const auto streaming = StreamingAlgorithms();
  for (const char* expect :
       {"STREAM-SUBSAMPLE", "STREAM-STRATIFIED", "STREAM-IMPORTANCE"}) {
    bool found = false;
    for (const auto& name : streaming) found |= (name == expect);
    EXPECT_TRUE(found) << expect << " not registered as streaming";
  }
  // And the plain one-shot algorithms are NOT accepted as streaming.
  for (const auto& name : streaming) {
    EXPECT_NE(name, "SUBSAMPLE");
  }
}

// The acceptance gate: for EVERY registered streaming algorithm, every
// periodic snapshot must agree bit-for-bit with a one-shot build over
// the same prefix -- estimate_many, are_frequent, and mine.
TEST(IngestServiceTest, SnapshotsAreBitIdenticalToOneShotBuilds) {
  constexpr std::size_t kRows = 5000;
  constexpr std::size_t kEvery = 1000;
  util::Rng data_rng(99);
  const core::Database db = data::UniformRandom(kRows, kColumns, 0.3, data_rng);
  const std::vector<core::Itemset> queries = MakeQueries();

  const auto streaming = StreamingAlgorithms();
  ASSERT_FALSE(streaming.empty());
  for (const auto& algorithm : streaming) {
    SCOPED_TRACE(algorithm);
    std::vector<std::pair<std::shared_ptr<const Engine>, std::uint64_t>>
        snapshots;
    {
      auto service = IngestService::Create(
          Options(algorithm, kEvery),
          [&](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
            snapshots.emplace_back(std::move(engine), rows);
          });
      ASSERT_NE(service, nullptr);
      for (std::size_t i = 0; i < db.num_rows(); ++i) {
        service->Push(db.Row(i));
      }
      service->Finish();
      EXPECT_EQ(service->rows_ingested(), kRows);
      EXPECT_EQ(service->snapshots_published(), kRows / kEvery);
    }
    ASSERT_EQ(snapshots.size(), kRows / kEvery);

    for (const auto& [snapshot, rows] : snapshots) {
      SCOPED_TRACE(rows);
      ASSERT_NE(snapshot, nullptr);
      EXPECT_EQ(snapshot->algorithm(), algorithm);
      EXPECT_EQ(snapshot->n(), rows);

      core::Database prefix(0, kColumns);
      for (std::uint64_t i = 0; i < rows; ++i) prefix.AppendRow(db.Row(i));
      util::Rng build_rng(Options(algorithm, kEvery).seed);
      const auto direct = Engine::Build(prefix, algorithm, Params(), build_rng);
      ASSERT_TRUE(direct.has_value());

      std::vector<double> snapshot_f, direct_f;
      snapshot->estimate_many(queries, &snapshot_f);
      direct->estimate_many(queries, &direct_f);
      EXPECT_EQ(snapshot_f, direct_f);  // bitwise: no tolerance

      std::vector<bool> snapshot_b, direct_b;
      snapshot->are_frequent(queries, &snapshot_b);
      direct->are_frequent(queries, &direct_b);
      EXPECT_EQ(snapshot_b, direct_b);

      if (snapshot->supports_query_size(1) &&
          snapshot->supports_query_size(2)) {
        mining::AprioriOptions opt;
        opt.min_frequency = 0.2;
        opt.max_size = 2;
        const auto snapshot_mined = snapshot->mine(opt);
        const auto direct_mined = direct->mine(opt);
        ASSERT_EQ(snapshot_mined.size(), direct_mined.size());
        for (std::size_t i = 0; i < snapshot_mined.size(); ++i) {
          EXPECT_TRUE(snapshot_mined[i].itemset == direct_mined[i].itemset);
          EXPECT_EQ(snapshot_mined[i].frequency, direct_mined[i].frequency);
        }
      }
    }
  }
}

TEST(IngestServiceTest, FinishPublishesAFinalPartialSnapshot) {
  std::vector<std::uint64_t> published;
  auto service = IngestService::Create(
      Options("STREAM-SUBSAMPLE", 1000),
      [&](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
        ASSERT_NE(engine, nullptr);
        published.push_back(rows);
      });
  ASSERT_NE(service, nullptr);
  util::Rng rng(5);
  const core::Database db = data::UniformRandom(2500, kColumns, 0.3, rng);
  for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
  service->Finish();
  // Two periodic snapshots plus the 2500-row tail.
  EXPECT_EQ(published, (std::vector<std::uint64_t>{1000, 2000, 2500}));
  EXPECT_EQ(service->snapshots_published(), 3u);
  service->Finish();  // idempotent
  EXPECT_EQ(service->snapshots_published(), 3u);
}

TEST(IngestServiceTest, NoDuplicateSnapshotOnExactBoundary) {
  std::vector<std::uint64_t> published;
  auto service = IngestService::Create(
      Options("STREAM-SUBSAMPLE", 1000),
      [&](std::shared_ptr<const Engine>, std::uint64_t rows) {
        published.push_back(rows);
      });
  ASSERT_NE(service, nullptr);
  util::Rng rng(6);
  const core::Database db = data::UniformRandom(2000, kColumns, 0.3, rng);
  for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
  service->Finish();
  // The 2000-row snapshot already covered everything: no extra publish.
  EXPECT_EQ(published, (std::vector<std::uint64_t>{1000, 2000}));
}

// Push owns its rows: views of a database (Database::Row) are copied
// before they enter the ring, so the source may die while rows are still
// queued. Under ASan a borrowed row would be a heap-use-after-free here.
TEST(IngestServiceTest, PushedRowViewsOutliveTheirDatabase) {
  constexpr std::size_t kRows = 700;
  const auto make_db = [] {
    util::Rng rng(31);
    return data::UniformRandom(kRows, kColumns, 0.3, rng);
  };
  std::shared_ptr<const Engine> last;
  auto service = IngestService::Create(
      Options("STREAM-SUBSAMPLE", 10 * kRows),
      [&](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
        EXPECT_EQ(rows, kRows);
        last = std::move(engine);
      });
  ASSERT_NE(service, nullptr);
  {
    const core::Database db = make_db();
    for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
  }  // db is gone; up to ring_capacity rows may still be queued
  service->Finish();
  ASSERT_NE(last, nullptr);

  util::Rng build_rng(Options("STREAM-SUBSAMPLE", kRows).seed);
  const auto direct =
      Engine::Build(make_db(), "STREAM-SUBSAMPLE", Params(), build_rng);
  ASSERT_TRUE(direct.has_value());
  const auto queries = MakeQueries();
  std::vector<double> streamed_f, direct_f;
  last->estimate_many(queries, &streamed_f);
  direct->estimate_many(queries, &direct_f);
  EXPECT_EQ(streamed_f, direct_f);
}

TEST(IngestServiceTest, EmptyStreamPublishesNothing) {
  auto service = IngestService::Create(
      Options("STREAM-SUBSAMPLE", 1000),
      [](std::shared_ptr<const Engine>, std::uint64_t) {
        FAIL() << "published with no rows";
      });
  ASSERT_NE(service, nullptr);
  service->Finish();
  EXPECT_EQ(service->rows_ingested(), 0u);
  EXPECT_EQ(service->snapshots_published(), 0u);
}

TEST(IngestServiceTest, CreateRejectsBadOptions) {
  const auto publish = [](std::shared_ptr<const Engine>, std::uint64_t) {};
  std::string error;

  error.clear();
  EXPECT_EQ(IngestService::Create(Options("NO-SUCH-ALGO", 10), publish,
                                  &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  // Registered, but a one-shot algorithm without the streaming mixin.
  error.clear();
  EXPECT_EQ(IngestService::Create(Options("SUBSAMPLE", 10), publish, &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  IngestOptions no_width = Options("STREAM-SUBSAMPLE", 10);
  no_width.d = 0;
  error.clear();
  EXPECT_EQ(IngestService::Create(no_width, publish, &error), nullptr);
  EXPECT_FALSE(error.empty());

  IngestOptions no_cadence = Options("STREAM-SUBSAMPLE", 10);
  no_cadence.rows_per_snapshot = 0;
  error.clear();
  EXPECT_EQ(IngestService::Create(no_cadence, publish, &error), nullptr);
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_EQ(IngestService::Create(Options("STREAM-SUBSAMPLE", 10), nullptr,
                                  &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// A published snapshot is a full IFSK citizen: Save it, reopen it both
// mapped (arena v2 zero-copy) and copied, and get identical answers.
TEST(IngestServiceTest, SnapshotsSurviveSaveAndReopen) {
  std::shared_ptr<const Engine> snapshot;
  {
    auto service = IngestService::Create(
        Options("STREAM-STRATIFIED", 1500),
        [&](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
          if (rows == 1500) snapshot = std::move(engine);
        });
    ASSERT_NE(service, nullptr);
    util::Rng rng(7);
    const core::Database db = data::UniformRandom(1500, kColumns, 0.3, rng);
    for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
    service->Finish();
  }
  ASSERT_NE(snapshot, nullptr);

  const std::string path = testing::TempDir() + "/ingest_snapshot.ifsk";
  ASSERT_TRUE(snapshot->Save(path));
  const std::vector<core::Itemset> queries = MakeQueries();
  std::vector<double> expect;
  snapshot->estimate_many(queries, &expect);

  for (const auto mode :
       {Engine::LoadMode::kMapped, Engine::LoadMode::kCopied}) {
    const auto reopened = Engine::Open(path, mode);
    ASSERT_TRUE(reopened.has_value());
    EXPECT_EQ(reopened->algorithm(), "STREAM-STRATIFIED");
    EXPECT_EQ(reopened->n(), 1500u);
    std::vector<double> answers;
    reopened->estimate_many(queries, &answers);
    EXPECT_EQ(answers, expect);
  }
}

// Build-while-serve under TSan: queries hammer the pod's live snapshot
// while the ingest thread publishes replacements into it. Correctness
// here is "every acquired snapshot answers like a private engine built
// over the prefix it declares"; the tsan job additionally proves the
// swap is race-free.
TEST(IngestServiceTest, ConcurrentQueriesDuringIngestAreSafe) {
  constexpr std::size_t kRows = 6000;
  constexpr std::size_t kEvery = 500;
  util::Rng data_rng(123);
  const core::Database db = data::UniformRandom(kRows, kColumns, 0.3, data_rng);
  const std::vector<core::Itemset> queries = MakeQueries();

  serve::SketchPod pod;
  ASSERT_TRUE(pod.AddStream("live"));
  auto service = IngestService::Create(
      Options("STREAM-SUBSAMPLE", kEvery),
      [&](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
        pod.Publish("live", std::move(engine), rows);
      });
  ASSERT_NE(service, nullptr);

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<double> answers;
      while (!done.load(std::memory_order_acquire) &&
             !failed.load(std::memory_order_acquire)) {
        const auto engine = pod.Acquire("live");
        if (engine == nullptr) continue;  // nothing published yet
        engine->estimate_many(queries, &answers);
        // Sanity on every answer: frequencies are probabilities.
        for (const double f : answers) {
          if (!(f >= 0.0 && f <= 1.0)) {
            failed.store(true, std::memory_order_release);
            break;
          }
        }
      }
    });
  }
  for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
  service->Finish();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  // Every epoch made it into the pod, and the last one is resident.
  const auto state = pod.SnapshotOf("live");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->epoch, kRows / kEvery);
  EXPECT_EQ(state->rows_seen, kRows);
  const auto last = pod.Acquire("live");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->n(), kRows);
}

}  // namespace
}  // namespace ifsketch::ingest
