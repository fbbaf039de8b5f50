// SketchPod: open-on-demand loading, LRU eviction with frequency-gated
// admission under a byte budget, stats, and eviction safety while
// queries are in flight (run under -fsanitize=thread by the CI tsan
// job).

#include "serve/pod.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch::serve {
namespace {

core::SketchParams Params(std::size_t k = 2) {
  core::SketchParams p;
  p.k = k;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// Builds a sketch of an n x d database and saves it under TempDir.
std::string MakeSketchFile(const std::string& stem, std::size_t n,
                           std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(n, d, 0.4, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  EXPECT_TRUE(engine.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(engine->Save(path));
  return path;
}

std::size_t ResidentBytesOf(const std::string& path) {
  const auto engine = Engine::Open(path);
  EXPECT_TRUE(engine.has_value());
  // The pod accounts what an engine actually pins: the whole mapped
  // image for mapped (arena v2) loads, owned summary bytes otherwise.
  return engine->resident_bytes();
}

const SketchStats& StatsFor(const std::vector<SketchStats>& all,
                            const std::string& name) {
  for (const auto& s : all) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no stats for " << name;
  static SketchStats none;
  return none;
}

TEST(SketchPodTest, OpensOnDemandAndCountsHits) {
  SketchPod pod;
  const std::string path = MakeSketchFile("pod_a", 300, 10, 1);
  ASSERT_TRUE(pod.AddSketch("a", path));
  EXPECT_FALSE(pod.AddSketch("a", path));  // duplicate name
  EXPECT_TRUE(pod.Knows("a"));
  EXPECT_FALSE(pod.Knows("b"));
  EXPECT_EQ(pod.resident_bytes(), 0u);  // catalog only, nothing loaded

  const auto engine = pod.Acquire("a");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->algorithm(), "SUBSAMPLE");
  EXPECT_GT(pod.resident_bytes(), 0u);
  ASSERT_NE(pod.Acquire("a"), nullptr);  // resident now

  const auto stats = pod.stats();
  const SketchStats& a = StatsFor(stats, "a");
  EXPECT_EQ(a.loads, 1u);
  EXPECT_EQ(a.hits, 1u);  // second Acquire
  EXPECT_EQ(a.evictions, 0u);
  EXPECT_TRUE(a.resident);
  EXPECT_EQ(a.resident_bytes, pod.resident_bytes());

  EXPECT_EQ(pod.Acquire("missing"), nullptr);
}

TEST(SketchPodTest, AcquireFailsOnUnreadableFile) {
  SketchPod pod;
  ASSERT_TRUE(pod.AddSketch("ghost", testing::TempDir() + "/ghost.ifsk"));
  EXPECT_EQ(pod.Acquire("ghost"), nullptr);
  EXPECT_TRUE(pod.Knows("ghost"));  // cataloged, just unloadable
  EXPECT_EQ(pod.resident_bytes(), 0u);
}

TEST(SketchPodTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  const std::string pa = MakeSketchFile("pod_lru_a", 400, 10, 2);
  const std::string pb = MakeSketchFile("pod_lru_b", 400, 10, 3);
  const std::string pc = MakeSketchFile("pod_lru_c", 400, 10, 4);
  const std::size_t each = ResidentBytesOf(pa);
  ASSERT_EQ(ResidentBytesOf(pb), each);  // same shape => same size

  // Budget fits exactly two residents.
  SketchPod pod(2 * each);
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));
  ASSERT_TRUE(pod.AddSketch("c", pc));

  ASSERT_NE(pod.Acquire("a"), nullptr);
  ASSERT_NE(pod.Acquire("b"), nullptr);
  EXPECT_EQ(pod.resident_bytes(), 2 * each);

  // Touch a so b is the LRU victim when c loads.
  ASSERT_NE(pod.Acquire("a"), nullptr);
  ASSERT_NE(pod.Acquire("c"), nullptr);
  EXPECT_EQ(pod.resident_bytes(), 2 * each);
  {
    const auto stats = pod.stats();
    EXPECT_TRUE(StatsFor(stats, "a").resident);
    EXPECT_FALSE(StatsFor(stats, "b").resident);
    EXPECT_TRUE(StatsFor(stats, "c").resident);
    EXPECT_EQ(StatsFor(stats, "b").evictions, 1u);
    EXPECT_EQ(StatsFor(stats, "b").resident_bytes, 0u);
  }

  // Reacquiring b reloads it (loads=2) and evicts a (LRU after c's use).
  ASSERT_NE(pod.Acquire("b"), nullptr);
  {
    const auto stats = pod.stats();
    EXPECT_FALSE(StatsFor(stats, "a").resident);
    EXPECT_EQ(StatsFor(stats, "a").evictions, 1u);
    EXPECT_EQ(StatsFor(stats, "b").loads, 2u);
    EXPECT_TRUE(StatsFor(stats, "c").resident);
  }
}

TEST(SketchPodTest, OverBudgetSketchIsAdmittedAlone) {
  const std::string pa = MakeSketchFile("pod_big_a", 300, 10, 5);
  const std::string pb = MakeSketchFile("pod_big_b", 300, 10, 6);
  const std::size_t each = ResidentBytesOf(pa);

  // Budget smaller than one sketch: each load evicts the other, but the
  // name still serves.
  SketchPod pod(each / 2);
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));
  ASSERT_NE(pod.Acquire("a"), nullptr);
  EXPECT_EQ(pod.resident_bytes(), each);  // over budget, admitted alone
  ASSERT_NE(pod.Acquire("b"), nullptr);
  const auto stats = pod.stats();
  EXPECT_FALSE(StatsFor(stats, "a").resident);
  EXPECT_TRUE(StatsFor(stats, "b").resident);
}

TEST(SketchPodTest, SetByteBudgetEvictsImmediately) {
  const std::string pa = MakeSketchFile("pod_reb_a", 300, 10, 7);
  const std::string pb = MakeSketchFile("pod_reb_b", 300, 10, 8);
  SketchPod pod;  // unlimited
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));
  ASSERT_NE(pod.Acquire("a"), nullptr);
  ASSERT_NE(pod.Acquire("b"), nullptr);
  const std::size_t each = ResidentBytesOf(pa);
  EXPECT_EQ(pod.resident_bytes(), 2 * each);

  pod.SetByteBudget(each);
  EXPECT_EQ(pod.resident_bytes(), each);
  const auto stats = pod.stats();
  EXPECT_FALSE(StatsFor(stats, "a").resident);  // a was LRU
  EXPECT_TRUE(StatsFor(stats, "b").resident);
}

TEST(SketchPodTest, CountQueriesAccumulates) {
  SketchPod pod;
  ASSERT_TRUE(pod.AddSketch("a", MakeSketchFile("pod_q", 200, 8, 9)));
  pod.CountQueries("a", 5);
  pod.CountQueries("a", 7);
  pod.CountQueries("nobody", 100);  // silently ignored
  EXPECT_EQ(StatsFor(pod.stats(), "a").queries, 12u);
}

// Queries keep answering correctly while the budget thrashes engines in
// and out under them: an acquired shared_ptr outlives its eviction, and
// answers from a reloaded engine are bit-identical (same file).
TEST(SketchPodTest, EvictionWhileQueriesInFlightIsSafe) {
  const std::string pa = MakeSketchFile("pod_flight_a", 500, 10, 10);
  const std::string pb = MakeSketchFile("pod_flight_b", 500, 10, 11);
  const std::size_t each = ResidentBytesOf(pa);
  SketchPod pod(each);  // exactly one resident: every swap evicts
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));

  // Reference answers, computed on private engines.
  const core::Itemset t(10, {1, 3});
  const double expect_a = Engine::Open(pa)->estimate(t);
  const double expect_b = Engine::Open(pb)->estimate(t);

  util::ThreadPool::SetDefaultThreadCount(2);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      const std::string name = (i % 2 == 0) ? "a" : "b";
      const double expected = (i % 2 == 0) ? expect_a : expect_b;
      for (int round = 0; round < 25 && !failed.load(); ++round) {
        const auto engine = pod.Acquire(name);
        if (engine == nullptr || engine->estimate(t) != expected) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  const auto stats = pod.stats();
  // The a/b ping-pong forces real evictions (budget holds only one).
  EXPECT_GT(StatsFor(stats, "a").evictions +
                StatsFor(stats, "b").evictions,
            0u);
  EXPECT_LE(pod.resident_bytes(), each);
  util::ThreadPool::SetDefaultThreadCount(0);
}

// The mapped-load variant of the in-flight eviction stress: pods now
// hold mmap-backed engines (arena v2 files open through the zero-copy
// path), so eviction drops the pod's reference to a MAPPING, and the
// munmap must be deferred by the shared_ptr hand-out until every query
// in flight on the evicted engine has finished reading the mapped words.
// Run under TSan by the CI tsan job; a use-after-munmap would crash
// outright.
TEST(SketchPodTest, MappedEvictionWhileQueriesInFlightIsSafe) {
  const std::string pa = MakeSketchFile("pod_map_a", 600, 12, 20);
  const std::string pb = MakeSketchFile("pod_map_b", 600, 12, 21);

  // Confirm the pod really serves mapped engines (the files are arena
  // v2, so Acquire's Engine::Open takes the zero-copy path).
  {
    const auto probe = Engine::Open(pa);
    ASSERT_TRUE(probe.has_value());
    ASSERT_EQ(probe->load_path(), Engine::LoadPath::kMapped);
  }

  const std::size_t each = ResidentBytesOf(pa);
  SketchPod pod(each);  // exactly one resident: every swap evicts a mapping
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));

  // Reference answers on private engines, batched and scalar.
  const std::vector<core::Itemset> queries = {
      core::Itemset(12, {1, 3}), core::Itemset(12, {0, 2, 5}),
      core::Itemset(12, {4}), core::Itemset(12, {2, 3, 7})};
  std::vector<double> expect_a, expect_b;
  Engine::Open(pa)->estimate_many(queries, &expect_a);
  Engine::Open(pb)->estimate_many(queries, &expect_b);

  util::ThreadPool::SetDefaultThreadCount(2);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      const std::string name = (i % 2 == 0) ? "a" : "b";
      const std::vector<double>& expected =
          (i % 2 == 0) ? expect_a : expect_b;
      std::vector<double> answers;
      for (int round = 0; round < 25 && !failed.load(); ++round) {
        // Hold the engine across a batched query while other threads
        // force evictions; the mapping must stay valid until `engine`
        // goes out of scope.
        const auto engine = pod.Acquire(name);
        if (engine == nullptr) {
          failed.store(true);
          return;
        }
        engine->estimate_many(queries, &answers);
        if (answers != expected) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  const auto stats = pod.stats();
  EXPECT_GT(StatsFor(stats, "a").evictions +
                StatsFor(stats, "b").evictions,
            0u);
  EXPECT_LE(pod.resident_bytes(), each);
  util::ThreadPool::SetDefaultThreadCount(0);
}

/// An in-memory engine to publish (the ingest path never touches disk).
std::shared_ptr<const Engine> MakeEngine(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(n, 10, 0.4, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  EXPECT_TRUE(engine.has_value());
  return std::make_shared<const Engine>(std::move(*engine));
}

TEST(SketchPodTest, StreamSketchPublishLifecycle) {
  SketchPod pod;
  ASSERT_TRUE(pod.AddStream("live"));
  EXPECT_FALSE(pod.AddStream("live"));  // duplicate name
  EXPECT_TRUE(pod.Knows("live"));

  // Registered but nothing published: Acquire misses, epoch is 0.
  EXPECT_EQ(pod.Acquire("live"), nullptr);
  auto state = pod.SnapshotOf("live");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->epoch, 0u);
  EXPECT_FALSE(pod.SnapshotOf("nobody").has_value());

  EXPECT_EQ(pod.Publish("live", MakeEngine(200, 31), 200), 1u);
  EXPECT_EQ(pod.Publish("live", MakeEngine(450, 32), 450), 2u);
  state = pod.SnapshotOf("live");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->epoch, 2u);
  EXPECT_EQ(state->rows_seen, 450u);

  const auto engine = pod.Acquire("live");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->n(), 450u);  // the latest snapshot serves

  const auto stats = pod.stats();
  const SketchStats& live = StatsFor(stats, "live");
  EXPECT_EQ(live.publishes, 2u);
  EXPECT_TRUE(live.resident);
  EXPECT_EQ(live.loads, 0u);  // never touched a file
}

TEST(SketchPodTest, PublishAutoRegistersUnknownNames) {
  SketchPod pod;
  EXPECT_EQ(pod.Publish("implicit", MakeEngine(100, 33), 100), 1u);
  EXPECT_TRUE(pod.Knows("implicit"));
  ASSERT_NE(pod.Acquire("implicit"), nullptr);
}

TEST(SketchPodTest, WaitForEpochSemantics) {
  SketchPod pod;
  ASSERT_TRUE(pod.AddStream("live"));

  // Unknown name: the only false return.
  EXPECT_FALSE(pod.WaitForEpoch("nobody", 0, std::chrono::milliseconds(1)));

  // Timeout with nothing published: true, but epoch did not advance.
  SnapshotState state;
  EXPECT_TRUE(pod.WaitForEpoch("live", 0, std::chrono::milliseconds(10),
                               &state));
  EXPECT_EQ(state.epoch, 0u);

  // Already satisfied: returns immediately, no publish needed.
  pod.Publish("live", MakeEngine(100, 34), 100);
  EXPECT_TRUE(pod.WaitForEpoch("live", 0, std::chrono::milliseconds(60000),
                               &state));
  EXPECT_EQ(state.epoch, 1u);
  EXPECT_EQ(state.rows_seen, 100u);

  // Wake-on-publish from another thread (run under the CI tsan job).
  std::thread publisher([&pod] {
    pod.Publish("live", MakeEngine(250, 35), 250);
  });
  EXPECT_TRUE(pod.WaitForEpoch("live", 1, std::chrono::milliseconds(60000),
                               &state));
  publisher.join();
  EXPECT_EQ(state.epoch, 2u);
  EXPECT_EQ(state.rows_seen, 250u);
}

// Published snapshots are pinned: they count against the budget and
// displace file-backed residents, but are never eviction victims
// themselves (there is no file to reload them from).
TEST(SketchPodTest, PublishedSnapshotsArePinnedUnderBudgetPressure) {
  const std::string pa = MakeSketchFile("pod_pin_a", 400, 10, 40);
  const std::size_t each = ResidentBytesOf(pa);
  auto snapshot = MakeEngine(400, 41);
  const std::size_t snapshot_bytes = snapshot->resident_bytes();

  // Budget fits the snapshot plus one file-backed resident, not two.
  SketchPod pod(snapshot_bytes + each);
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", MakeSketchFile("pod_pin_b", 400, 10, 42)));
  pod.Publish("live", std::move(snapshot), 400);

  // Loading a fits; loading b must evict a, never the published live.
  ASSERT_NE(pod.Acquire("a"), nullptr);
  EXPECT_EQ(pod.resident_bytes(), snapshot_bytes + each);
  ASSERT_NE(pod.Acquire("b"), nullptr);
  {
    const auto stats = pod.stats();
    EXPECT_TRUE(StatsFor(stats, "live").resident);
    EXPECT_FALSE(StatsFor(stats, "a").resident);
    EXPECT_TRUE(StatsFor(stats, "b").resident);
    EXPECT_EQ(StatsFor(stats, "live").evictions, 0u);
  }

  // Even a budget below the snapshot itself cannot evict it -- only
  // the file-backed residents go.
  pod.SetByteBudget(1);
  const auto stats = pod.stats();
  EXPECT_TRUE(StatsFor(stats, "live").resident);
  EXPECT_FALSE(StatsFor(stats, "b").resident);
  EXPECT_EQ(StatsFor(stats, "live").evictions, 0u);
  ASSERT_NE(pod.Acquire("live"), nullptr);
}

// The pod destroys the engines it lets go of only after releasing its
// lock. The replaced snapshot's deleter probes the pod from another
// thread: if the deleter ran under mu_, the probe would block until
// Publish returned, and the deleter's bounded wait would time out.
TEST(SketchPodTest, ReplacedSnapshotIsDestroyedOutsideThePodLock) {
  SketchPod pod;
  std::future<bool> probe;  // outlives the deleter, so nothing deadlocks
  bool probe_finished = false;
  bool deleted = false;
  {
    util::Rng rng(36);
    const core::Database db = data::UniformRandom(200, 10, 0.4, rng);
    auto built = Engine::Build(db, "SUBSAMPLE", Params(), rng);
    ASSERT_TRUE(built.has_value());
    std::shared_ptr<const Engine> first(
        new Engine(std::move(*built)), [&](const Engine* engine) {
          probe = std::async(std::launch::async,
                             [&pod] { return pod.Knows("live"); });
          probe_finished = probe.wait_for(std::chrono::milliseconds(300)) ==
                           std::future_status::ready;
          deleted = true;
          delete engine;
        });
    ASSERT_EQ(pod.Publish("live", std::move(first), 200), 1u);
  }
  EXPECT_FALSE(deleted);  // the pod holds the only reference

  ASSERT_EQ(pod.Publish("live", MakeEngine(300, 37), 300), 2u);
  ASSERT_TRUE(deleted);
  EXPECT_TRUE(probe_finished)
      << "the replaced snapshot was destroyed while the pod lock was held";
  EXPECT_TRUE(probe.get());
}

// Every Acquire that returns an engine is exactly one of: a hit, the
// load that installed it, or a duplicate load that lost the race to a
// concurrent opener of the same name.
TEST(SketchPodTest, ChurnAccountsEveryServedAcquireExactlyOnce) {
  const std::vector<std::string> paths = {
      MakeSketchFile("pod_acct_a", 400, 10, 50),
      MakeSketchFile("pod_acct_b", 400, 10, 51),
      MakeSketchFile("pod_acct_c", 400, 10, 52)};
  const std::size_t each = ResidentBytesOf(paths[0]);
  SketchPod pod(2 * each);  // two of three resident: names keep reloading
  const std::vector<std::string> names = {"a", "b", "c"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(pod.AddSketch(names[i], paths[i]));
  }

  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t mine = 0;
      for (std::size_t round = 0; round < 150; ++round) {
        if (pod.Acquire(names[(t + round) % names.size()]) != nullptr) {
          ++mine;
        }
      }
      served.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t accounted = 0;
  std::uint64_t evictions = 0;
  for (const SketchStats& s : pod.stats()) {
    accounted += s.hits + s.loads + s.duplicate_loads;
    evictions += s.evictions;
  }
  EXPECT_EQ(served.load(), 4u * 150u);
  EXPECT_EQ(accounted, served.load());
  EXPECT_GT(evictions, 0u);
  EXPECT_LE(pod.resident_bytes(), 2 * each);
  // A bypass is a load that was not installed, never an extra Acquire.
  for (const SketchStats& s : pod.stats()) EXPECT_LE(s.bypasses, s.loads);
}

// Frequency-gated admission: a name colder than the LRU victim is
// answered by a freshly opened engine that is not installed, so the
// hot residents stay and nothing is evicted for it. Repeated Acquires
// warm it up: once its count reaches the victim's it is admitted (ties
// admit) and the victim is evicted.
TEST(SketchPodTest, ColdNameBypassesUntilAsHotAsTheVictim) {
  const std::string pa = MakeSketchFile("pod_adm_a", 400, 10, 60);
  const std::string pb = MakeSketchFile("pod_adm_b", 400, 10, 61);
  const std::string pc = MakeSketchFile("pod_adm_c", 400, 10, 62);
  const std::size_t each = ResidentBytesOf(pa);
  SketchPod pod(2 * each);
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));
  ASSERT_TRUE(pod.AddSketch("c", pc));
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(pod.Acquire("a"), nullptr);  // a ends up the LRU victim
    ASSERT_NE(pod.Acquire("b"), nullptr);
  }

  const std::vector<core::Itemset> queries = {
      core::Itemset(10, {1, 3}), core::Itemset(10, {0, 2, 5}),
      core::Itemset(10, {4})};
  std::vector<double> expected, answers;
  Engine::Open(pc)->estimate_many(queries, &expected);
  {
    const auto engine = pod.Acquire("c");
    ASSERT_NE(engine, nullptr);
    engine->estimate_many(queries, &answers);
    EXPECT_EQ(answers, expected);
  }
  {
    const auto stats = pod.stats();
    EXPECT_TRUE(StatsFor(stats, "a").resident);
    EXPECT_TRUE(StatsFor(stats, "b").resident);
    EXPECT_FALSE(StatsFor(stats, "c").resident);
    EXPECT_EQ(StatsFor(stats, "c").loads, 1u);
    EXPECT_EQ(StatsFor(stats, "c").bypasses, 1u);
    for (const SketchStats& s : stats) EXPECT_EQ(s.evictions, 0u) << s.name;
    EXPECT_EQ(pod.resident_bytes(), 2 * each);
  }

  ASSERT_NE(pod.Acquire("c"), nullptr);  // second: still colder than a
  EXPECT_EQ(StatsFor(pod.stats(), "c").bypasses, 2u);
  ASSERT_NE(pod.Acquire("c"), nullptr);  // third: as hot as a
  const auto stats = pod.stats();
  EXPECT_TRUE(StatsFor(stats, "c").resident);
  EXPECT_EQ(StatsFor(stats, "c").loads, 3u);
  EXPECT_EQ(StatsFor(stats, "c").bypasses, 2u);
  EXPECT_FALSE(StatsFor(stats, "a").resident);
  EXPECT_EQ(StatsFor(stats, "a").evictions, 1u);
  EXPECT_TRUE(StatsFor(stats, "b").resident);
  EXPECT_EQ(pod.resident_bytes(), 2 * each);
}

// Counts age: a name that was hot but goes unused while the pod keeps
// serving others loses its protection after enough aging periods, and
// a single Acquire of a cold name then evicts it.
TEST(SketchPodTest, AgingEndsTheProtectionOfAnIdleHotName) {
  const std::string pa = MakeSketchFile("pod_age_a", 400, 10, 66);
  const std::string pb = MakeSketchFile("pod_age_b", 400, 10, 67);
  const std::string pc = MakeSketchFile("pod_age_c", 400, 10, 68);
  const std::size_t each = ResidentBytesOf(pa);
  SketchPod pod(2 * each);
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));
  ASSERT_TRUE(pod.AddSketch("c", pc));
  for (int i = 0; i < 8; ++i) ASSERT_NE(pod.Acquire("a"), nullptr);
  ASSERT_NE(pod.Acquire("b"), nullptr);  // a is now the LRU victim

  ASSERT_NE(pod.Acquire("c"), nullptr);
  EXPECT_EQ(StatsFor(pod.stats(), "c").bypasses, 1u);  // a is protected

  // Many aging periods of traffic that never touches a.
  for (int i = 0; i < 300; ++i) ASSERT_NE(pod.Acquire("b"), nullptr);

  ASSERT_NE(pod.Acquire("c"), nullptr);
  const auto stats = pod.stats();
  EXPECT_EQ(StatsFor(stats, "c").bypasses, 1u);  // admitted this time
  EXPECT_TRUE(StatsFor(stats, "c").resident);
  EXPECT_FALSE(StatsFor(stats, "a").resident);
  EXPECT_EQ(StatsFor(stats, "a").evictions, 1u);
  EXPECT_TRUE(StatsFor(stats, "b").resident);
}

// The over-budget rule is gated too: a sketch larger than the whole
// budget is admitted alone only when it is not colder than the
// residents it would evict, and is otherwise served as a bypass.
TEST(SketchPodTest, OverBudgetSketchColderThanTheResidentIsBypassed) {
  const std::string pa = MakeSketchFile("pod_bigadm_a", 300, 10, 69);
  const std::string pb = MakeSketchFile("pod_bigadm_b", 300, 10, 70);
  const std::size_t each = ResidentBytesOf(pa);
  SketchPod pod(each / 2);
  ASSERT_TRUE(pod.AddSketch("a", pa));
  ASSERT_TRUE(pod.AddSketch("b", pb));
  for (int i = 0; i < 3; ++i) ASSERT_NE(pod.Acquire("a"), nullptr);
  ASSERT_NE(pod.Acquire("b"), nullptr);
  const auto stats = pod.stats();
  EXPECT_TRUE(StatsFor(stats, "a").resident);
  EXPECT_EQ(StatsFor(stats, "a").evictions, 0u);
  EXPECT_FALSE(StatsFor(stats, "b").resident);
  EXPECT_EQ(StatsFor(stats, "b").bypasses, 1u);
  EXPECT_EQ(pod.resident_bytes(), each);
}

}  // namespace
}  // namespace ifsketch::serve
