// Router: deterministic name -> shard assignment, and concurrent requests
// on one sketch that each run their own batch side by side, returning
// exactly the answers each client would get serially.

#include "serve/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch::serve {
namespace {

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

std::string MakeSketchFile(const std::string& stem, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(400, 12, 0.4, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  EXPECT_TRUE(engine.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(engine->Save(path));
  return path;
}

std::vector<core::Itemset> RandomQueries(std::size_t count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Itemset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(12);
    const std::size_t size = 1 + rng.UniformInt(3);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(12)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

std::vector<std::shared_ptr<SketchPod>> MakePods(std::size_t count) {
  std::vector<std::shared_ptr<SketchPod>> pods;
  for (std::size_t i = 0; i < count; ++i) {
    pods.push_back(std::make_shared<SketchPod>());
  }
  return pods;
}

TEST(RouterTest, ShardAssignmentIsDeterministicAndCoversPods) {
  Router router(MakePods(4));
  bool used[4] = {false, false, false, false};
  for (int i = 0; i < 64; ++i) {
    const std::string name = "sketch-" + std::to_string(i);
    const std::size_t shard = router.ShardOf(name);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(router.ShardOf(name), shard);  // pure function of the name
    used[shard] = true;
  }
  // FNV-1a over 64 names spreads across all 4 shards.
  EXPECT_TRUE(used[0] && used[1] && used[2] && used[3]);

  // Same names, independent router: identical assignment (no per-process
  // salt -- clients and restarts must agree).
  Router other(MakePods(4));
  for (int i = 0; i < 64; ++i) {
    const std::string name = "sketch-" + std::to_string(i);
    EXPECT_EQ(other.ShardOf(name), router.ShardOf(name));
  }
}

// Placement pinned across rewrites: ShardOf for fixed names at 1-5
// pods, as recorded from the replicated router's HRW winner (the top
// score of Mix64(fnv1a(name) ^ Mix64(pod + 1))). A changed hash, seed
// or tie rule moves names between pods -- and so between the files a
// multi-pod server already loaded -- so it must fail here, loudly.
TEST(RouterTest, ShardOfMatchesPinnedPlacement) {
  struct Pinned {
    const char* name;
    std::size_t shard[5];  // pod counts 1..5
  };
  const Pinned kPinned[] = {
      {"", {0, 1, 1, 3, 3}},
      {"a", {0, 1, 2, 2, 2}},
      {"b", {0, 1, 1, 3, 3}},
      {"hot", {0, 0, 0, 0, 0}},
      {"cold0", {0, 1, 1, 3, 4}},
      {"cold1", {0, 0, 0, 0, 0}},
      {"s", {0, 1, 1, 3, 4}},
      {"live", {0, 1, 1, 1, 1}},
      {"sketch-0", {0, 1, 1, 1, 1}},
      {"sketch-1", {0, 1, 1, 1, 1}},
      {"sketch-17", {0, 0, 0, 0, 4}},
      {"sketch-63", {0, 1, 1, 1, 4}},
      {"retail/2024", {0, 1, 2, 2, 2}},
      {"clicks.eu", {0, 1, 1, 1, 1}},
      {"ifsketch", {0, 0, 0, 0, 0}},
      {"a-much-longer-sketch-name-with-dashes", {0, 0, 0, 0, 0}},
  };
  for (std::size_t pods = 1; pods <= 5; ++pods) {
    Router router(MakePods(pods));
    // An independent router (another process, a restart) agrees.
    Router twin(MakePods(pods));
    for (const Pinned& pin : kPinned) {
      const std::size_t shard = router.ShardOf(pin.name);
      EXPECT_EQ(shard, pin.shard[pods - 1])
          << "\"" << pin.name << "\" at " << pods << " pods";
      EXPECT_EQ(twin.ShardOf(pin.name), shard) << pin.name;
    }
  }
}

TEST(RouterTest, AddSketchLandsOnOwningShardOnly) {
  Router router(MakePods(3));
  const std::string path = MakeSketchFile("router_shard", 21);
  ASSERT_TRUE(router.AddSketch("hello", path));
  EXPECT_FALSE(router.AddSketch("hello", path));  // duplicate
  const std::size_t owner = router.ShardOf("hello");
  for (std::size_t i = 0; i < router.pod_count(); ++i) {
    EXPECT_EQ(router.pods()[i]->Knows("hello"), i == owner) << i;
  }
  EXPECT_NE(router.Acquire("hello"), nullptr);
  EXPECT_EQ(router.Acquire("nobody"), nullptr);
}

// A pod that catalogs nothing is harmless, and a routed request tells
// an unknown name from a cataloged one that will not load.
TEST(RouterTest, EmptyPodAndUnloadableNamesFailCleanly) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("router_empty", 35);
  std::string on_zero = "a";
  // Find a name owned by pod 0, leaving pod 1 empty.
  while (router.ShardOf(on_zero) != 0) on_zero += "a";
  ASSERT_TRUE(router.AddSketch(on_zero, path));
  EXPECT_TRUE(router.pods()[1]->Names().empty());

  std::vector<double> answers;
  EXPECT_EQ(router.EstimateMany("unknown", RandomQueries(3, 1), &answers),
            RouteStatus::kUnknownSketch);
  EXPECT_EQ(router.Acquire("unknown"), nullptr);
  ASSERT_EQ(router.EstimateMany(on_zero, RandomQueries(3, 1), &answers),
            RouteStatus::kOk);

  ASSERT_TRUE(router.AddSketch("missing", path + ".does-not-exist"));
  EXPECT_EQ(router.EstimateMany("missing", RandomQueries(3, 1), &answers),
            RouteStatus::kLoadFailed);
  std::vector<bool> bits;
  EXPECT_EQ(router.AreFrequent("missing", RandomQueries(3, 1), &bits),
            RouteStatus::kLoadFailed);
  EXPECT_TRUE(router.Knows("missing"));
}

TEST(RouterTest, RoutesAndAnswersMatchDirectEngine) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("router_direct", 22);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(50, 23);

  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);
  std::vector<bool> expected_bits;
  direct->are_frequent(queries, &expected_bits);

  std::vector<double> answers;
  ASSERT_EQ(router.EstimateMany("s", queries, &answers), RouteStatus::kOk);
  EXPECT_EQ(answers, expected);
  std::vector<bool> bits;
  ASSERT_EQ(router.AreFrequent("s", queries, &bits), RouteStatus::kOk);
  EXPECT_EQ(bits, expected_bits);

  EXPECT_EQ(router.EstimateMany("nope", queries, &answers),
            RouteStatus::kUnknownSketch);
}

TEST(RouterTest, MismatchedUniverseFailsWithoutAborting) {
  Router router(MakePods(1));
  ASSERT_TRUE(router.AddSketch("s", MakeSketchFile("router_bad", 24)));
  std::vector<core::Itemset> wrong = {core::Itemset(99, {0, 98})};
  std::vector<double> answers;
  EXPECT_EQ(router.EstimateMany("s", wrong, &answers),
            RouteStatus::kUnsupportedQuery);
}

// Many clients hammer the same sketch concurrently; every client must
// receive exactly the answers of its own serial request, and every
// request is one engine batch of its own.
TEST(RouterTest, ConcurrentAnswersEqualSerialAnswers) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("router_fuse", 25);
  ASSERT_TRUE(router.AddSketch("s", path));

  constexpr std::size_t kClients = 8;
  constexpr int kRounds = 20;
  std::vector<std::vector<core::Itemset>> batches;
  std::vector<std::vector<double>> expected(kClients);
  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  for (std::size_t c = 0; c < kClients; ++c) {
    batches.push_back(RandomQueries(30 + c, 100 + c));
    direct->estimate_many(batches[c], &expected[c]);
  }

  util::ThreadPool::SetDefaultThreadCount(2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> answers;
      for (int r = 0; r < kRounds; ++r) {
        if (router.EstimateMany("s", batches[c], &answers) !=
                RouteStatus::kOk ||
            answers != expected[c]) {
          mismatches.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const CoalesceStats stats = router.coalesce_stats();
  EXPECT_EQ(stats.requests, kClients * kRounds);
  EXPECT_EQ(stats.batches, stats.requests);
  util::ThreadPool::SetDefaultThreadCount(0);
}

// Estimate and indicator requests interleave on one name and run
// concurrently on one engine: both flavors must stay bit-identical.
TEST(RouterTest, MixedFlavorCoalescingStaysExact) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("router_mixed", 26);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(40, 27);

  const auto direct = Engine::Open(path);
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);
  std::vector<bool> expected_bits;
  direct->are_frequent(queries, &expected_bits);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 6; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < 15; ++r) {
        if (c % 2 == 0) {
          std::vector<double> answers;
          if (router.EstimateMany("s", queries, &answers) !=
                  RouteStatus::kOk ||
              answers != expected) {
            mismatches.fetch_add(1);
            return;
          }
        } else {
          std::vector<bool> bits;
          if (router.AreFrequent("s", queries, &bits) != RouteStatus::kOk ||
              bits != expected_bits) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Queries counted for `name` across every pod's stats.
std::uint64_t PodQueries(const Router& router, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& pod : router.pods()) {
    for (const SketchStats& s : pod->stats()) {
      if (s.name == name) total += s.queries;
    }
  }
  return total;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A request runs on its own queries and answer vector: stale contents are
// replaced, and the counters advance by exactly one batch per request.
TEST(RouterTest, LoneRequestMatchesEngineAndCountsExactly) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("router_lone", 28);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(64, 29);
  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);
  std::vector<bool> expected_bits;
  direct->are_frequent(queries, &expected_bits);

  const CoalesceStats before = router.coalesce_stats();
  const std::uint64_t queries_before = PodQueries(router, "s");
  // Stale contents in the caller's vectors must be replaced, not kept.
  std::vector<double> answers(3, -1.0);
  ASSERT_EQ(router.EstimateMany("s", queries, &answers), RouteStatus::kOk);
  EXPECT_TRUE(BitIdentical(answers, expected));
  std::vector<bool> bits(200, true);
  ASSERT_EQ(router.AreFrequent("s", queries, &bits), RouteStatus::kOk);
  EXPECT_EQ(bits, expected_bits);

  const CoalesceStats after = router.coalesce_stats();
  EXPECT_EQ(after.batches - before.batches, 2u);
  EXPECT_EQ(after.requests - before.requests, 2u);
  EXPECT_EQ(PodQueries(router, "s") - queries_before, 2 * queries.size());
}

// A short request on a sketch that is busy with a long batch runs at
// once, beside the long batch, instead of waiting for it to finish.
TEST(RouterTest, ShortRequestIsNotHeldBehindALongBatchOnTheSameSketch) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("router_not_held", 30);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  const auto slow = RandomQueries(200000, 31);
  const auto quick = RandomQueries(20, 32);
  std::vector<double> expected;
  direct->estimate_many(quick, &expected);

  // Whether the short request lands inside the long batch's window
  // depends on scheduling, so a few rounds may miss; a router that
  // holds the short request until the long batch ends never overlaps.
  const obs::Gauge* inflight = router.registry().GetGauge(
      obs::LabeledName("serve_pod_inflight", "pod", "0"));
  bool overlapped = false;
  for (int round = 0; round < 20 && !overlapped; ++round) {
    const CoalesceStats before = router.coalesce_stats();
    const std::uint64_t queries_before = PodQueries(router, "s");
    std::atomic<bool> slow_done{false};
    std::thread slow_thread([&] {
      std::vector<double> answers;
      EXPECT_EQ(router.EstimateMany("s", slow, &answers), RouteStatus::kOk);
      slow_done = true;
    });
    while (!slow_done && inflight->Value() == 0) {
      std::this_thread::yield();
    }
    std::vector<double> answers;
    EXPECT_EQ(router.EstimateMany("s", quick, &answers), RouteStatus::kOk);
    EXPECT_TRUE(BitIdentical(answers, expected)) << round;
    overlapped = inflight->Value() > 0;
    slow_thread.join();
    // Overlapping requests are still counted exactly.
    const CoalesceStats after = router.coalesce_stats();
    EXPECT_EQ(after.requests - before.requests, 2u);
    EXPECT_EQ(after.batches - before.batches, 2u);
    EXPECT_EQ(PodQueries(router, "s") - queries_before,
              slow.size() + quick.size());
  }
  EXPECT_TRUE(overlapped);
}

}  // namespace
}  // namespace ifsketch::serve
