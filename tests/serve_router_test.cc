// Router: deterministic name -> shard assignment, and request coalescing
// that returns exactly the answers each client would get serially (the
// fused batches are answer-preserving by the batched-kernel contract).

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

// Many clients hammer the same sketch concurrently; whatever fusion the
// group-commit slot performs, every client must receive exactly the
// answers of its own serial request.
TEST(RouterTest, CoalescedAnswersEqualSerialAnswers) {
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
  // Every request was served...
  EXPECT_EQ(stats.requests, kClients * kRounds);
  // ...by at most that many engine batches (strictly fewer when any
  // fusion happened; equality is legal on a machine that never
  // overlapped two requests).
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GT(stats.batches, 0u);
  util::ThreadPool::SetDefaultThreadCount(0);
}

// Estimate and indicator requests interleave on one name: the drain
// split must fuse each flavor separately and still answer both exactly.
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

// A lone request (no batch in flight) runs on its own queries and answer
// vector instead of a fused copy; answers and counters must not notice.
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
  EXPECT_EQ(after.fused - before.fused, 0u);
  EXPECT_EQ(PodQueries(router, "s") - queries_before, 2 * queries.size());
}

// Followers that queue behind a long batch drain as one fused batch: the
// counters advance by exactly the requests and queries served, and every
// follower still gets its own serial answers.
TEST(RouterTest, FusedBatchCountsExactly) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("router_fused_counts", 30);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  // The leader's batch must outlast the followers' arrival.
  const auto slow = RandomQueries(200000, 31);
  constexpr std::size_t kFollowers = 3;
  std::vector<std::vector<core::Itemset>> batches;
  std::vector<std::vector<double>> expected(kFollowers);
  for (std::size_t f = 0; f < kFollowers; ++f) {
    batches.push_back(RandomQueries(20 + f, 32 + f));
    direct->estimate_many(batches[f], &expected[f]);
  }
  const std::uint64_t per_round =
      slow.size() + 20 * kFollowers + kFollowers * (kFollowers - 1) / 2;

  // Fusion depends on timing; retry until one round fused, checking the
  // exact counter advance on every round.
  bool fused_seen = false;
  for (int round = 0; round < 20 && !fused_seen; ++round) {
    const CoalesceStats before = router.coalesce_stats();
    const std::uint64_t queries_before = PodQueries(router, "s");
    std::atomic<bool> leader_done{false};
    std::thread leader([&] {
      std::vector<double> answers;
      EXPECT_EQ(router.EstimateMany("s", slow, &answers), RouteStatus::kOk);
      leader_done = true;
    });
    while (!leader_done && router.pod_health()[0].inflight == 0) {
      std::this_thread::yield();
    }
    std::vector<std::thread> followers;
    std::atomic<int> mismatches{0};
    for (std::size_t f = 0; f < kFollowers; ++f) {
      followers.emplace_back([&, f] {
        std::vector<double> answers;
        if (router.EstimateMany("s", batches[f], &answers) !=
                RouteStatus::kOk ||
            !BitIdentical(answers, expected[f])) {
          mismatches.fetch_add(1);
        }
      });
    }
    for (auto& th : followers) th.join();
    leader.join();
    EXPECT_EQ(mismatches.load(), 0);

    const CoalesceStats after = router.coalesce_stats();
    EXPECT_EQ(after.requests - before.requests, 1 + kFollowers);
    EXPECT_EQ(PodQueries(router, "s") - queries_before, per_round);
    const std::uint64_t fused = after.fused - before.fused;
    if (fused != 0) {
      fused_seen = true;
      // Exactly the followers that shared one drained batch were fused,
      // and that batch replaced their separate engine calls.
      EXPECT_GE(fused, 2u);
      EXPECT_EQ(after.batches - before.batches, 1 + kFollowers - fused + 1);
    }
  }
  EXPECT_TRUE(fused_seen);
}

}  // namespace
}  // namespace ifsketch::serve
