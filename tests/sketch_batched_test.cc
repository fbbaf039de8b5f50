// Batched-vs-scalar equivalence: EstimateMany / AreFrequent must return
// bit-identical answers to N scalar calls on the same view. The batched
// paths share work (column-store transposes, per-row coefficients) but
// are contractually forbidden from changing a single answer.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/column_store.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "sketch/builtin_algorithms.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch {
namespace {

core::SketchParams EstimatorParams() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

// A query mix that exercises every SupportCounts fast path: empty, 1-,
// 2- and 3-attribute itemsets, duplicates included.
std::vector<core::Itemset> MixedQueries(std::size_t d, util::Rng& rng) {
  std::vector<core::Itemset> queries;
  queries.emplace_back(d);  // empty itemset
  for (std::size_t a = 0; a < d; ++a) {
    queries.emplace_back(d, std::vector<std::size_t>{a});
  }
  for (int i = 0; i < 200; ++i) {
    core::Itemset t(d);
    const std::size_t size = 1 + rng.UniformInt(3);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    }
    queries.push_back(std::move(t));
  }
  queries.push_back(queries.back());  // duplicate
  return queries;
}

class BatchedEquivalenceTest : public testing::TestWithParam<const char*> {};

TEST_P(BatchedEquivalenceTest, EstimateManyMatchesScalarBitForBit) {
  util::Rng rng(99);
  const std::size_t d = 12;
  const core::Database db = data::PowerLawBaskets(800, d, 1.0, 0.5, 4, 3,
                                                  0.2, rng);
  const core::SketchParams params = EstimatorParams();
  const auto algo = sketch::BuiltinRegistry().Create(GetParam());
  ASSERT_NE(algo, nullptr);
  const auto summary = algo->Build(db, params, rng);
  const auto estimator =
      algo->LoadEstimator(summary, params, d, db.num_rows());

  const auto queries = MixedQueries(d, rng);
  std::vector<double> batched;
  estimator->EstimateMany(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double scalar = estimator->EstimateFrequency(queries[i]);
    EXPECT_EQ(scalar, batched[i])
        << GetParam() << " diverged on query " << i << " ("
        << queries[i].ToString() << ")";
  }
}

TEST_P(BatchedEquivalenceTest, AreFrequentMatchesScalarBitForBit) {
  util::Rng rng(100);
  const std::size_t d = 12;
  const core::Database db = data::PowerLawBaskets(800, d, 1.0, 0.5, 4, 3,
                                                  0.2, rng);
  core::SketchParams params = EstimatorParams();
  params.answer = core::Answer::kIndicator;
  const auto algo = sketch::BuiltinRegistry().Create(GetParam());
  ASSERT_NE(algo, nullptr);
  // MEDIAN-BOOST only defines the estimator view; its indicator goes
  // through the generic ThresholdIndicator, which this still exercises.
  if (std::string(GetParam()) == "MEDIAN-BOOST(SUBSAMPLE)") {
    params.answer = core::Answer::kEstimator;
  }
  const auto summary = algo->Build(db, params, rng);
  const auto indicator =
      algo->LoadIndicator(summary, params, d, db.num_rows());

  const auto queries = MixedQueries(d, rng);
  std::vector<bool> batched;
  indicator->AreFrequent(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(indicator->IsFrequent(queries[i]), batched[i])
        << GetParam() << " diverged on query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOverridingEstimators, BatchedEquivalenceTest,
                         testing::Values("SUBSAMPLE", "SUBSAMPLE-WOR",
                                         "RELEASE-DB", "IMPORTANCE-SAMPLE",
                                         "STREAM-SUBSAMPLE",
                                         "STREAM-IMPORTANCE",
                                         "MEDIAN-BOOST(SUBSAMPLE)"),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

TEST(ColumnStoreBatchTest, SupportCountsMatchesScalar) {
  util::Rng rng(7);
  const core::Database db = data::UniformRandom(500, 9, 0.5, rng);
  const core::ColumnStore store(db);
  const auto queries = MixedQueries(9, rng);
  std::vector<std::size_t> counts;
  store.SupportCounts(queries, &counts);
  ASSERT_EQ(counts.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(store.SupportCount(queries[i]), counts[i]) << i;
    EXPECT_EQ(db.SupportCount(queries[i]), counts[i]) << i;
  }
}

// An Apriori-level-shaped batch (runs of queries sharing their
// (k-1)-prefix, interleaved with isolated queries) exercises every path
// of the prefix-sharing kernel; counts must match the scalar fold at
// every thread count.
TEST(ColumnStoreBatchTest, PrefixSharedLevelMatchesScalarAtEveryThreadCount) {
  util::Rng rng(17);
  const std::size_t d = 16;
  const core::Database db = data::UniformRandom(700, d, 0.4, rng);
  const core::ColumnStore store(db);

  std::vector<core::Itemset> queries;
  // Sibling runs {0,1,x}, {0,2,x}, {5,6,7,x} -- heads materialize a
  // prefix, siblings reuse it.
  for (std::size_t x = 2; x < d; ++x) {
    queries.emplace_back(d, std::vector<std::size_t>{0, 1, x});
  }
  for (std::size_t x = 3; x < d; ++x) {
    queries.emplace_back(d, std::vector<std::size_t>{0, 2, x});
  }
  // Isolated queries between runs take the fused AndCountMany path and
  // must invalidate the cached prefix.
  queries.emplace_back(d, std::vector<std::size_t>{3, 9, 11, 14});
  for (std::size_t x = 8; x < d; ++x) {
    queries.emplace_back(d, std::vector<std::size_t>{5, 6, 7, x});
  }
  queries.emplace_back(d);  // empty
  queries.emplace_back(d, std::vector<std::size_t>{4});
  queries.emplace_back(d, std::vector<std::size_t>{4, 10});

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool::SetDefaultThreadCount(threads);
    std::vector<std::size_t> counts;
    store.SupportCounts(queries, &counts);
    ASSERT_EQ(counts.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(db.SupportCount(queries[i]), counts[i])
          << "query " << i << " at " << threads << " threads";
    }
  }
  util::ThreadPool::SetDefaultThreadCount(0);
}

TEST(ColumnStoreBatchTest, AdoptedColumnsMatchTransposedStore) {
  util::Rng rng(18);
  const std::size_t d = 11;
  const core::Database db = data::UniformRandom(300, d, 0.5, rng);
  std::vector<util::BitVector> columns;
  columns.reserve(d);
  for (std::size_t j = 0; j < d; ++j) columns.push_back(db.Column(j));
  // O(d) adopting constructor vs O(n*d) transpose: same store.
  const core::ColumnStore adopted(db.num_rows(), std::move(columns));
  const core::ColumnStore transposed(db);
  ASSERT_EQ(adopted.num_rows(), transposed.num_rows());
  ASSERT_EQ(adopted.num_columns(), transposed.num_columns());
  const auto queries = MixedQueries(d, rng);
  std::vector<std::size_t> a, b;
  adopted.SupportCounts(queries, &a);
  transposed.SupportCounts(queries, &b);
  EXPECT_EQ(a, b);
}

TEST(BatchedMiningTest, BatchedMinerMatchesScalarMiner) {
  util::Rng rng(8);
  const std::size_t d = 14;
  const core::Database db = data::PowerLawBaskets(2000, d, 1.0, 0.5, 4, 3,
                                                  0.2, rng);
  const auto algo = sketch::BuiltinRegistry().Create("SUBSAMPLE");
  const auto params = EstimatorParams();
  const auto summary = algo->Build(db, params, rng);
  const auto estimator =
      algo->LoadEstimator(summary, params, d, db.num_rows());

  mining::AprioriOptions opt;
  opt.min_frequency = 0.1;
  opt.max_size = 3;
  const auto scalar = mining::MineWithEstimator(*estimator, d, opt);
  const auto batched = mining::MineWithEstimatorBatched(*estimator, d, opt);
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].itemset, batched[i].itemset) << i;
    EXPECT_EQ(scalar[i].frequency, batched[i].frequency) << i;
  }
}

}  // namespace
}  // namespace ifsketch
