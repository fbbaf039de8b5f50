#include "core/column_store.h"

#include <gtest/gtest.h>

#include "core/validate.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "sketch/subsample.h"
#include "util/combinatorics.h"

namespace ifsketch::core {
namespace {

// Words per column of a SUBSAMPLE estimator sketch (k = 3, for-all)
// at the given eps over d attributes.
std::size_t SampleWordsPerColumn(double eps, std::size_t d) {
  SketchParams p;
  p.k = 3;
  p.eps = eps;
  p.delta = 0.05;
  p.scope = Scope::kForAll;
  p.answer = Answer::kEstimator;
  return (sketch::SubsampleSketch::SampleCount(p, d) + 63) / 64;
}

// The work-sized fan-out rule on the served benchmark shapes (3-attribute
// queries over the benchmark's sketches): every serving batch runs
// inline, while a bulk batch splits into many chunks.
TEST(ColumnStoreTest, FanOutGrainRunsServedBatchesInline) {
  struct Shape {
    const char* name;
    std::size_t queries;
    std::size_t words_per_column;
  };
  const Shape inline_shapes[] = {
      {"serve_small", 16, SampleWordsPerColumn(0.05, 64)},
      {"ingest_live", 256, SampleWordsPerColumn(0.05, 32)},
      {"serve_churn", 64, SampleWordsPerColumn(0.02, 64)},
  };
  for (const Shape& s : inline_shapes) {
    const std::size_t words = s.queries * 3 * s.words_per_column;
    EXPECT_EQ(FanOutGrain(s.queries, words), s.queries) << s.name;
  }
  // serve_bulk: 4096 queries at ~1.1k words per column.
  const std::size_t bulk_words_per_column = SampleWordsPerColumn(0.01, 64);
  EXPECT_GT(bulk_words_per_column, 1000u);
  const std::size_t grain =
      FanOutGrain(4096, 4096 * 3 * bulk_words_per_column);
  EXPECT_LT(grain, 4096u);
  EXPECT_GE((4096 + grain - 1) / grain, 16u);

  // The boundary: two chunks' worth fans out, one word less does not.
  EXPECT_EQ(FanOutGrain(100, 2 * kFanOutChunkWords - 1), 100u);
  EXPECT_EQ(FanOutGrain(100, 2 * kFanOutChunkWords), 50u);
  EXPECT_EQ(FanOutGrain(0, 0), 0u);
}

TEST(ColumnStoreTest, BatchWordsIsAttributesTimesColumnWords) {
  util::Rng rng(2);
  const Database db = data::UniformRandom(130, 10, 0.45, rng);  // 3 words
  const ColumnStore cs(db);
  const std::vector<Itemset> ts = {Itemset(10), Itemset(10, {1}),
                                   Itemset(10, {2, 5, 9})};
  EXPECT_EQ(cs.BatchWords(ts), 4u * 3u);
}

TEST(ColumnStoreTest, MatchesRowStoreExhaustively) {
  util::Rng rng(1);
  const Database db = data::UniformRandom(200, 10, 0.45, rng);
  const ColumnStore cs(db);
  EXPECT_EQ(cs.num_rows(), 200u);
  EXPECT_EQ(cs.num_columns(), 10u);
  for (std::size_t k = 0; k <= 4; ++k) {
    for (const auto& attrs : util::AllSubsets(10, k)) {
      const Itemset t(10, attrs);
      EXPECT_EQ(cs.SupportCount(t), db.SupportCount(t));
      EXPECT_DOUBLE_EQ(cs.Frequency(t), db.Frequency(t));
    }
  }
}

TEST(ColumnStoreTest, EmptyItemsetIsAllRows) {
  util::Rng rng(2);
  const Database db = data::UniformRandom(33, 5, 0.2, rng);
  const ColumnStore cs(db);
  EXPECT_EQ(cs.SupportCount(Itemset(5)), 33u);
  EXPECT_DOUBLE_EQ(cs.Frequency(Itemset(5)), 1.0);
}

TEST(ColumnStoreTest, EmptyDatabase) {
  const Database db(0, 4);
  const ColumnStore cs(db);
  EXPECT_EQ(cs.Frequency(Itemset(4, {0})), 0.0);
}

TEST(ColumnStoreTest, ColumnsMatchSource) {
  util::Rng rng(3);
  const Database db = data::UniformRandom(70, 8, 0.5, rng);
  const ColumnStore cs(db);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(cs.Column(j), db.Column(j));
  }
}

TEST(ColumnStoreTest, DrivesMinerIdentically) {
  util::Rng rng(4);
  const Database db =
      data::PowerLawBaskets(600, 16, 1.0, 0.5, 3, 3, 0.25, rng);
  const ColumnStore cs(db);
  mining::AprioriOptions opt;
  opt.min_frequency = 0.105;
  opt.max_size = 3;
  const auto via_rows = mining::MineDatabase(db, opt);
  const auto via_cols = mining::MineFrequentItemsets(
      16, [&cs](const Itemset& t) { return cs.Frequency(t); }, opt);
  ASSERT_EQ(via_rows.size(), via_cols.size());
  for (std::size_t i = 0; i < via_rows.size(); ++i) {
    EXPECT_EQ(via_rows[i].itemset, via_cols[i].itemset);
    EXPECT_DOUBLE_EQ(via_rows[i].frequency, via_cols[i].frequency);
  }
}

TEST(ColumnStoreTest, UniverseMismatchDies) {
  const Database db(4, 6);
  const ColumnStore cs(db);
  EXPECT_DEATH(cs.SupportCount(Itemset(7, {0})), "");
}

}  // namespace
}  // namespace ifsketch::core
