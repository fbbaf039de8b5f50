// Failure-injection and precondition tests: the library must fail loudly
// (IFSKETCH_CHECK aborts) on contract violations instead of silently
// producing wrong experiment conclusions.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/marginal.h"
#include "data/generators.h"
#include "ecc/gf256.h"
#include "ecc/reed_solomon.h"
#include "lowerbound/shattered_set.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/release_answers.h"
#include "util/bitio.h"
#include "util/bitvector.h"
#include "util/combinatorics.h"
#include "util/random.h"

namespace ifsketch {
namespace {

using DeathTest = ::testing::Test;

TEST(EdgeDeathTest, BitVectorSliceOutOfRange) {
  const util::BitVector v(10);
  EXPECT_DEATH(v.Slice(5, 6), "");
}

TEST(EdgeDeathTest, BitVectorMismatchedSizes) {
  const util::BitVector a(8);
  const util::BitVector b(9);
  EXPECT_DEATH(a.HammingDistance(b), "");
  EXPECT_DEATH(a.Contains(b), "");
}

TEST(EdgeDeathTest, BitReaderOverrun) {
  util::BitWriter w;
  w.WriteUint(3, 4);
  const util::BitVector bits = w.Finish();
  util::BitReader r(bits);
  r.ReadUint(4);
  EXPECT_DEATH(r.ReadBit(), "");
}

TEST(EdgeDeathTest, QuantizedRejectsOutOfRange) {
  util::BitWriter w;
  EXPECT_DEATH(w.WriteQuantized(1.5, 8), "");
  EXPECT_DEATH(w.WriteQuantized(-0.1, 8), "");
}

TEST(EdgeDeathTest, ItemsetAttributeOutOfUniverse) {
  EXPECT_DEATH(core::Itemset(4, {5}), "");
}

TEST(EdgeDeathTest, DatabaseRowWidthMismatch) {
  core::Database db(2, 4);
  EXPECT_DEATH(db.AppendRow(util::BitVector(5)), "");
}

TEST(EdgeDeathTest, FrequencyUniverseMismatch) {
  const core::Database db(3, 4);
  EXPECT_DEATH(db.Frequency(core::Itemset(5, {0})), "");
}

TEST(EdgeDeathTest, HorvitzThompsonQueryUniverseMismatch) {
  // The scalar Horvitz-Thompson query checks the universe, as the
  // batched path (ColumnStore::BatchWords) does.
  util::Rng rng(5);
  const core::Database db = data::UniformRandom(50, 6, 0.5, rng);
  core::SketchParams params;
  params.eps = 0.3;
  params.delta = 0.2;
  params.scope = core::Scope::kForEach;
  for (const char* name : {"IMPORTANCE-SAMPLE", "STREAM-IMPORTANCE"}) {
    const auto algo = sketch::BuiltinRegistry().Create(name);
    const auto estimator =
        algo->LoadEstimator(algo->Build(db, params, rng), params, 6, 50);
    EXPECT_DEATH(estimator->EstimateFrequency(core::Itemset(7, {0})), "")
        << name;
  }
}

TEST(EdgeDeathTest, RankSubsetRejectsUnsorted) {
  EXPECT_DEATH(util::RankSubset({3, 1}, 5), "");
}

TEST(EdgeDeathTest, UnrankRejectsRankTooLarge) {
  EXPECT_DEATH(util::UnrankSubset(util::Binomial(5, 2), 5, 2), "");
}

TEST(EdgeDeathTest, GF256NoInverseOfZero) {
  EXPECT_DEATH(ecc::GF256::Inv(0), "");
  EXPECT_DEATH(ecc::GF256::Div(3, 0), "");
}

TEST(EdgeDeathTest, ReedSolomonShapeChecks) {
  EXPECT_DEATH(ecc::ReedSolomon(256, 10), "");  // n > 255
  EXPECT_DEATH(ecc::ReedSolomon(10, 11), "");   // k > n
  ecc::ReedSolomon rs(10, 4);
  EXPECT_DEATH(rs.Encode(std::vector<std::uint8_t>(3)), "");
}

TEST(EdgeDeathTest, ShatteredSetNeedsRoom) {
  EXPECT_DEATH(lowerbound::ShatteredSet(3, 2), "");  // d < 2k'
}

TEST(EdgeDeathTest, ReleaseAnswersRefusesAbsurdShapes) {
  sketch::ReleaseAnswersSketch algo;
  core::SketchParams p;
  p.k = 30;
  p.answer = core::Answer::kIndicator;
  core::Database db(2, 100);  // C(100,30) astronomically large
  util::Rng rng(1);
  EXPECT_DEATH(algo.Build(db, p, rng), "");
}

TEST(EdgeDeathTest, MarginalGuardsHugeAttributeSets) {
  const core::Database db(2, 30);
  std::vector<std::size_t> attrs(25);
  for (std::size_t i = 0; i < attrs.size(); ++i) attrs[i] = i;
  EXPECT_DEATH(core::ComputeMarginal(db, attrs), "");
}

// Non-death edge behaviors.

TEST(EdgeTest, EmptyDatabaseFrequencyIsZero) {
  core::Database db(0, 4);
  EXPECT_EQ(db.Frequency(core::Itemset(4, {1})), 0.0);
}

TEST(EdgeTest, EmptyItemsetFrequencyIsOne) {
  core::Database db(3, 4);
  EXPECT_DOUBLE_EQ(db.Frequency(core::Itemset(4)), 1.0);
}

TEST(EdgeTest, FullItemsetOnZeroDatabase) {
  core::Database db(3, 4);
  EXPECT_DOUBLE_EQ(db.Frequency(core::Itemset(4, {0, 1, 2, 3})), 0.0);
}

TEST(EdgeTest, SliceOfZeroLengthIsEmpty) {
  const util::BitVector v(10);
  EXPECT_EQ(v.Slice(10, 0).size(), 0u);
}

TEST(EdgeTest, ConcatWithEmpty) {
  const util::BitVector v = util::BitVector::FromString("101");
  const util::BitVector empty(0);
  EXPECT_EQ(v.Concat(empty), v);
  EXPECT_EQ(empty.Concat(v), v);
}

}  // namespace
}  // namespace ifsketch
