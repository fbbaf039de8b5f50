#include "sketch/subsample.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/validate.h"
#include "data/generators.h"
#include "util/stats.h"

namespace ifsketch::sketch {
namespace {

core::SketchParams Params(double eps, core::Scope scope,
                          core::Answer answer) {
  core::SketchParams p;
  p.k = 2;
  p.eps = eps;
  p.delta = 0.05;
  p.scope = scope;
  p.answer = answer;
  return p;
}

TEST(SubsampleWorTest, SummaryFormatCompatible) {
  util::Rng rng(1);
  const core::Database db = data::UniformRandom(5000, 12, 0.4, rng);
  SubsampleWithoutReplacementSketch wor;
  const auto p = Params(0.1, core::Scope::kForEach,
                        core::Answer::kEstimator);
  const auto summary = wor.Build(db, p, rng);
  EXPECT_EQ(summary.size(), wor.PredictedSizeBits(5000, 12, p));
  // Loaders are inherited: the summary decodes as a plain sample.
  const core::Database sample = core::Database::FromRowMajorBits(summary, 12);
  EXPECT_EQ(sample.num_rows(), SubsampleSketch::SampleCount(p, 12));
}

TEST(SubsampleWorTest, SampledRowsAreDistinctRows) {
  // With distinct database rows and s <= n, a WOR sample never repeats.
  util::Rng rng(2);
  core::Database db(4000, 13);
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    for (std::size_t b = 0; b < 12; ++b) {
      if ((i >> b) & 1u) db.Set(i, b, true);
    }
    db.Set(i, 12, true);  // keep rows nonzero
  }
  SubsampleWithoutReplacementSketch wor;
  const auto p = Params(0.1, core::Scope::kForEach,
                        core::Answer::kEstimator);
  const core::Database sample =
      core::Database::FromRowMajorBits(wor.Build(db, p, rng), 13);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < sample.num_rows(); ++i) {
    EXPECT_TRUE(seen.insert(sample.Row(i).ToString()).second) << i;
  }
}

TEST(SubsampleWorTest, FallsBackWhenSampleExceedsRows) {
  util::Rng rng(3);
  const core::Database db = data::UniformRandom(20, 10, 0.4, rng);
  SubsampleWithoutReplacementSketch wor;
  // eps small enough that s > 20 rows.
  const auto p = Params(0.02, core::Scope::kForEach,
                        core::Answer::kEstimator);
  ASSERT_GT(SubsampleSketch::SampleCount(p, 10), 20u);
  const auto summary = wor.Build(db, p, rng);
  EXPECT_EQ(summary.size(), wor.PredictedSizeBits(20, 10, p));
}

TEST(SubsampleWorTest, ValidForAllEstimator) {
  util::Rng rng(4);
  const core::Database db = data::UniformRandom(100000, 9, 0.4, rng);
  SubsampleWithoutReplacementSketch wor;
  const auto p =
      Params(0.1, core::Scope::kForAll, core::Answer::kEstimator);
  int invalid = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto summary = wor.Build(db, p, rng);
    const auto est = wor.LoadEstimator(summary, p, 9, db.num_rows());
    if (!core::ValidateEstimatorExhaustive(db, *est, 2, p.eps).valid()) {
      ++invalid;
    }
  }
  EXPECT_LE(invalid, 1);
}

TEST(SubsampleWorTest, NoWorseThanWithReplacement) {
  // Hypergeometric vs binomial: WOR error should not exceed WR error by
  // more than noise, and typically is smaller when s is a sizable
  // fraction of n.
  util::Rng rng(5);
  const core::Database db =
      data::PlantedItemsets(2500, 10, {{{2, 6}, 0.3}}, 0.1, rng);
  const core::Itemset t(10, {2, 6});
  const double truth = db.Frequency(t);
  const auto p = Params(0.05, core::Scope::kForEach,
                        core::Answer::kEstimator);
  SubsampleSketch wr;
  SubsampleWithoutReplacementSketch wor;
  util::RunningStat e_wr, e_wor;
  for (int trial = 0; trial < 80; ++trial) {
    {
      const auto s = wr.Build(db, p, rng);
      e_wr.Add(std::fabs(
          wr.LoadEstimator(s, p, 10, 2500)->EstimateFrequency(t) - truth));
    }
    {
      const auto s = wor.Build(db, p, rng);
      e_wor.Add(std::fabs(
          wor.LoadEstimator(s, p, 10, 2500)->EstimateFrequency(t) - truth));
    }
  }
  EXPECT_LE(e_wor.Mean(), e_wr.Mean() * 1.25);
}

}  // namespace
}  // namespace ifsketch::sketch
