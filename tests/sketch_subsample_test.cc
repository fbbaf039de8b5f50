#include "sketch/subsample.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/validate.h"
#include "data/generators.h"
#include "util/stats.h"

namespace ifsketch::sketch {
namespace {

core::SketchParams Params(core::Scope scope, core::Answer answer, double eps,
                          double delta, std::size_t k) {
  core::SketchParams p;
  p.k = k;
  p.eps = eps;
  p.delta = delta;
  p.scope = scope;
  p.answer = answer;
  return p;
}

TEST(SubsampleTest, SampleCountFollowsLemma9) {
  const std::size_t d = 20;
  const auto fe_ind = Params(core::Scope::kForEach, core::Answer::kIndicator,
                             0.1, 0.05, 2);
  const auto fe_est = Params(core::Scope::kForEach, core::Answer::kEstimator,
                             0.1, 0.05, 2);
  const auto fa_ind = Params(core::Scope::kForAll, core::Answer::kIndicator,
                             0.1, 0.05, 2);
  const auto fa_est = Params(core::Scope::kForAll, core::Answer::kEstimator,
                             0.1, 0.05, 2);
  EXPECT_EQ(SubsampleSketch::SampleCount(fe_ind, d),
            util::IndicatorSampleCount(0.1, 0.05));
  EXPECT_EQ(SubsampleSketch::SampleCount(fe_est, d),
            util::EstimatorSampleCount(0.1, 0.05));
  EXPECT_EQ(SubsampleSketch::SampleCount(fa_ind, d),
            util::ForAllIndicatorSampleCount(0.1, 0.05, d, 2));
  EXPECT_EQ(SubsampleSketch::SampleCount(fa_est, d),
            util::ForAllEstimatorSampleCount(0.1, 0.05, d, 2));
}

TEST(SubsampleTest, SummarySizeIsSampleRowsTimesD) {
  util::Rng rng(7);
  const core::Database db = data::UniformRandom(500, 12, 0.3, rng);
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForEach, core::Answer::kEstimator,
                        0.1, 0.05, 2);
  const auto summary = algo.Build(db, p, rng);
  EXPECT_EQ(summary.size(), SubsampleSketch::SampleCount(p, 12) * 12);
  EXPECT_EQ(summary.size(), algo.PredictedSizeBits(500, 12, p));
}

TEST(SubsampleTest, SizeIndependentOfN) {
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForAll, core::Answer::kEstimator,
                        0.05, 0.05, 3);
  EXPECT_EQ(algo.PredictedSizeBits(100, 16, p),
            algo.PredictedSizeBits(10000000, 16, p));
}

TEST(SubsampleTest, DecodeSampleShape) {
  util::Rng rng(8);
  const core::Database db = data::UniformRandom(200, 10, 0.5, rng);
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForEach, core::Answer::kIndicator,
                        0.2, 0.1, 2);
  const auto summary = algo.Build(db, p, rng);
  const core::Database sample = core::Database::FromRowMajorBits(summary, 10);
  EXPECT_EQ(sample.num_columns(), 10u);
  EXPECT_EQ(sample.num_rows(), SubsampleSketch::SampleCount(p, 10));
}

TEST(SubsampleTest, SampledRowsComeFromDatabase) {
  // A database with a single distinct row: every sample must equal it.
  core::Database db(50, 8);
  for (std::size_t i = 0; i < 50; ++i) {
    db.Set(i, 1, true);
    db.Set(i, 6, true);
  }
  util::Rng rng(9);
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForEach, core::Answer::kEstimator,
                        0.2, 0.1, 2);
  const core::Database sample =
      core::Database::FromRowMajorBits(algo.Build(db, p, rng), 8);
  for (std::size_t i = 0; i < sample.num_rows(); ++i) {
    EXPECT_EQ(sample.Row(i), db.Row(0));
  }
}

TEST(SubsampleTest, ForEachEstimatorAccuracyEmpirical) {
  // Measure the per-query failure rate over many independent sketches;
  // it must be below delta.
  util::Rng rng(10);
  const core::Database db = data::UniformRandom(400, 10, 0.4, rng);
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForEach, core::Answer::kEstimator,
                        0.1, 0.1, 2);
  const core::Itemset t(10, {2, 7});
  const double truth = db.Frequency(t);
  int failures = 0;
  constexpr int kTrials = 150;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto summary = algo.Build(db, p, rng);
    const auto est = algo.LoadEstimator(summary, p, 10, 400);
    if (std::fabs(est->EstimateFrequency(t) - truth) > p.eps) ++failures;
  }
  EXPECT_LE(failures, static_cast<int>(kTrials * p.delta));
}

TEST(SubsampleTest, ForAllEstimatorValidWithHighProbability) {
  util::Rng rng(11);
  const core::Database db = data::UniformRandom(300, 9, 0.4, rng);
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForAll, core::Answer::kEstimator,
                        0.1, 0.05, 2);
  int invalid = 0;
  constexpr int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto summary = algo.Build(db, p, rng);
    const auto est = algo.LoadEstimator(summary, p, 9, 300);
    const auto report =
        core::ValidateEstimatorExhaustive(db, *est, 2, p.eps);
    if (!report.valid()) ++invalid;
  }
  // delta = 5%; allow slack for only 30 trials.
  EXPECT_LE(invalid, 4);
}

TEST(SubsampleTest, ForAllIndicatorValidWithHighProbability) {
  util::Rng rng(12);
  const core::Database db = data::PlantedItemsets(
      400, 8, {{{1, 3}, 0.5}, {{2, 5}, 0.02}}, 0.05, rng);
  SubsampleSketch algo;
  const auto p = Params(core::Scope::kForAll, core::Answer::kIndicator,
                        0.2, 0.05, 2);
  int invalid = 0;
  constexpr int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto summary = algo.Build(db, p, rng);
    const auto ind = algo.LoadIndicator(summary, p, 8, 400);
    if (!core::ValidateIndicatorExhaustive(db, *ind, 2, p.eps).valid()) {
      ++invalid;
    }
  }
  EXPECT_LE(invalid, 4);
}

TEST(SubsampleTest, EstimatorNeedsQuadraticallyMoreSamplesThanIndicator) {
  const auto ind = Params(core::Scope::kForEach, core::Answer::kIndicator,
                          0.001, 0.05, 2);
  const auto est = Params(core::Scope::kForEach, core::Answer::kEstimator,
                          0.001, 0.05, 2);
  const double ratio =
      static_cast<double>(SubsampleSketch::SampleCount(est, 16)) /
      static_cast<double>(SubsampleSketch::SampleCount(ind, 16));
  // eps^-2 / eps^-1 = 1000; the Chernoff constants (16 vs 1/2) divide
  // that by 32, still leaving a wide gap.
  EXPECT_GT(ratio, 10.0);
}

}  // namespace
}  // namespace ifsketch::sketch
