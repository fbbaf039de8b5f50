#include "sketch/release_db.h"

#include <gtest/gtest.h>

#include "core/validate.h"
#include "data/generators.h"

namespace ifsketch::sketch {
namespace {

class ReleaseDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(55);
    db_ = data::UniformRandom(40, 10, 0.4, rng);
    params_.k = 2;
    params_.eps = 0.1;
    params_.delta = 0.05;
  }
  core::Database db_;
  core::SketchParams params_;
  ReleaseDbSketch algo_;
  util::Rng build_rng_{77};
};

TEST_F(ReleaseDbTest, SummarySizeIsExactlyNd) {
  const auto summary = algo_.Build(db_, params_, build_rng_);
  EXPECT_EQ(summary.size(), db_.num_rows() * db_.num_columns());
  EXPECT_EQ(summary.size(),
            algo_.PredictedSizeBits(db_.num_rows(), db_.num_columns(),
                                    params_));
}

TEST_F(ReleaseDbTest, DecodeRecoversDatabaseExactly) {
  const auto summary = algo_.Build(db_, params_, build_rng_);
  const core::Database decoded =
      core::Database::FromRowMajorBits(summary, db_.num_columns());
  EXPECT_EQ(decoded, db_);
}

TEST_F(ReleaseDbTest, EstimatorIsExact) {
  const auto summary = algo_.Build(db_, params_, build_rng_);
  const auto est = algo_.LoadEstimator(summary, params_, db_.num_columns(),
                                       db_.num_rows());
  const auto report =
      core::ValidateEstimatorExhaustive(db_, *est, 2, 1e-12);
  EXPECT_TRUE(report.valid());
  EXPECT_EQ(report.max_abs_error, 0.0);
}

TEST_F(ReleaseDbTest, IndicatorValidAtAnyEps) {
  const auto summary = algo_.Build(db_, params_, build_rng_);
  for (const double eps : {0.05, 0.2, 0.5}) {
    core::SketchParams p = params_;
    p.eps = eps;
    p.answer = core::Answer::kIndicator;
    const auto ind =
        algo_.LoadIndicator(summary, p, db_.num_columns(), db_.num_rows());
    const auto report = core::ValidateIndicatorExhaustive(db_, *ind, 2, eps);
    EXPECT_TRUE(report.valid()) << "eps=" << eps;
  }
}

TEST_F(ReleaseDbTest, DeterministicIgnoringRng) {
  util::Rng r1(1), r2(999);
  EXPECT_EQ(algo_.Build(db_, params_, r1), algo_.Build(db_, params_, r2));
}

TEST_F(ReleaseDbTest, NameIsStable) { EXPECT_EQ(algo_.name(), "RELEASE-DB"); }

TEST(ReleaseDbEdgeTest, SingleRowDatabase) {
  core::Database db(1, 6);
  db.Set(0, 3, true);
  ReleaseDbSketch algo;
  core::SketchParams params;
  util::Rng rng(5);
  const auto summary = algo.Build(db, params, rng);
  EXPECT_EQ(summary.size(), 6u);
  const auto est = algo.LoadEstimator(summary, params, 6, 1);
  EXPECT_DOUBLE_EQ(est->EstimateFrequency(core::Itemset(6, {3})), 1.0);
  EXPECT_DOUBLE_EQ(est->EstimateFrequency(core::Itemset(6, {0})), 0.0);
}

}  // namespace
}  // namespace ifsketch::sketch
