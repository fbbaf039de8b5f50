#include "sketch/subsample.h"

#include "core/column_store.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/stats.h"

namespace ifsketch::sketch {
namespace {

/// Evaluates queries on the decoded sample through a column store built
/// once at load time. Support counts are exact integers whether computed
/// by a row scan or a popcount of ANDed columns, so scalar and batched
/// answers are bit-identical -- and with no lazily-built cache, the view
/// is immutable after construction and safe to query from any number of
/// threads concurrently. Batched queries additionally fan out across the
/// default thread pool inside ColumnStore::SupportCounts.
class SampleEstimator : public core::FrequencyEstimator {
 public:
  explicit SampleEstimator(core::ColumnStore columns)
      : columns_(std::move(columns)) {}

  double EstimateFrequency(const core::Itemset& t) const override {
    return columns_.Frequency(t);
  }

  void EstimateMany(const std::vector<core::Itemset>& ts,
                    std::vector<double>* answers) const override {
    if (columns_.num_rows() == 0) {
      answers->assign(ts.size(), 0.0);
      return;
    }
    std::vector<std::size_t> counts;
    columns_.SupportCounts(ts, &counts);
    answers->resize(ts.size());
    const double n = static_cast<double>(columns_.num_rows());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      (*answers)[i] = static_cast<double>(counts[i]) / n;
    }
  }

 private:
  core::ColumnStore columns_;
};

/// Indicator decision rule: declare frequent iff the sample frequency is
/// at least 3eps/4, the midpoint of the (eps/2, eps] uncertainty band.
class SampleIndicator : public core::FrequencyIndicator {
 public:
  SampleIndicator(core::ColumnStore columns, double eps)
      : estimator_(std::move(columns)), eps_(eps) {}

  bool IsFrequent(const core::Itemset& t) const override {
    return estimator_.EstimateFrequency(t) >= 0.75 * eps_;
  }

  void AreFrequent(const std::vector<core::Itemset>& ts,
                   std::vector<bool>* answers) const override {
    std::vector<double> estimates;
    estimator_.EstimateMany(ts, &estimates);
    answers->resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      (*answers)[i] = estimates[i] >= 0.75 * eps_;
    }
  }

 private:
  SampleEstimator estimator_;
  double eps_;
};

}  // namespace

std::size_t SubsampleSketch::SampleCount(const core::SketchParams& params,
                                         std::size_t d) {
  switch (params.scope) {
    case core::Scope::kForEach:
      return params.answer == core::Answer::kIndicator
                 ? util::IndicatorSampleCount(params.eps, params.delta)
                 : util::EstimatorSampleCount(params.eps, params.delta);
    case core::Scope::kForAll:
      return params.answer == core::Answer::kIndicator
                 ? util::ForAllIndicatorSampleCount(params.eps, params.delta,
                                                    d, params.k)
                 : util::ForAllEstimatorSampleCount(params.eps, params.delta,
                                                    d, params.k);
  }
  return 0;
}

util::BitVector SubsampleSketch::Build(const core::Database& db,
                                       const core::SketchParams& params,
                                       util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  const std::size_t s = SampleCount(params, db.num_columns());
  util::BitWriter w;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t row = rng.UniformInt(db.num_rows());
    w.WriteBits(db.Row(row));
  }
  return w.Finish();
}

core::Database SubsampleSketch::DecodeSample(const util::BitVector& summary,
                                             std::size_t d) {
  IFSKETCH_CHECK_GT(d, 0u);
  IFSKETCH_CHECK_EQ(summary.size() % d, 0u);
  const std::size_t s = summary.size() / d;
  util::BitReader r(summary);
  core::Database db;
  for (std::size_t i = 0; i < s; ++i) db.AppendRow(r.ReadBits(d));
  return db;
}

std::unique_ptr<core::FrequencyEstimator> SubsampleSketch::LoadEstimator(
    const util::BitVector& summary, const core::SketchParams& /*params*/,
    std::size_t d, std::size_t /*n*/) const {
  // The summary is row-major sample bits; decode straight into columns
  // (no intermediate row database) and adopt them in O(d).
  return std::make_unique<SampleEstimator>(
      core::ColumnStore::FromRowMajorBits(summary, d));
}

std::unique_ptr<core::FrequencyIndicator> SubsampleSketch::LoadIndicator(
    const util::BitVector& summary, const core::SketchParams& params,
    std::size_t d, std::size_t /*n*/) const {
  return std::make_unique<SampleIndicator>(
      core::ColumnStore::FromRowMajorBits(summary, d), params.eps);
}

std::unique_ptr<core::FrequencyEstimator>
SubsampleSketch::LoadEstimatorFromColumns(core::ColumnStore columns,
                                          const util::BitVector& summary,
                                          const core::SketchParams& /*params*/,
                                          std::size_t d,
                                          std::size_t /*n*/) const {
  // Pre-transposed columns (usually borrowed views over an mmap'd arena
  // section): same estimator, no decode pass at all.
  IFSKETCH_CHECK_EQ(columns.num_columns(), d);
  IFSKETCH_CHECK_EQ(columns.num_rows() * d, summary.size());
  return std::make_unique<SampleEstimator>(std::move(columns));
}

std::unique_ptr<core::FrequencyIndicator>
SubsampleSketch::LoadIndicatorFromColumns(core::ColumnStore columns,
                                          const util::BitVector& summary,
                                          const core::SketchParams& params,
                                          std::size_t d,
                                          std::size_t /*n*/) const {
  IFSKETCH_CHECK_EQ(columns.num_columns(), d);
  IFSKETCH_CHECK_EQ(columns.num_rows() * d, summary.size());
  return std::make_unique<SampleIndicator>(std::move(columns), params.eps);
}

std::size_t SubsampleSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d, const core::SketchParams& params) const {
  return SampleCount(params, d) * d;
}

util::BitVector SubsampleWithoutReplacementSketch::Build(
    const core::Database& db, const core::SketchParams& params,
    util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  const std::size_t s = SampleCount(params, db.num_columns());
  if (s > db.num_rows()) {
    // Not enough distinct rows: with-replacement is the only option that
    // keeps the summary format (s rows).
    return SubsampleSketch::Build(db, params, rng);
  }
  util::BitWriter w;
  for (std::size_t row : rng.SampleWithoutReplacement(db.num_rows(), s)) {
    w.WriteBits(db.Row(row));
  }
  return w.Finish();
}

}  // namespace ifsketch::sketch
