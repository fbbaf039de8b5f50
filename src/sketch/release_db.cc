#include "sketch/release_db.h"

#include "core/column_store.h"
#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {
namespace {

/// Queries the decoded database exactly, through a column store built
/// once at load time. Counts are exact integers on either layout, so
/// scalar and batched answers are bit-identical; with no lazily-built
/// cache the view is immutable after construction and safe for
/// concurrent queries. Batched queries fan out across the default
/// thread pool inside ColumnStore::SupportCounts.
class ExactEstimator : public core::FrequencyEstimator {
 public:
  explicit ExactEstimator(core::ColumnStore columns)
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

}  // namespace

util::BitVector ReleaseDbSketch::Build(const core::Database& db,
                                       const core::SketchParams& /*params*/,
                                       util::Rng& /*rng*/) const {
  util::BitWriter w;
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    w.WriteBits(db.Row(i));
  }
  return w.Finish();
}

std::unique_ptr<core::FrequencyEstimator> ReleaseDbSketch::LoadEstimator(
    const util::BitVector& summary, const core::SketchParams& /*params*/,
    std::size_t d, std::size_t n) const {
  // The summary is the row-major database itself; decode straight into
  // columns (no intermediate row database) and adopt them in O(d).
  IFSKETCH_CHECK_EQ(summary.size(), n * d);
  return std::make_unique<ExactEstimator>(
      core::ColumnStore::FromRowMajorBits(summary, d));
}

std::unique_ptr<core::FrequencyEstimator>
ReleaseDbSketch::LoadEstimatorFromColumns(core::ColumnStore columns,
                                          const util::BitVector& summary,
                                          const core::SketchParams& /*params*/,
                                          std::size_t d, std::size_t n) const {
  // Pre-transposed columns (usually borrowed views over an mmap'd arena
  // section): same exact estimator, no decode pass at all.
  IFSKETCH_CHECK_EQ(summary.size(), n * d);
  IFSKETCH_CHECK_EQ(columns.num_columns(), d);
  IFSKETCH_CHECK_EQ(columns.num_rows(), n);
  return std::make_unique<ExactEstimator>(std::move(columns));
}

std::unique_ptr<core::FrequencyIndicator>
ReleaseDbSketch::LoadIndicatorFromColumns(core::ColumnStore columns,
                                          const util::BitVector& summary,
                                          const core::SketchParams& params,
                                          std::size_t d, std::size_t n) const {
  // Same composition as SketchAlgorithm::LoadIndicator's default --
  // threshold the estimator at 0.75*eps -- but over the borrowed
  // columns, so indicator queries answer identically with no decode.
  return std::make_unique<core::ThresholdIndicator>(
      LoadEstimatorFromColumns(std::move(columns), summary, params, d, n),
      0.75 * params.eps);
}

std::size_t ReleaseDbSketch::PredictedSizeBits(
    std::size_t n, std::size_t d,
    const core::SketchParams& /*params*/) const {
  return n * d;
}

core::Database ReleaseDbSketch::Decode(const util::BitVector& summary,
                                       std::size_t d, std::size_t n) {
  IFSKETCH_CHECK_EQ(summary.size(), n * d);
  util::BitReader r(summary);
  core::Database db;
  for (std::size_t i = 0; i < n; ++i) db.AppendRow(r.ReadBits(d));
  return db;
}

}  // namespace ifsketch::sketch
