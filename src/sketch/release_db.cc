#include "sketch/release_db.h"

#include "core/column_store.h"
#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {

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
  // The summary is the row-major database itself: the whole database is
  // the sample, so Q is exact.
  IFSKETCH_CHECK_EQ(summary.size(), n * d);
  return std::make_unique<core::SampleFrequencyEstimator>(
      core::ColumnStore::FromRowMajorBits(summary, d));
}

std::size_t ReleaseDbSketch::PredictedSizeBits(
    std::size_t n, std::size_t d,
    const core::SketchParams& /*params*/) const {
  return n * d;
}

}  // namespace ifsketch::sketch
