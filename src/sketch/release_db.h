// RELEASE-DB (Definition 6): the identity sketch.
//
// S is the identity (the database verbatim, n*d bits plus the row count);
// Q is an exact database query. Space |S| = O(nd); answers are exact under
// all four semantics. One corner of the Theorem 12 min-envelope.
#ifndef IFSKETCH_SKETCH_RELEASE_DB_H_
#define IFSKETCH_SKETCH_RELEASE_DB_H_

#include "core/sketch.h"

namespace ifsketch::sketch {

/// The verbatim-database sketch.
class ReleaseDbSketch : public core::SketchAlgorithm {
 public:
  std::string name() const override { return "RELEASE-DB"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override;

  /// The summary is the database verbatim: n rows of d bits, so the
  /// arena writer frames a column section and the mapped load path
  /// queries it with no decode (answers remain exact).
  bool HasRowMajorPayload(const core::SketchParams& params) const override {
    (void)params;
    return true;
  }

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_RELEASE_DB_H_
