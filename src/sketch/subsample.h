// SUBSAMPLE (Definition 8): uniform row sampling with replacement.
//
// The summary is s sampled rows (s*d bits) where s follows Lemma 9:
//   for-each indicator:  s = O(eps^-1 log(1/delta))
//   for-each estimator:  s = O(eps^-2 log(1/delta))
//   for-all  indicator:  s = O(eps^-1 log(C(d,k)/delta))
//   for-all  estimator:  s = O(eps^-2 log(C(d,k)/delta))
// Q evaluates the query on the sample. The paper's lower bounds show this
// is space optimal (up to constant / iterated-log factors) on hard inputs.
#ifndef IFSKETCH_SKETCH_SUBSAMPLE_H_
#define IFSKETCH_SKETCH_SUBSAMPLE_H_

#include "core/sketch.h"

namespace ifsketch::sketch {

/// The uniform-row-sampling sketch.
class SubsampleSketch : public core::SketchAlgorithm {
 public:
  std::string name() const override { return "SUBSAMPLE"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override;

  /// The summary is exactly s rows of d bits, so the arena writer frames
  /// a column section and the mapped load path adopts it with no
  /// transpose (answers bit-identical to LoadEstimator's).
  bool HasRowMajorPayload(const core::SketchParams& params) const override {
    (void)params;
    return true;
  }

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  /// The Lemma 9 sample count for the given guarantee.
  static std::size_t SampleCount(const core::SketchParams& params,
                                 std::size_t d);
};

/// SUBSAMPLE drawing rows WITHOUT replacement (when s <= n; falls back to
/// with-replacement otherwise). Identical summary format and loaders;
/// hypergeometric concentration strictly dominates binomial, so every
/// Lemma 9 guarantee carries over with the same sample counts.
class SubsampleWithoutReplacementSketch : public SubsampleSketch {
 public:
  std::string name() const override { return "SUBSAMPLE-WOR"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_SUBSAMPLE_H_
