// Importance (weighted) row sampling -- the paper's future-work direction.
//
// The conclusion (§5) notes that on structured databases with non-uniform
// query loads, importance sampling is the natural candidate for beating
// uniform sampling, citing follow-up work of Lang-Liberty-Shmakov. This
// sketch samples rows with probability proportional to a row weight
// (default: the row's popcount, which up-weights the dense rows that
// support large itemsets) and answers with the Horvitz-Thompson
// estimator. It is an *extension*, not a paper algorithm: the Lemma 9
// worst-case guarantee does not transfer (the lower bounds explain why a
// universally better sketch is impossible), but the e11 ablation shows
// the variance win on skewed workloads the paper anticipates.
#ifndef IFSKETCH_SKETCH_IMPORTANCE_SAMPLE_H_
#define IFSKETCH_SKETCH_IMPORTANCE_SAMPLE_H_

#include <functional>
#include <vector>

#include "core/sketch.h"

namespace ifsketch::sketch {

/// The Horvitz-Thompson query over a weighted row sample:
/// f_T = (1/s) sum_i I{T in r_i} * c_i, clamped to [0, 1], where row i's
/// coefficient c_i is 1 / (n * q_i) for its draw probability q_i, up to
/// the loader's own arithmetic (IMPORTANCE-SAMPLE: mean_w / w(r_i);
/// STREAM-IMPORTANCE: W_n / (n * w_slot)).
///
/// The sample arrives as a column store and the coefficients are
/// evaluated by the loader, both before construction, so the view is
/// immutable and safe to query concurrently. Every path -- scalar,
/// batched, parallel chunks -- adds the hit rows' coefficients in
/// ascending row order, so the floating-point sum (and therefore the
/// answer) is bit-identical everywhere. Batched queries fan out across
/// the default thread pool only when their work warrants it
/// (core::FanOutGrain; small batches run on the calling thread) and
/// share prefix accumulators between adjacent sibling queries.
class HtEstimator : public core::FrequencyEstimator {
 public:
  /// `coefficients[i]` is c_i for column-store row i.
  HtEstimator(core::ColumnStore columns, std::vector<double> coefficients);

  double EstimateFrequency(const core::Itemset& t) const override;

  void EstimateMany(const std::vector<core::Itemset>& ts,
                    std::vector<double>* answers) const override;

 private:
  // Serial kernel over queries [first, last): chunk-local scratch only.
  void EstimateRange(const std::vector<core::Itemset>& ts, std::size_t first,
                     std::size_t last, double* answers) const;

  core::ColumnStore columns_;
  std::vector<double> coefficients_;  // c_i, ascending row order
};

/// Weighted-with-replacement row sampling, Horvitz-Thompson queries.
class ImportanceSampleSketch : public core::SketchAlgorithm {
 public:
  /// Maps a row to a positive weight. Must be a deterministic function of
  /// the row bits (Q re-derives it from the stored rows).
  using WeightFn = std::function<double(const util::BitVector&)>;

  /// Default weight: popcount + 1.
  ImportanceSampleSketch();
  explicit ImportanceSampleSketch(WeightFn weight);

  std::string name() const override { return "IMPORTANCE-SAMPLE"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override;

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  /// Same sample counts as SUBSAMPLE (apples-to-apples size comparisons;
  /// the guarantee itself is workload-dependent, see file comment).
  static std::size_t SampleCount(const core::SketchParams& params,
                                 std::size_t d);

 private:
  /// Bits per stored mean-weight field (fixed-point).
  static constexpr int kWeightBits = 64;

  WeightFn weight_;
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_IMPORTANCE_SAMPLE_H_
