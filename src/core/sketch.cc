#include "core/sketch.h"

#include <cmath>

#include "util/thread_pool.h"

namespace ifsketch::core {
namespace {

// Minimum queries per chunk for the default batched paths. Scalar
// EstimateFrequency/IsFrequent calls scan whole summaries, so even small
// chunks amortize the scheduling cost.
constexpr std::size_t kBatchGrain = 8;

}  // namespace

bool ValidSketchParams(const SketchParams& params) {
  return params.k >= 1 && std::isfinite(params.eps) && params.eps > 0.0 &&
         params.eps <= 1.0 && std::isfinite(params.delta) &&
         params.delta > 0.0 && params.delta < 1.0;
}

const char* ToString(Scope scope) {
  switch (scope) {
    case Scope::kForAll:
      return "for-all";
    case Scope::kForEach:
      return "for-each";
  }
  return "?";
}

const char* ToString(Answer answer) {
  switch (answer) {
    case Answer::kIndicator:
      return "indicator";
    case Answer::kEstimator:
      return "estimator";
  }
  return "?";
}

void FrequencyEstimator::EstimateMany(const std::vector<Itemset>& ts,
                                      std::vector<double>* answers) const {
  answers->resize(ts.size());
  double* out = answers->data();
  util::ThreadPool::Default().ParallelFor(
      0, ts.size(), kBatchGrain,
      [this, &ts, out](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          out[i] = EstimateFrequency(ts[i]);
        }
      });
}

void FrequencyIndicator::AreFrequent(const std::vector<Itemset>& ts,
                                     std::vector<bool>* answers) const {
  // std::vector<bool> packs bits, so concurrent writes to distinct
  // indices race; collect into bytes and copy once at the end.
  std::vector<char> bits(ts.size());
  char* out = bits.data();
  util::ThreadPool::Default().ParallelFor(
      0, ts.size(), kBatchGrain,
      [this, &ts, out](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          out[i] = IsFrequent(ts[i]) ? 1 : 0;
        }
      });
  answers->assign(bits.begin(), bits.end());
}

void ThresholdIndicator::AreFrequent(const std::vector<Itemset>& ts,
                                     std::vector<bool>* answers) const {
  std::vector<double> estimates;
  estimator_->EstimateMany(ts, &estimates);
  answers->resize(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    (*answers)[i] = estimates[i] >= threshold_;
  }
}

std::unique_ptr<FrequencyIndicator> DefaultIndicator(
    std::unique_ptr<FrequencyEstimator> estimator, const SketchParams& params) {
  return std::make_unique<ThresholdIndicator>(std::move(estimator),
                                              0.75 * params.eps);
}

void SampleFrequencyEstimator::EstimateMany(
    const std::vector<Itemset>& ts, std::vector<double>* answers) const {
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

std::unique_ptr<FrequencyIndicator> SketchAlgorithm::LoadIndicator(
    const util::BitVector& summary, const SketchParams& params, std::size_t d,
    std::size_t n) const {
  return DefaultIndicator(LoadEstimator(summary, params, d, n), params);
}

}  // namespace ifsketch::core
