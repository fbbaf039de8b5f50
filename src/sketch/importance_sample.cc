#include "sketch/importance_sample.h"

#include <cmath>

#include "core/column_store.h"
#include "sketch/subsample.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ifsketch::sketch {

HtEstimator::HtEstimator(core::ColumnStore columns,
                         std::vector<double> coefficients)
    : columns_(std::move(columns)), coefficients_(std::move(coefficients)) {
  IFSKETCH_CHECK_EQ(coefficients_.size(), columns_.num_rows());
}

double HtEstimator::EstimateFrequency(const core::Itemset& t) const {
  const std::size_t s = columns_.num_rows();
  if (s == 0) return 0.0;
  IFSKETCH_CHECK_EQ(t.universe(), columns_.num_columns());
  double acc = 0.0;
  const auto attrs = t.Attributes();
  if (attrs.empty()) {
    for (std::size_t i = 0; i < s; ++i) acc += coefficients_[i];
  } else {
    util::BitVector hits = columns_.Column(attrs[0]);
    for (std::size_t i = 1; i < attrs.size(); ++i) {
      hits &= columns_.Column(attrs[i]);
    }
    for (std::size_t i : hits.SetBits()) acc += coefficients_[i];
  }
  const double est = acc / static_cast<double>(s);
  return est < 0.0 ? 0.0 : (est > 1.0 ? 1.0 : est);
}

void HtEstimator::EstimateMany(const std::vector<core::Itemset>& ts,
                               std::vector<double>* answers) const {
  if (columns_.num_rows() == 0) {
    answers->assign(ts.size(), 0.0);
    return;
  }
  answers->resize(ts.size());
  double* out = answers->data();
  util::ThreadPool::Default().ParallelFor(
      0, ts.size(), core::FanOutGrain(ts.size(), columns_.BatchWords(ts)),
      [this, &ts, out](std::size_t first, std::size_t last) {
        EstimateRange(ts, first, last, out);
      });
}

// This walks sibling runs like ColumnStore::CountRange but diverges
// deliberately: CountRange needs only counts, so isolated queries can
// take the fused no-accumulator AndCountMany path; here the hit ROWS
// must be materialized to gather coefficients, so the prefix is always
// built and there is no fused fallback to dispatch between.
void HtEstimator::EstimateRange(const std::vector<core::Itemset>& ts,
                                std::size_t first, std::size_t last,
                                double* answers) const {
  const std::size_t s = columns_.num_rows();
  util::BitVector prefix;  // AND of all but the last attr of prefix_attrs
  util::BitVector hits;
  std::vector<std::size_t> prefix_attrs;
  std::vector<std::size_t> attrs;
  std::vector<std::size_t> next_attrs;
  if (first < last) ts[first].AttributesInto(&attrs);
  for (std::size_t q = first; q < last; ++q) {
    if (q + 1 < last) ts[q + 1].AttributesInto(&next_attrs);
    double acc = 0.0;
    if (attrs.empty()) {
      for (std::size_t i = 0; i < s; ++i) acc += coefficients_[i];
    } else if (attrs.size() == 1) {
      for (std::size_t i : columns_.Column(attrs[0]).SetBits()) {
        acc += coefficients_[i];
      }
    } else {
      if (!core::SharesAprioriPrefix(prefix_attrs, attrs)) {
        prefix = columns_.Column(attrs[0]);
        for (std::size_t i = 1; i + 1 < attrs.size(); ++i) {
          prefix &= columns_.Column(attrs[i]);
        }
        prefix_attrs = attrs;
      }
      hits = prefix;
      hits &= columns_.Column(attrs.back());
      for (std::size_t i : hits.SetBits()) acc += coefficients_[i];
    }
    const double est = acc / static_cast<double>(s);
    answers[q] = est < 0.0 ? 0.0 : (est > 1.0 ? 1.0 : est);
    attrs.swap(next_attrs);
  }
}


ImportanceSampleSketch::ImportanceSampleSketch()
    : weight_([](const util::BitVector& row) {
        return static_cast<double>(row.Count() + 1);
      }) {}

ImportanceSampleSketch::ImportanceSampleSketch(WeightFn weight)
    : weight_(std::move(weight)) {
  IFSKETCH_CHECK(weight_ != nullptr);
}

std::size_t ImportanceSampleSketch::SampleCount(
    const core::SketchParams& params, std::size_t d) {
  return SubsampleSketch::SampleCount(params, d);
}

util::BitVector ImportanceSampleSketch::Build(
    const core::Database& db, const core::SketchParams& params,
    util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  const std::size_t n = db.num_rows();
  // Cumulative weights for inverse-CDF sampling.
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weight_(db.Row(i));
    IFSKETCH_CHECK_GT(w, 0.0);
    total += w;
    cumulative[i] = total;
  }
  const double mean_weight = total / static_cast<double>(n);

  const std::size_t s = SampleCount(params, db.num_columns());
  util::BitWriter writer;
  // mean_w as a fixed-point value scaled by 2^20 (enough for d <= ~2^40).
  writer.WriteUint(
      static_cast<std::uint64_t>(std::llround(mean_weight * (1 << 20))),
      kWeightBits);
  for (std::size_t i = 0; i < s; ++i) {
    const double u = rng.UniformDouble() * total;
    // Binary search the cumulative array.
    std::size_t lo = 0, hi = n - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    writer.WriteBits(db.Row(lo));
  }
  return writer.Finish();
}

std::unique_ptr<core::FrequencyEstimator>
ImportanceSampleSketch::LoadEstimator(const util::BitVector& summary,
                                      const core::SketchParams& /*params*/,
                                      std::size_t d,
                                      std::size_t /*n*/) const {
  // HT with q_i proportional to w(r_i): E[(1/s) sum I{T in r_i} *
  // mean_w / w(r_i)] = f_T, where mean_w = W/n is carried in the summary.
  util::BitReader reader(summary);
  const double mean_weight =
      static_cast<double>(reader.ReadUint(kWeightBits)) /
      static_cast<double>(1 << 20);
  const core::Database sample = core::Database::FromRowMajorBits(
      summary.Slice(kWeightBits, reader.Remaining()), d);
  std::vector<double> coefficients(sample.num_rows());
  for (std::size_t i = 0; i < sample.num_rows(); ++i) {
    coefficients[i] = mean_weight / weight_(sample.Row(i));
  }
  return std::make_unique<HtEstimator>(core::ColumnStore(sample),
                                       std::move(coefficients));
}

std::size_t ImportanceSampleSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d,
    const core::SketchParams& params) const {
  return kWeightBits + SampleCount(params, d) * d;
}

}  // namespace ifsketch::sketch
