#include "sketch/streaming.h"

#include <bit>

#include "sketch/importance_sample.h"
#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {
namespace {

/// StreamingBuilder facade over the existing ReservoirBuilder (which
/// predates the interface and keeps its public name).
class SubsampleStreamBuilder : public StreamingBuilder {
 public:
  SubsampleStreamBuilder(std::size_t d, const core::SketchParams& params,
                         util::Rng& rng)
      : inner_(d, params, rng) {}

  void Observe(const util::BitVector& row) override { inner_.Observe(row); }
  std::size_t rows_seen() const override { return inner_.rows_seen(); }
  util::BitVector Summary() const override { return inner_.Finish(); }

  util::BitVector SaveState() const override {
    util::BitWriter w;
    inner_.SaveState(&w);
    return w.Finish();
  }

  bool RestoreState(const util::BitVector& state) override {
    util::BitReader r(state);
    return inner_.RestoreState(&r) && r.Remaining() == 0;
  }

 private:
  ReservoirBuilder inner_;
};

/// Weighted size-1 reservoirs with Misra-Gries gating (see
/// StreamImportanceSketch). Slot i keeps the incoming row with
/// probability w/W where W is the cumulative weight, so after any prefix
/// P(slot = row j) = w_j / W -- the telescoping classic.
class ImportanceStreamBuilder : public StreamingBuilder {
 public:
  ImportanceStreamBuilder(std::size_t d, const core::SketchParams& params,
                          util::Rng& rng)
      : d_(d),
        slots_(StreamImportanceSketch::SampleCount(params, d)),
        hot_(StreamImportanceSketch::kHotCounters),
        rng_(&rng) {
    for (auto& slot : slots_) slot.row = util::BitVector(d);
  }

  void Observe(const util::BitVector& row) override {
    IFSKETCH_CHECK_EQ(row.size(), d_);
    hot_.ObserveRow(row);
    double weight = 1.0;
    for (std::size_t a : row.SetBits()) {
      if (hot_.Estimate(a) * StreamImportanceSketch::kHotFraction >=
          hot_.items_seen()) {
        weight += 1.0;
      }
    }
    total_weight_ += weight;
    ++rows_seen_;
    for (auto& slot : slots_) {
      if (rng_->UniformDouble() * total_weight_ < weight) {
        slot.row = row;
        slot.weight = weight;
      }
    }
  }

  std::size_t rows_seen() const override { return rows_seen_; }

  util::BitVector Summary() const override {
    IFSKETCH_CHECK_GT(rows_seen_, 0u);
    util::BitWriter w;
    w.WriteUint(std::bit_cast<std::uint64_t>(total_weight_), 64);
    for (const auto& slot : slots_) {
      w.WriteUint(std::bit_cast<std::uint64_t>(slot.weight), 64);
      w.WriteBits(slot.row);
    }
    return w.Finish();
  }

  util::BitVector SaveState() const override {
    util::BitWriter w;
    w.WriteUint(rows_seen_, 64);
    w.WriteUint(std::bit_cast<std::uint64_t>(total_weight_), 64);
    for (const auto& slot : slots_) {
      w.WriteUint(std::bit_cast<std::uint64_t>(slot.weight), 64);
      w.WriteBits(slot.row);
    }
    hot_.SaveState(&w);
    return w.Finish();
  }

  bool RestoreState(const util::BitVector& state) override {
    util::BitReader r(state);
    if (r.Remaining() < 128 + slots_.size() * (64 + d_)) return false;
    rows_seen_ = static_cast<std::size_t>(r.ReadUint(64));
    total_weight_ = std::bit_cast<double>(r.ReadUint(64));
    for (auto& slot : slots_) {
      slot.weight = std::bit_cast<double>(r.ReadUint(64));
      slot.row = r.ReadBits(d_);
    }
    return hot_.RestoreState(&r) && r.Remaining() == 0;
  }

 private:
  struct Slot {
    util::BitVector row;
    double weight = 1.0;
  };

  std::size_t d_;
  std::size_t rows_seen_ = 0;
  double total_weight_ = 0.0;
  std::vector<Slot> slots_;
  stream::MisraGries hot_;
  util::Rng* rng_;
};

/// Proportional recombination over the decoded strata: with support_h =
/// |{slots of stratum h containing T}|, f = sum_h count_h * support_h /
/// (total * c). Every term is an exact small integer product, summed in
/// ascending stratum order and divided once, so scalar and batched
/// answers (the default EstimateMany is a fan-out of this method) are
/// bit-identical, and f <= 1 holds exactly (numerator <= total * c).
class StratifiedEstimator : public core::FrequencyEstimator {
 public:
  StratifiedEstimator(std::vector<std::uint64_t> counts,
                      std::vector<std::vector<util::BitVector>> rows)
      : counts_(std::move(counts)), rows_(std::move(rows)) {
    for (std::uint64_t c : counts_) total_ += static_cast<double>(c);
  }

  double EstimateFrequency(const core::Itemset& t) const override {
    if (total_ == 0.0) return 0.0;
    const double slots = static_cast<double>(rows_.empty()
                                                 ? 1
                                                 : rows_.front().size());
    double acc = 0.0;
    for (std::size_t h = 0; h < counts_.size(); ++h) {
      if (counts_[h] == 0) continue;
      std::size_t support = 0;
      for (const auto& row : rows_[h]) {
        if (t.ContainedIn(row)) ++support;
      }
      acc += static_cast<double>(counts_[h]) * static_cast<double>(support);
    }
    return acc / (total_ * slots);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::vector<std::vector<util::BitVector>> rows_;
  double total_ = 0.0;
};

}  // namespace

util::BitVector ReplayBuild(const StreamingSketch& algorithm,
                            const core::Database& db,
                            const core::SketchParams& params,
                            util::Rng& rng) {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  auto builder = algorithm.NewBuilder(db.num_columns(), params, rng);
  for (std::size_t i = 0; i < db.num_rows(); ++i) builder->Observe(db.Row(i));
  return builder->Summary();
}

// ------------------------------------------------------ STREAM-SUBSAMPLE

util::BitVector StreamSubsampleSketch::Build(const core::Database& db,
                                             const core::SketchParams& params,
                                             util::Rng& rng) const {
  return ReplayBuild(*this, db, params, rng);
}

std::unique_ptr<StreamingBuilder> StreamSubsampleSketch::NewBuilder(
    std::size_t d, const core::SketchParams& params, util::Rng& rng) const {
  return std::make_unique<SubsampleStreamBuilder>(d, params, rng);
}

// ----------------------------------------------------- STREAM-STRATIFIED

StratifiedSampleBuilder::StratifiedSampleBuilder(
    std::size_t d, const core::SketchParams& params, util::Rng& rng)
    : d_(d), strata_(StreamStratifiedSketch::kStrata), rng_(&rng) {
  const std::size_t slots =
      StreamStratifiedSketch::SlotsPerStratum(params, d);
  for (auto& stratum : strata_) {
    stratum.slots.assign(slots, util::BitVector(d));
  }
}

void StratifiedSampleBuilder::Observe(const util::BitVector& row) {
  IFSKETCH_CHECK_EQ(row.size(), d_);
  ++rows_seen_;
  Stratum& stratum =
      strata_[StreamStratifiedSketch::StratumOf(row.Count(), d_)];
  ++stratum.count;
  // Each slot is an independent size-1 reservoir over the stratum's
  // sub-stream (keep the current row with probability 1/count).
  ReservoirHits(stratum.count, stratum.slots.size(), *rng_, &hits_);
  for (std::size_t i : hits_) stratum.slots[i] = row;
}

util::BitVector StratifiedSampleBuilder::Summary() const {
  IFSKETCH_CHECK_GT(rows_seen_, 0u);
  util::BitWriter w;
  for (const auto& stratum : strata_) {
    w.WriteUint(stratum.count, 64);
    for (const auto& slot : stratum.slots) w.WriteBits(slot);
  }
  return w.Finish();
}

util::BitVector StratifiedSampleBuilder::SaveState() const {
  util::BitWriter w;
  w.WriteUint(rows_seen_, 64);
  for (const auto& stratum : strata_) {
    w.WriteUint(stratum.count, 64);
    for (const auto& slot : stratum.slots) w.WriteBits(slot);
  }
  return w.Finish();
}

bool StratifiedSampleBuilder::RestoreState(const util::BitVector& state) {
  std::size_t want = 64;
  for (const auto& stratum : strata_) {
    want += 64 + stratum.slots.size() * d_;
  }
  if (state.size() != want) return false;
  util::BitReader r(state);
  const std::uint64_t rows_seen = r.ReadUint(64);
  std::uint64_t total = 0;
  std::vector<Stratum> strata = strata_;
  for (auto& stratum : strata) {
    stratum.count = r.ReadUint(64);
    total += stratum.count;
    for (auto& slot : stratum.slots) slot = r.ReadBits(d_);
  }
  if (total != rows_seen) return false;  // counts must tile the stream
  rows_seen_ = static_cast<std::size_t>(rows_seen);
  strata_ = std::move(strata);
  return true;
}

std::size_t StreamStratifiedSketch::SlotsPerStratum(
    const core::SketchParams& params, std::size_t d) {
  const std::size_t total = SubsampleSketch::SampleCount(params, d);
  return (total + kStrata - 1) / kStrata;
}

std::size_t StreamStratifiedSketch::StratumOf(std::size_t popcount,
                                              std::size_t d) {
  const std::size_t bucket = popcount * kStrata / (d + 1);
  return bucket < kStrata - 1 ? bucket : kStrata - 1;
}

util::BitVector StreamStratifiedSketch::Build(const core::Database& db,
                                              const core::SketchParams& params,
                                              util::Rng& rng) const {
  return ReplayBuild(*this, db, params, rng);
}

std::unique_ptr<core::FrequencyEstimator> StreamStratifiedSketch::LoadEstimator(
    const util::BitVector& summary, const core::SketchParams& params,
    std::size_t d, std::size_t /*n*/) const {
  const std::size_t slots = SlotsPerStratum(params, d);
  IFSKETCH_CHECK_EQ(summary.size(), kStrata * (64 + slots * d));
  util::BitReader r(summary);
  std::vector<std::uint64_t> counts;
  std::vector<std::vector<util::BitVector>> rows(kStrata);
  counts.reserve(kStrata);
  for (std::size_t h = 0; h < kStrata; ++h) {
    counts.push_back(r.ReadUint(64));
    rows[h].reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) rows[h].push_back(r.ReadBits(d));
  }
  return std::make_unique<StratifiedEstimator>(std::move(counts),
                                               std::move(rows));
}

std::size_t StreamStratifiedSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d, const core::SketchParams& params) const {
  return kStrata * (64 + SlotsPerStratum(params, d) * d);
}

std::unique_ptr<StreamingBuilder> StreamStratifiedSketch::NewBuilder(
    std::size_t d, const core::SketchParams& params, util::Rng& rng) const {
  return std::make_unique<StratifiedSampleBuilder>(d, params, rng);
}

// ----------------------------------------------------- STREAM-IMPORTANCE

std::size_t StreamImportanceSketch::SampleCount(
    const core::SketchParams& params, std::size_t d) {
  return SubsampleSketch::SampleCount(params, d);
}

util::BitVector StreamImportanceSketch::Build(const core::Database& db,
                                              const core::SketchParams& params,
                                              util::Rng& rng) const {
  return ReplayBuild(*this, db, params, rng);
}

std::unique_ptr<core::FrequencyEstimator> StreamImportanceSketch::LoadEstimator(
    const util::BitVector& summary, const core::SketchParams& params,
    std::size_t d, std::size_t n) const {
  // Horvitz-Thompson with slot i's coefficient W_n / (n * w_i).
  const std::size_t s = SampleCount(params, d);
  IFSKETCH_CHECK_EQ(summary.size(), 64 + s * (64 + d));
  util::BitReader r(summary);
  const double total_weight = std::bit_cast<double>(r.ReadUint(64));
  std::vector<util::BitVector> rows;
  std::vector<double> coefficients;
  rows.reserve(s);
  coefficients.reserve(s);
  const double denominator = static_cast<double>(n);
  for (std::size_t i = 0; i < s; ++i) {
    const double weight = std::bit_cast<double>(r.ReadUint(64));
    coefficients.push_back(
        denominator > 0.0 ? total_weight / (denominator * weight) : 0.0);
    rows.push_back(r.ReadBits(d));
  }
  return std::make_unique<HtEstimator>(
      core::ColumnStore(core::Database::FromRows(std::move(rows))),
      std::move(coefficients));
}

std::size_t StreamImportanceSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d, const core::SketchParams& params) const {
  return 64 + SampleCount(params, d) * (64 + d);
}

std::unique_ptr<StreamingBuilder> StreamImportanceSketch::NewBuilder(
    std::size_t d, const core::SketchParams& params, util::Rng& rng) const {
  return std::make_unique<ImportanceStreamBuilder>(d, params, rng);
}

}  // namespace ifsketch::sketch
