#include "sketch/reservoir.h"

#include "sketch/subsample.h"
#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {

void ReservoirHits(std::uint64_t rows_seen, std::size_t slots,
                   util::Rng& rng, std::vector<std::size_t>* hits) {
  const util::ReservoirCoin coin(rows_seen);
  util::Rng local = rng;
  hits->clear();
  for (std::size_t i = 0; i < slots; ++i) {
    if (coin.Flip(local)) hits->push_back(i);
  }
  rng = local;
}

ReservoirBuilder::ReservoirBuilder(std::size_t d,
                                   const core::SketchParams& params,
                                   util::Rng& rng)
    : d_(d),
      slots_(SubsampleSketch::SampleCount(params, d), util::BitVector(d)),
      rng_(&rng) {}

void ReservoirBuilder::Observe(const util::BitVector& row) {
  IFSKETCH_CHECK_EQ(row.size(), d_);
  ++rows_seen_;
  // Slot i keeps the current row with probability 1/rows_seen_,
  // independently of the other slots (s parallel size-1 reservoirs).
  ReservoirHits(rows_seen_, slots_.size(), *rng_, &hits_);
  for (std::size_t i : hits_) slots_[i] = row;
}

util::BitVector ReservoirBuilder::Finish() const {
  IFSKETCH_CHECK_GT(rows_seen_, 0u);
  util::BitWriter w;
  for (const auto& slot : slots_) w.WriteBits(slot);
  return w.Finish();
}

void ReservoirBuilder::SaveState(util::BitWriter* w) const {
  w->WriteUint(rows_seen_, 64);
  for (const auto& slot : slots_) w->WriteBits(slot);
}

bool ReservoirBuilder::RestoreState(util::BitReader* r) {
  if (r->Remaining() < 64 + slots_.size() * d_) return false;
  rows_seen_ = static_cast<std::size_t>(r->ReadUint(64));
  for (auto& slot : slots_) slot = r->ReadBits(d_);
  return true;
}

}  // namespace ifsketch::sketch
