// Single-pass streaming construction of the SUBSAMPLE summary.
//
// The paper notes (§1.2) that streaming algorithms for frequent itemsets
// were never shown to beat row sampling; this builder shows sampling
// itself is trivially streamable. It maintains s independent size-1
// reservoirs, so after observing any prefix the slots are i.i.d. uniform
// rows of that prefix — exactly SUBSAMPLE's with-replacement distribution.
#ifndef IFSKETCH_SKETCH_RESERVOIR_H_
#define IFSKETCH_SKETCH_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "core/sketch.h"
#include "util/bitio.h"
#include "util/random.h"

namespace ifsketch::sketch {

/// The slots, out of `slots` independent size-1 reservoirs, that take
/// the `rows_seen`-th row of their stream (each with probability
/// 1/rows_seen), written to *hits in ascending order. Consumes `rng`
/// exactly as `rng.UniformInt(rows_seen) == 0` evaluated once per slot
/// in slot order would, so the stream of draws is the plain loop's; the
/// loop runs on a register-resident copy of the generator with the
/// divisions hoisted out (util::ReservoirCoin).
void ReservoirHits(std::uint64_t rows_seen, std::size_t slots,
                   util::Rng& rng, std::vector<std::size_t>* hits);

/// Streaming row sampler producing a SUBSAMPLE-compatible summary.
class ReservoirBuilder {
 public:
  /// `d` is the row width; the slot count is SubsampleSketch::SampleCount
  /// for `params`.
  ReservoirBuilder(std::size_t d, const core::SketchParams& params,
                   util::Rng& rng);

  /// Observes one stream row (width d).
  void Observe(const util::BitVector& row);

  /// Rows observed so far.
  std::size_t rows_seen() const { return rows_seen_; }

  /// Number of reservoir slots s.
  std::size_t slot_count() const { return slots_.size(); }

  /// Serializes the current reservoir into a SUBSAMPLE summary
  /// (s rows * d bits). Precondition: at least one row observed.
  util::BitVector Finish() const;

  /// Appends the complete builder state (rows_seen + every slot) to `w`
  /// for checkpoint/recovery; the paired Rng is checkpointed separately.
  void SaveState(util::BitWriter* w) const;

  /// Restores a SaveState snapshot from `r`; false when the remaining
  /// bits are too short for this builder's shape.
  bool RestoreState(util::BitReader* r);

 private:
  std::size_t d_;
  std::size_t rows_seen_ = 0;
  std::vector<util::BitVector> slots_;
  util::Rng* rng_;
  std::vector<std::size_t> hits_;  // reused by Observe
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_RESERVOIR_H_
