// Streaming sketch construction behind the registry.
//
// The paper's §1.2 argument is that row sampling is the optimal streaming
// architecture for itemset frequencies; this module makes that claim
// operational. A StreamingSketch is a SketchAlgorithm mixin whose state
// can be maintained one row at a time (StreamingBuilder) and snapshotted
// at any prefix. The one-shot Build() of every streaming algorithm is
// DEFINED as replaying the database rows in order through a fresh
// builder, so a snapshot taken after observing rows [0, n) is
// bit-identical to Engine::Build over that prefix with the same seed --
// the invariant the ingest subsystem (src/ingest/) and its registry-
// driven tests rely on. Two contract points make that hold:
//
//   - Builders draw from the Rng only inside Observe (never in the const
//     Summary()), so "snapshot then keep streaming" and "stop and build"
//     consume identical random streams up to any prefix.
//   - Summary layouts are fixed functions of (d, params) -- never of the
//     data -- so SketchAlgorithm::PredictedSizeBits stays exact and
//     Engine::FromParts accepts mid-stream snapshots at any rows_seen.
//
// Registered algorithms (sketch/builtin_algorithms.cc):
//   STREAM-SUBSAMPLE   s independent size-1 reservoirs (ReservoirBuilder)
//                      producing SUBSAMPLE's exact summary format, so it
//                      inherits the column-store loaders, arena column
//                      sections and zero-copy mapped loads unchanged.
//   STREAM-STRATIFIED  popcount-stratified reservoirs with proportional
//                      recombination (the registrable, fixed-layout
//                      sibling of the standalone StratifiedSampler).
//   STREAM-IMPORTANCE  weighted reservoirs with Misra-Gries heavy-hitter
//                      gating (stream/misra_gries.h) and Horvitz-Thompson
//                      queries -- rows carrying currently-hot items are
//                      up-weighted as the stream drifts.
#ifndef IFSKETCH_SKETCH_STREAMING_H_
#define IFSKETCH_SKETCH_STREAMING_H_

#include <memory>
#include <vector>

#include "core/sketch.h"
#include "sketch/reservoir.h"
#include "sketch/subsample.h"
#include "stream/misra_gries.h"

namespace ifsketch::sketch {

/// Incremental summary state: one Observe per stream row, snapshot at
/// any prefix. Not thread-safe -- one builder belongs to one ingest
/// thread (src/ingest/ingest.h owns the handoff).
class StreamingBuilder {
 public:
  virtual ~StreamingBuilder() = default;

  /// Observes one stream row (width d). The only method that may draw
  /// from the construction Rng.
  virtual void Observe(const util::BitVector& row) = 0;

  /// Rows observed so far.
  virtual std::size_t rows_seen() const = 0;

  /// Serializes the current state into the algorithm's summary format.
  /// Const and Rng-free: snapshotting must not perturb the stream.
  /// Precondition: at least one row observed.
  virtual util::BitVector Summary() const = 0;

  /// Serializes the builder's COMPLETE internal state -- a superset of
  /// Summary() (reservoir bookkeeping, stratum counts, gating sketches)
  /// -- so RestoreState on a freshly-constructed builder with the same
  /// (d, params) continues the stream bit-identically where this one
  /// stands. The paired Rng is NOT included; checkpoint it alongside
  /// via util::Rng::SaveState (ingest/wal.h does both).
  virtual util::BitVector SaveState() const = 0;

  /// Restores a SaveState() snapshot into this builder. Returns false --
  /// leaving the builder unusable -- when the bits do not decode to a
  /// valid state for this builder's shape; callers treat that as a
  /// corrupt checkpoint, never as data.
  virtual bool RestoreState(const util::BitVector& state) = 0;
};

/// Mixin interface for algorithms that support incremental construction.
/// Deliberately NOT derived from core::SketchAlgorithm so concrete
/// algorithms can inherit an existing SketchAlgorithm (loaders, size
/// accounting) and add streaming on the side; resolve via
/// dynamic_cast<const StreamingSketch*> on a registry-created algorithm.
class StreamingSketch {
 public:
  virtual ~StreamingSketch() = default;

  /// A fresh builder for width-d rows. `rng` must outlive the builder
  /// and be dedicated to it (the builder advances it on every Observe).
  virtual std::unique_ptr<StreamingBuilder> NewBuilder(
      std::size_t d, const core::SketchParams& params,
      util::Rng& rng) const = 0;
};

/// The shared one-shot Build of every streaming algorithm: replay the
/// database rows in order through a fresh builder. This is what makes
/// prefix snapshots bit-identical to one-shot builds by construction.
util::BitVector ReplayBuild(const StreamingSketch& algorithm,
                            const core::Database& db,
                            const core::SketchParams& params, util::Rng& rng);

/// SUBSAMPLE's summary format built by s independent size-1 reservoirs.
/// Everything query-side (column-store loaders, arena column sections,
/// PredictedSizeBits) is inherited; only the sampling procedure differs,
/// exactly like SUBSAMPLE-WOR.
class StreamSubsampleSketch : public SubsampleSketch, public StreamingSketch {
 public:
  std::string name() const override { return "STREAM-SUBSAMPLE"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<StreamingBuilder> NewBuilder(
      std::size_t d, const core::SketchParams& params,
      util::Rng& rng) const override;
};

/// Streaming stratified sampler with a FIXED summary layout (unlike the
/// standalone StratifiedSampler, whose layout depends on stratum
/// occupancy and therefore cannot sit behind PredictedSizeBits). Rows
/// are bucketed by popcount into kStrata strata; each stratum keeps
/// SlotsPerStratum independent size-1 reservoirs plus an exact row
/// count. The summary stores, for every stratum (occupied or not), the
/// count and all slot rows -- H * (64 + c*d) bits regardless of data.
class StratifiedSampleBuilder : public StreamingBuilder {
 public:
  StratifiedSampleBuilder(std::size_t d, const core::SketchParams& params,
                          util::Rng& rng);

  void Observe(const util::BitVector& row) override;
  std::size_t rows_seen() const override { return rows_seen_; }
  util::BitVector Summary() const override;
  util::BitVector SaveState() const override;
  bool RestoreState(const util::BitVector& state) override;

 private:
  struct Stratum {
    std::uint64_t count = 0;  // rows routed to this stratum so far
    std::vector<util::BitVector> slots;
  };

  std::size_t d_;
  std::size_t rows_seen_ = 0;
  std::vector<Stratum> strata_;
  util::Rng* rng_;
  std::vector<std::size_t> hits_;  // reused by Observe
};

/// The registrable stratified-sample algorithm (see
/// StratifiedSampleBuilder for the summary layout).
class StreamStratifiedSketch : public core::SketchAlgorithm,
                               public StreamingSketch {
 public:
  /// Popcount buckets: row with popcount pc lands in stratum
  /// min(kStrata-1, pc*kStrata/(d+1)).
  static constexpr std::size_t kStrata = 4;

  /// Reservoir slots per stratum: the SUBSAMPLE sample count split
  /// evenly (rounded up) so total state matches SUBSAMPLE's at equal
  /// parameters.
  static std::size_t SlotsPerStratum(const core::SketchParams& params,
                                     std::size_t d);

  /// The stratum index for a row of width d with the given popcount.
  static std::size_t StratumOf(std::size_t popcount, std::size_t d);

  std::string name() const override { return "STREAM-STRATIFIED"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override;

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  std::unique_ptr<StreamingBuilder> NewBuilder(
      std::size_t d, const core::SketchParams& params,
      util::Rng& rng) const override;
};

/// Streaming importance sampler: s weighted size-1 reservoirs where a
/// row's weight is 1 plus the number of its attributes that are
/// currently Misra-Gries heavy hitters (estimated count >= items_seen /
/// kHotFraction), so rows carrying hot items survive longer as the
/// stream drifts. Queries recombine with the Horvitz-Thompson
/// estimator: f = (1/s) sum_slots I{T in row} * W_n / (n * w_slot),
/// clamped to [0, 1]. Summary: W_n as a raw double, then per slot the
/// slot weight (raw double) and the slot row -- 64 + s*(64+d) bits.
class StreamImportanceSketch : public core::SketchAlgorithm,
                              public StreamingSketch {
 public:
  /// Misra-Gries counters tracked by the gating sketch.
  static constexpr std::size_t kHotCounters = 16;
  /// An item is "hot" when its estimated count >= items_seen / this.
  static constexpr std::uint64_t kHotFraction = 16;

  /// Same slot count as SUBSAMPLE at equal parameters.
  static std::size_t SampleCount(const core::SketchParams& params,
                                 std::size_t d);

  std::string name() const override { return "STREAM-IMPORTANCE"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override;

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  std::unique_ptr<StreamingBuilder> NewBuilder(
      std::size_t d, const core::SketchParams& params,
      util::Rng& rng) const override;
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_STREAMING_H_
