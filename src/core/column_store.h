// Column-oriented query acceleration.
//
// Database stores rows; answering f_T scans all n rows and tests
// containment. For query-heavy workloads (validators, miners, the
// reconstruction decoders) the transposed layout is much faster: keep
// one n-bit column per attribute and compute support as the popcount of
// the word-parallel AND of T's columns -- O(n/64 * |T|) instead of
// O(n * d/64).
//
// SupportCounts is the hot path behind every batched sketch query
// (EstimateMany / AreFrequent / Apriori levels). It layers three
// optimizations on the naive per-query loop, none of which changes a
// single count:
//   1. Work-sized fan-out: the batch's work is estimated as
//      sum |T| x words per column, and only a batch worth at least two
//      chunks of kFanOutChunkWords is split into contiguous chunks on
//      util::ThreadPool::Default(). Smaller batches -- every served
//      request of a typical workload -- run wholly on the calling
//      thread, which for a served query is the reactor loop thread, so
//      they never pay a pool wake-up. Each query writes only its own
//      result slot, so answers are deterministic at any thread count.
//   2. Fused kernels, called lean: an isolated q-attribute query is
//      answered by the and_count_many kernel -- one pass over the column
//      words, popcounting while ANDing, no materialized accumulator.
//      The counting loop loads util::ActiveKernels() once per range,
//      reads each query's attributes straight from its indicator words
//      into a fixed array (queries of more than 16 attributes take
//      SupportCount), and hands the column word pointers to
//      popcount_words / and_count / and_count_many directly, with no
//      per-query size checks, pointer gathers or heap scratch.
//      BatchWords' universe check on every query is what makes that
//      safe. All word-level work runs on the runtime-dispatched SIMD
//      tier in util/kernels.h, with counts bit-identical at every tier.
//   3. Prefix sharing: consecutive queries that agree on all but their
//      last attribute (exactly how the Apriori driver emits candidate
//      levels) reuse one materialized (q-1)-prefix accumulator, so a
//      run of siblings costs ~one column AND each instead of q-1.
//
// All methods are const and safe to call concurrently once the store is
// constructed.
#ifndef IFSKETCH_CORE_COLUMN_STORE_H_
#define IFSKETCH_CORE_COLUMN_STORE_H_

#include <span>
#include <vector>

#include "core/database.h"

namespace ifsketch::core {

/// The Apriori sibling relation: true when `a` and `b` have the same
/// cardinality and agree on every attribute but their last, so they can
/// share one (|a|-1)-prefix AND accumulator. Both vectors must be
/// ascending attribute lists (Itemset::Attributes() order).
inline bool SharesAprioriPrefix(std::span<const std::size_t> a,
                                std::span<const std::size_t> b) {
  if (a.size() != b.size() || a.empty()) return false;
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Column words each ParallelFor chunk of a batched query must stream
/// before fanning the batch out pays for waking parked pool threads.
/// Measured on a 4-vCPU KVM guest (AVX2 tier), where a wake costs
/// ~25-30 us and the kernels stream ~0.2 ns per word. With the old
/// fixed 32-query chunks, micro_engine (45 words per column, 3-attribute
/// queries) ran 4 threads slower than 1 at 250 queries (34k words: 132
/// vs 106 ns/query), even at 500 (67k) and 1.5x faster at 1000 (135k);
/// but a two-chunk split of 64 queries at 1024 words per column (196k
/// words) ran 1.44x slower, since the woken worker starts about when
/// the caller finishes its own chunk. 2^17 words is ~25 us of kernel
/// time per chunk, about one wake: the smallest split (two chunks)
/// roughly breaks even and larger ones win.
inline constexpr std::size_t kFanOutChunkWords = std::size_t{1} << 17;

/// Work-sized ParallelFor grain for a batch of `queries` queries that
/// together stream `words` column words (sum |T| x words per column):
/// the fewest queries whose chunk streams kFanOutChunkWords on average.
/// A batch below two chunks' worth of work gets `queries` itself, so
/// ParallelFor runs it inline on the calling thread.
std::size_t FanOutGrain(std::size_t queries, std::size_t words);

/// Immutable column-major view of a database, for fast frequency queries.
class ColumnStore {
 public:
  /// Transposes `db` in one pass over its row words (O(n*d) bit work,
  /// unavoidable when starting from rows).
  explicit ColumnStore(const Database& db);

  /// Adopts already-transposed columns without copying: O(d) moves.
  /// Every column must be `n` bits.
  ColumnStore(std::size_t n, std::vector<util::BitVector> columns);

  /// Decodes a row-major bit string (bits.size() / d rows of d bits --
  /// the payload layout of RELEASE-DB and the sample summaries)
  /// straight into columns, skipping the intermediate row Database a
  /// decode-then-transpose would materialize. Preconditions: d > 0,
  /// bits.size() divisible by d.
  static ColumnStore FromRowMajorBits(const util::BitVector& bits,
                                      std::size_t d);

  /// View mode: borrows `d` already-transposed columns laid out at
  /// `stride_words`-word intervals starting at `base` (column j's words
  /// are base[j*stride .. j*stride + ceil(rows/64))), copying nothing --
  /// the zero-copy path over an mmap'd arena sketch image
  /// (sketch/sketch_view.h). The storage must outlive the store, and
  /// each column's bits beyond `rows` (tail bits and padding words up to
  /// the stride) must be zero. Queries are bit-identical to an owning
  /// store of the same columns; the caller keeps the mapping alive.
  static ColumnStore FromColumnWords(const std::uint64_t* base,
                                     std::size_t rows, std::size_t d,
                                     std::size_t stride_words);

  std::size_t num_rows() const { return n_; }
  std::size_t num_columns() const { return columns_.size(); }

  /// Rows containing T, by ANDing T's columns.
  std::size_t SupportCount(const Itemset& t) const;

  /// Batched SupportCount: counts[i] = SupportCount(ts[i]), bit-identical
  /// to the scalar loop. A batch smaller than two chunks of
  /// kFanOutChunkWords runs wholly on the calling thread, through
  /// ThreadPool::ParallelFor's inline path (no type erasure, no
  /// allocation); a larger one fans out on the default thread pool.
  /// Either way each query costs about its kernel call: the loop calls
  /// the active kernels on raw column words, and adjacent queries share
  /// prefix accumulators (see file comment).
  void SupportCounts(const std::vector<Itemset>& ts,
                     std::vector<std::size_t>* counts) const;

  /// The work estimate FanOutGrain sizes chunks by: sum |T| over `ts`
  /// times the words per column. Also checks every query's universe
  /// against num_columns(), so the counting loops need not.
  std::size_t BatchWords(const std::vector<Itemset>& ts) const;

  /// f_T(D), identical to Database::Frequency on the source data.
  double Frequency(const Itemset& t) const;

  /// The n-bit column of attribute j.
  const util::BitVector& Column(std::size_t j) const {
    return columns_[j];
  }

 private:
  // Serial kernel behind SupportCounts: answers queries [first, last)
  // into counts[first..last). Chunk-local state only, so chunks can run
  // concurrently.
  void CountRange(const std::vector<Itemset>& ts, std::size_t first,
                  std::size_t last, std::size_t* counts) const;

  std::size_t n_;
  std::vector<util::BitVector> columns_;
};

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_COLUMN_STORE_H_
