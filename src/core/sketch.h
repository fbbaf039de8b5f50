// The four itemset sketching problems (Definitions 1-4) as interfaces,
// and the registry that makes every algorithm a first-class citizen.
//
// A sketch is a pair (S, Q): a randomized sketching algorithm S producing
// a bit-string summary, and a deterministic query procedure Q. We model S
// as SketchAlgorithm::Build (which serializes through util::BitWriter so
// Definition 5's |S| is an exact bit count) and Q as the Load +
// IsFrequent / EstimateFrequency pair. The "for all" vs "for each"
// distinction is a property of the *guarantee*, carried in SketchParams,
// because algorithms like SUBSAMPLE pick their size from it (Lemma 9).
//
// Public API layering (outermost first):
//   ifsketch::Engine (engine.h)     -- one object that builds, saves,
//                                      reopens and queries any sketch.
//   core::SketchRegistry (registry.h) -- algorithm name -> factory; lets a
//                                      serialized summary be resolved back
//                                      to its (S, Q) pair by name alone.
//   core::SketchAlgorithm (below)   -- the per-algorithm (S, Q) contract.
//
// Most callers should go through Engine:
//   auto eng = ifsketch::Engine::Build(db, "SUBSAMPLE", params, rng);
//   eng.Save("out.sk");
//   auto again = ifsketch::Engine::Open("out.sk");  // algorithm resolved
//   double f = again->estimate(itemset);            // from the file itself
//
// Query-side views answer one itemset at a time (EstimateFrequency /
// IsFrequent) or in bulk (EstimateMany / AreFrequent). The batched entry
// points are semantically identical to a loop of scalar calls -- answers
// are bit-for-bit the same -- but concrete estimators override them to
// amortize shared work (e.g. transposing a sample into a column store
// once at load time and answering each query as a popcount of ANDed
// columns).
//
// One view class per query rule: SampleFrequencyEstimator (below) is the
// sample-fraction Q of RELEASE-DB, SUBSAMPLE and its variants, on both
// the copying and the mapped load path; sketch::HtEstimator is the
// Horvitz-Thompson Q of IMPORTANCE-SAMPLE and STREAM-IMPORTANCE; and
// ThresholdIndicator turns any estimator into the default indicator.
//
// Threading contract: loaded views must be immutable -- every query
// method is const and safe to call concurrently, with no lazily-built
// mutable caches. The default EstimateMany/AreFrequent (and the
// column-store overrides, once a batch is worth the wake-up; see
// core::FanOutGrain) fan batches out across
// util::ThreadPool::Default(); each query writes only its own answer
// slot, so batched answers stay bit-identical to the scalar loop at any
// thread count. Implementations of EstimateFrequency/IsFrequent
// therefore must be safe to call from multiple threads at once.
#ifndef IFSKETCH_CORE_SKETCH_H_
#define IFSKETCH_CORE_SKETCH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/column_store.h"
#include "core/database.h"
#include "core/itemset.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace ifsketch::core {

/// Which quantifier the accuracy guarantee uses (§1.3).
enum class Scope {
  kForAll,   ///< With prob. 1-delta, correct for ALL k-itemsets at once.
  kForEach,  ///< For each single k-itemset, correct with prob. 1-delta.
};

/// Whether the query returns a threshold bit or an approximate frequency.
enum class Answer {
  kIndicator,  ///< Definition 1/3: 1 if f_T > eps, 0 if f_T < eps/2.
  kEstimator,  ///< Definition 2/4: |answer - f_T| <= eps.
};

const char* ToString(Scope scope);
const char* ToString(Answer answer);

/// The (k, eps, delta) triple plus the guarantee flavor.
struct SketchParams {
  std::size_t k = 1;      ///< Query itemset cardinality.
  double eps = 0.1;       ///< Precision / threshold parameter.
  double delta = 0.05;    ///< Failure probability.
  Scope scope = Scope::kForAll;
  Answer answer = Answer::kEstimator;
};

/// Whether the parameters are usable: k >= 1, eps in (0, 1], delta in
/// (0, 1), all finite. Shared by the writers and readers of the sketch
/// file format so nothing serializable is unloadable and vice versa.
bool ValidSketchParams(const SketchParams& params);

/// Query-side view of an estimator summary (Definitions 2 and 4).
class FrequencyEstimator {
 public:
  virtual ~FrequencyEstimator() = default;

  /// Q(S, T): an approximation of f_T(D) in [0, 1].
  virtual double EstimateFrequency(const Itemset& t) const = 0;

  /// Batched Q: answers every query in `ts`, writing answers[i] for ts[i].
  /// Must return exactly the values EstimateFrequency would, query by
  /// query; overrides only share work, never change answers. The default
  /// is the scalar loop.
  virtual void EstimateMany(const std::vector<Itemset>& ts,
                            std::vector<double>* answers) const;
};

/// Query-side view of an indicator summary (Definitions 1 and 3).
class FrequencyIndicator {
 public:
  virtual ~FrequencyIndicator() = default;

  /// Q(S, T): true asserts f_T > eps/2; false asserts f_T <= eps.
  virtual bool IsFrequent(const Itemset& t) const = 0;

  /// Batched Q: answers[i] = IsFrequent(ts[i]), with the same
  /// answers-identical contract as FrequencyEstimator::EstimateMany.
  virtual void AreFrequent(const std::vector<Itemset>& ts,
                           std::vector<bool>* answers) const;
};

/// Adapts an estimator into an indicator by thresholding at 3eps/4
/// (an estimator with error eps/4 yields a valid indicator at eps).
class ThresholdIndicator : public FrequencyIndicator {
 public:
  ThresholdIndicator(std::unique_ptr<FrequencyEstimator> estimator,
                     double threshold)
      : estimator_(std::move(estimator)), threshold_(threshold) {}

  bool IsFrequent(const Itemset& t) const override {
    return estimator_->EstimateFrequency(t) >= threshold_;
  }

  /// Forwards to the wrapped estimator's batched path, then thresholds.
  void AreFrequent(const std::vector<Itemset>& ts,
                   std::vector<bool>* answers) const override;

 private:
  std::unique_ptr<FrequencyEstimator> estimator_;
  double threshold_;
};

/// The default indicator rule: `estimator` thresholded at 0.75 * eps.
std::unique_ptr<FrequencyIndicator> DefaultIndicator(
    std::unique_ptr<FrequencyEstimator> estimator, const SketchParams& params);

/// The paper's query Q for a uniform row sample: the fraction of sample
/// rows that contain T. RELEASE-DB answers by the same rule, with the
/// whole database as its sample. Support counts are exact integers on
/// the column store, so scalar and batched answers are bit-identical;
/// the columns are built (or borrowed) before construction, so the view
/// is immutable and safe for concurrent queries. Batched queries fan out
/// inside ColumnStore::SupportCounts when the batch is worth it.
class SampleFrequencyEstimator : public FrequencyEstimator {
 public:
  explicit SampleFrequencyEstimator(ColumnStore columns)
      : columns_(std::move(columns)) {}

  double EstimateFrequency(const Itemset& t) const override {
    return columns_.Frequency(t);
  }

  /// SupportCounts / n, and 0.0 for every query of an empty sample.
  void EstimateMany(const std::vector<Itemset>& ts,
                    std::vector<double>* answers) const override;

 private:
  ColumnStore columns_;
};

/// A sketching algorithm: the pair (S, Q) of §1.3.
///
/// Build() is the randomized S; LoadEstimator()/LoadIndicator() are the
/// deterministic Q, reconstructing a queryable view purely from the
/// summary bits plus the public parameters (params, d, n).
class SketchAlgorithm {
 public:
  virtual ~SketchAlgorithm() = default;

  /// Human-readable algorithm name ("RELEASE-DB", "SUBSAMPLE", ...).
  /// Also the registry key: SketchRegistry::Create(name()) must rebuild
  /// an equivalent algorithm for every registered implementation.
  virtual std::string name() const = 0;

  /// S(D, k, eps, delta): serializes a summary of `db`.
  virtual util::BitVector Build(const Database& db, const SketchParams& params,
                                util::Rng& rng) const = 0;

  /// Deserializes an estimator view. `d`/`n` are the public database shape
  /// (not secret; Definition 5 fixes them when defining |S|).
  virtual std::unique_ptr<FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const SketchParams& params,
      std::size_t d, std::size_t n) const = 0;

  /// Deserializes an indicator view (by default, DefaultIndicator over
  /// LoadEstimator).
  virtual std::unique_ptr<FrequencyIndicator> LoadIndicator(
      const util::BitVector& summary, const SketchParams& params,
      std::size_t d, std::size_t n) const;

  /// Predicted summary size in bits for a database of shape (n, d),
  /// i.e. the algorithm's side of the Theorem 12 envelope. Implementations
  /// must match what Build() actually emits.
  virtual std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                        const SketchParams& params) const = 0;

  /// True when Build()'s payload is exactly the sample rows -- one
  /// row-major sample of width d, summary.size()/d rows of d bits and
  /// nothing else -- and Q is the fraction of those rows that contain T
  /// (SampleFrequencyEstimator), under DefaultIndicator for the
  /// indicator. The sketch-file layer then frames a 64-byte-aligned
  /// column-major arena section next to the payload, and the mapped load
  /// path answers from those borrowed columns with that rule instead of
  /// calling the loaders. Algorithms whose payload carries anything
  /// besides the raw sample rows (header fields, concatenated inner
  /// summaries, answer tables), or whose Q is any other rule, must leave
  /// this false.
  virtual bool HasRowMajorPayload(const SketchParams& params) const {
    (void)params;
    return false;
  }

  /// Whether the query views can answer itemsets of cardinality `size`.
  /// The definitions only promise answers for k-itemsets; sample-based
  /// summaries answer any size (the sample is a database), but
  /// RELEASE-ANSWERS stores exactly the C(d,k) size-k answers and cannot
  /// answer anything else. Callers that query off-k sizes (e.g. Apriori
  /// levels 1..k) must check this first.
  virtual bool SupportsQuerySize(std::size_t size,
                                 const SketchParams& params) const {
    (void)size;
    (void)params;
    return true;
  }
};

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_SKETCH_H_
