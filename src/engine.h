// ifsketch::Engine -- the library's front door.
//
// The paper studies pairs (S, Q); everything else in this repo is the
// machinery behind one such pair. Engine packages the whole lifecycle so
// callers never hardcode a concrete algorithm class:
//
//   util::Rng rng(7);
//   auto eng = ifsketch::Engine::Build(db, "SUBSAMPLE", params, rng);
//   eng->Save("basket.sk");
//   ...
//   auto again = ifsketch::Engine::Open("basket.sk");   // any IFSK file;
//   double f  = again->estimate(itemset);               // algorithm comes
//   auto fs   = again->mine(mining_options);            // from the file
//
// Build resolves the algorithm name through core::SketchRegistry (so
// "MEDIAN-BOOST(SUBSAMPLE)" works as well as the five plain built-ins),
// Open re-resolves the name stored in the file, and the query methods
// lazily materialize the estimator/indicator views. estimate_many routes
// through the batched query path (core::FrequencyEstimator::EstimateMany)
// which shares column scans across the batch; mine() batches each Apriori
// level the same way.
//
// Load paths: Open prefers the ZERO-COPY MAPPED path for arena (v2)
// files -- the file is mmap'd (util::MappedFile), validated in place
// (sketch/sketch_view.h), and the summary plus any pre-transposed column
// section are handed to the query views as borrowed, 64-byte-aligned
// words straight out of the page cache, so opening is O(header + d)
// instead of O(payload). Legacy v1 files, and callers forcing
// LoadMode::kCopied, go through the same single parse and then own a
// copy of their bits (columns re-derived from the summary).
// The two paths answer every query bit-identically; load_path() reports
// which one an Engine took, resident_bytes() what it pins (mapped image
// size vs owned summary bytes), and dropping the last reference to a
// mapped Engine unmaps the file.
//
// Threading contract: every query method is const and safe to call from
// any number of threads concurrently on one Engine. Lazy view
// materialization is guarded by std::call_once, and the built-in views
// are immutable once loaded. Batched queries (estimate_many,
// are_frequent, mine) may additionally fan a batch out across
// util::ThreadPool::Default(). The column-store-backed sample sketches
// do so only when the batch's work is worth at least two chunks of
// core::kFanOutChunkWords column words (core/column_store.h): smaller
// batches, which include typical served requests, run wholly on the
// calling thread. Answers are bit-identical to the serial scalar loop
// at every thread count. Size the pool with
// util::ThreadPool::SetDefaultThreadCount (or the IFSKETCH_THREADS
// environment variable) from configuration code, before queries are in
// flight. Save/Build/Open are not synchronized against each other.
#ifndef IFSKETCH_ENGINE_H_
#define IFSKETCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/itemset.h"
#include "core/sketch.h"
#include "mining/apriori.h"
#include "sketch/envelope.h"
#include "sketch/sketch_file.h"
#include "sketch/sketch_view.h"
#include "util/mapped_file.h"
#include "util/random.h"

namespace ifsketch {

/// Facade over build / save / open / query for any registered algorithm.
class Engine {
 public:
  /// How Open acquires the file's bytes.
  enum class LoadMode {
    kAuto,    ///< mapped for arena (v2) files, copied for legacy v1
    kMapped,  ///< require the zero-copy path; fail on v1 files
    kCopied,  ///< force an owned copy (works for both versions)
  };

  /// Which path an Engine's bits actually came from.
  enum class LoadPath {
    kBuilt,   ///< Build/FromFile: in-memory, never loaded from disk
    kMapped,  ///< zero-copy views over a MappedFile
    kCopied,  ///< parsed, then copied into owned storage
  };

  /// Sketches `db` with the named algorithm. Returns nullopt when the
  /// registry cannot resolve `algorithm` (see KnownAlgorithms()).
  static std::optional<Engine> Build(const core::Database& db,
                                     const std::string& algorithm,
                                     const core::SketchParams& params,
                                     util::Rng& rng);

  /// Reopens a saved sketch, resolving the algorithm recorded in the
  /// file; prefers the mapped path per `mode`. Returns nullopt when the
  /// file is unreadable/malformed or its algorithm is not registered;
  /// when `error` is non-null it receives a one-line diagnostic naming
  /// the path and, for validation failures, the byte offset of the
  /// first bad field.
  static std::optional<Engine> Open(const std::string& path,
                                    LoadMode mode = LoadMode::kAuto,
                                    std::string* error = nullptr);
  static std::optional<Engine> Open(const std::string& path,
                                    std::string* error) {
    return Open(path, LoadMode::kAuto, error);
  }

  /// Adopts an already-loaded file (the in-memory equivalent of Open).
  static std::optional<Engine> FromFile(sketch::SketchFile file);

  /// Writes the sketch as an IFSK file (arena v2), atomically replacing
  /// `path` (write temp, fsync, rename). Returns false on I/O failure;
  /// the overload reports the errno/strerror detail in *error and can
  /// append the CRC32C integrity trailer for durable copies.
  bool Save(const std::string& path) const;
  bool Save(const std::string& path, std::string* error,
            sketch::SketchChecksum checksum =
                sketch::SketchChecksum::kNone) const;

  /// Names the default registry resolves, for error messages and --help.
  static std::vector<std::string> KnownAlgorithms();

  // ----------------------------------------------------------- metadata
  const std::string& algorithm() const { return file_.algorithm; }
  const core::SketchParams& params() const { return file_.params; }
  std::size_t n() const { return file_.n; }
  std::size_t d() const { return file_.d; }
  std::size_t summary_bits() const { return file_.summary.size(); }
  const sketch::SketchFile& file() const { return file_; }

  /// Which load path produced this Engine (see LoadPath).
  LoadPath load_path() const { return load_path_; }

  /// On-disk format version this Engine was loaded from
  /// (sketch::arena::kVersionLegacy / kVersionArena), or 0 when built
  /// in memory.
  std::uint16_t format_version() const { return file_.version; }

  /// Bytes this Engine pins for its summary data: the whole mapped image
  /// for the mapped path (what eviction releases back to the page
  /// cache), the owned summary payload bytes otherwise. Serving-layer
  /// byte budgets (serve::SketchPod) account in these units.
  std::size_t resident_bytes() const;

  // ------------------------------------------------------------ queries
  /// Whether this sketch can answer queries of cardinality `size`.
  /// Sample-backed algorithms answer any size; RELEASE-ANSWERS only
  /// answers exactly params().k. Querying an unsupported size is a
  /// contract violation (the views abort rather than alias into a wrong
  /// answer), so gate on this for user-supplied query sizes.
  bool supports_query_size(std::size_t size) const;

  /// Q(S, T) as a frequency estimate. Requires an estimator-flavored
  /// sketch (params().answer == Answer::kEstimator) and a supported
  /// query size.
  double estimate(const core::Itemset& t) const;

  /// Batched estimate; answers[i] corresponds to ts[i]. Same requirement
  /// and bit-identical to per-query estimate() calls.
  void estimate_many(const std::vector<core::Itemset>& ts,
                     std::vector<double>* answers) const;

  /// Q(S, T) as a threshold bit (works for both answer flavors).
  bool is_frequent(const core::Itemset& t) const;

  /// Batched is_frequent.
  void are_frequent(const std::vector<core::Itemset>& ts,
                    std::vector<bool>* answers) const;

  /// Apriori over the sketch, batching each candidate level through
  /// estimate_many. Requires an estimator-flavored sketch that supports
  /// every query size 1..options.max_size (see supports_query_size).
  std::vector<mining::FrequentItemset> mine(
      const mining::AprioriOptions& options) const;

  // --------------------------------------------------------------- info
  /// The Theorem 12 envelope for this sketch's shape and parameters.
  sketch::EnvelopeReport envelope() const;

  /// Multi-line human-readable report: algorithm, parameters, shape,
  /// summary size, file format + load path, and the envelope comparison.
  std::string info() const;

 private:
  // Lazily-materialized query views plus their once-flags. Heap-held so
  // Engine stays movable (std::once_flag is neither movable nor
  // copyable); shared so copies of an Engine share the deserialized
  // views (they are pure functions of the immutable file contents).
  struct ViewCache {
    std::once_flag estimator_once;
    std::once_flag indicator_once;
    std::shared_ptr<const core::FrequencyEstimator> estimator;
    std::shared_ptr<const core::FrequencyIndicator> indicator;
  };

  Engine(sketch::SketchFile file,
         std::shared_ptr<const core::SketchAlgorithm> algo)
      : file_(std::move(file)),
        algo_(std::move(algo)),
        views_(std::make_shared<ViewCache>()) {}

  /// Resolve + payload-size validation shared by FromFile and Open;
  /// `error` (optional) receives the reason on nullopt.
  static std::optional<Engine> FromParts(sketch::SketchFile file,
                                         LoadPath load_path,
                                         std::string* error);

  const core::FrequencyEstimator& estimator() const;
  const core::FrequencyIndicator& indicator() const;

  /// The borrowed column store over the mapped column section; only
  /// callable when columns_ is set.
  core::ColumnStore BorrowedColumns() const;

  sketch::SketchFile file_;
  std::shared_ptr<const core::SketchAlgorithm> algo_;
  // Mapped-path state. `mapping_` keeps the bytes behind file_.summary's
  // view (and columns_) alive; it is declared before views_ so that when
  // the last copy of an Engine dies, the cached views are destroyed
  // before the mapping they may point into.
  std::shared_ptr<const util::MappedFile> mapping_;
  std::optional<sketch::ArenaColumns> columns_;
  LoadPath load_path_ = LoadPath::kBuilt;
  // Query views are deserialized on first use (std::call_once, so
  // concurrent first queries are safe) and cached.
  std::shared_ptr<ViewCache> views_;
};

}  // namespace ifsketch

#endif  // IFSKETCH_ENGINE_H_
