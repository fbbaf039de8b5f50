#include "engine.h"

#include <cstdio>

#include "sketch/builtin_algorithms.h"
#include "util/check.h"

namespace ifsketch {
namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string FormatSketchError(const std::string& path,
                              const sketch::SketchError& error) {
  return path + ": byte " + std::to_string(error.offset) + ": " +
         error.message;
}

}  // namespace

std::optional<Engine> Engine::Build(const core::Database& db,
                                    const std::string& algorithm,
                                    const core::SketchParams& params,
                                    util::Rng& rng) {
  if (!core::ValidSketchParams(params)) return std::nullopt;
  auto algo = sketch::BuiltinRegistry().Create(algorithm);
  if (algo == nullptr) return std::nullopt;

  sketch::SketchFile file;
  file.algorithm = algo->name();
  file.params = params;
  file.n = db.num_rows();
  file.d = db.num_columns();
  file.summary = algo->Build(db, params, rng);
  return Engine(std::move(file),
                std::shared_ptr<const core::SketchAlgorithm>(std::move(algo)));
}

std::optional<Engine> Engine::FromParts(sketch::SketchFile file,
                                        LoadPath load_path,
                                        std::string* error) {
  auto algo = sketch::ResolveAlgorithm(file);
  if (algo == nullptr) {
    SetError(error, "unknown algorithm \"" + file.algorithm + "\"");
    return std::nullopt;
  }
  // A header can be well-formed while its payload is not the algorithm's:
  // Build() contractually emits exactly PredictedSizeBits, so anything
  // else would only abort later inside a loader CHECK. Reject it here.
  const std::size_t predicted =
      algo->PredictedSizeBits(file.n, file.d, file.params);
  if (file.summary.size() != predicted) {
    SetError(error, "summary payload is " +
                        std::to_string(file.summary.size()) + " bits but " +
                        file.algorithm + " would emit " +
                        std::to_string(predicted) +
                        " for this shape (corrupt or tampered file)");
    return std::nullopt;
  }
  Engine engine(std::move(file), std::shared_ptr<const core::SketchAlgorithm>(
                                     std::move(algo)));
  engine.load_path_ = load_path;
  return engine;
}

std::optional<Engine> Engine::Open(const std::string& path, LoadMode mode,
                                   std::string* error) {
  // One open and one parse for every mode: the bytes that decide the
  // load path are the bytes that get viewed or copied, so an atomic
  // rename landing mid-open cannot pair one file's version with another
  // file's contents.
  std::string open_error;
  std::shared_ptr<const util::MappedFile> image =
      util::MappedFile::Open(path, &open_error);
  if (image == nullptr) {
    SetError(error, mode == LoadMode::kMapped
                        ? open_error
                        : FormatSketchError(path, {"cannot open file", 0}));
    return std::nullopt;
  }
  sketch::SketchError parse_error;
  auto view = sketch::ParseSketchImage(std::move(image), &parse_error);
  if (!view.has_value()) {
    SetError(error, FormatSketchError(path, parse_error));
    return std::nullopt;
  }
  const bool legacy = view->file.version == sketch::arena::kVersionLegacy;
  if (legacy && mode == LoadMode::kMapped) {
    SetError(error, path + ": legacy v1 file has no arena sections; " +
                        "mapped load needs v2 (re-save to upgrade)");
    return std::nullopt;
  }
  const LoadPath load_path =
      legacy || mode == LoadMode::kCopied ? LoadPath::kCopied
                                          : LoadPath::kMapped;
  if (load_path == LoadPath::kCopied) {
    // The reference path: own the summary (a view's copy is deep), drop
    // the image, and let the loaders re-derive columns from the summary
    // instead of trusting the file's column section.
    if (view->file.summary.is_view()) {
      view->file.summary = util::BitVector(view->file.summary);
    }
    view->columns.reset();
    view->mapping.reset();
  }
  auto engine = FromParts(std::move(view->file), load_path, error);
  if (!engine.has_value()) {
    if (error != nullptr) *error = path + ": " + *error;
    return std::nullopt;
  }
  engine->mapping_ = std::move(view->mapping);
  engine->columns_ = view->columns;
  return engine;
}

std::optional<Engine> Engine::FromFile(sketch::SketchFile file) {
  // In-memory adoption: never touched disk, so it reports kBuilt unless
  // the caller's file says it was deserialized (version != 0).
  const LoadPath path =
      file.version == 0 ? LoadPath::kBuilt : LoadPath::kCopied;
  return FromParts(std::move(file), path, nullptr);
}

bool Engine::Save(const std::string& path) const {
  return sketch::SaveSketchFile(path, file_);
}

bool Engine::Save(const std::string& path, std::string* error,
                  sketch::SketchChecksum checksum) const {
  sketch::SketchError detail;
  if (sketch::SaveSketchFile(path, file_, sketch::arena::kVersionArena,
                             checksum, &detail)) {
    return true;
  }
  if (error != nullptr) *error = detail.message;
  return false;
}

std::vector<std::string> Engine::KnownAlgorithms() {
  return sketch::BuiltinRegistry().Names();
}

std::size_t Engine::resident_bytes() const {
  if (mapping_ != nullptr) return mapping_->size();
  return (file_.summary.size() + 7) / 8;
}

std::unique_ptr<core::FrequencyEstimator> Engine::MappedSampleEstimator()
    const {
  if (!columns_.has_value() || !algo_->HasRowMajorPayload(file_.params)) {
    return nullptr;
  }
  // Zero-copy: the payload is exactly the sample rows, so Q is the
  // fraction of the mapped column section's rows that contain T. The
  // columns are borrowed in O(d), with no decode or copy.
  return std::make_unique<core::SampleFrequencyEstimator>(
      core::ColumnStore::FromColumnWords(columns_->words, columns_->rows,
                                         columns_->d,
                                         columns_->stride_words));
}

const core::FrequencyEstimator& Engine::estimator() const {
  std::call_once(views_->estimator_once, [this] {
    // The estimator view only exists for estimator-flavored summaries
    // (e.g. RELEASE-ANSWERS stores single decision bits otherwise).
    IFSKETCH_CHECK(file_.params.answer == core::Answer::kEstimator);
    auto mapped = MappedSampleEstimator();
    views_->estimator =
        mapped != nullptr ? std::move(mapped)
                          : algo_->LoadEstimator(file_.summary, file_.params,
                                                 file_.d, file_.n);
  });
  return *views_->estimator;
}

const core::FrequencyIndicator& Engine::indicator() const {
  std::call_once(views_->indicator_once, [this] {
    auto mapped = MappedSampleEstimator();
    views_->indicator =
        mapped != nullptr
            ? core::DefaultIndicator(std::move(mapped), file_.params)
            : algo_->LoadIndicator(file_.summary, file_.params, file_.d,
                                   file_.n);
  });
  return *views_->indicator;
}

bool Engine::supports_query_size(std::size_t size) const {
  return algo_->SupportsQuerySize(size, file_.params);
}

double Engine::estimate(const core::Itemset& t) const {
  return estimator().EstimateFrequency(t);
}

void Engine::estimate_many(const std::vector<core::Itemset>& ts,
                           std::vector<double>* answers) const {
  estimator().EstimateMany(ts, answers);
}

bool Engine::is_frequent(const core::Itemset& t) const {
  return indicator().IsFrequent(t);
}

void Engine::are_frequent(const std::vector<core::Itemset>& ts,
                          std::vector<bool>* answers) const {
  indicator().AreFrequent(ts, answers);
}

std::vector<mining::FrequentItemset> Engine::mine(
    const mining::AprioriOptions& options) const {
  // Apriori queries every level 1..max_size; an algorithm that only
  // answers size-k queries (RELEASE-ANSWERS) cannot drive it.
  for (std::size_t size = 1; size <= options.max_size; ++size) {
    IFSKETCH_CHECK(supports_query_size(size));
  }
  return mining::MineWithEstimatorBatched(estimator(), file_.d, options);
}

sketch::EnvelopeReport Engine::envelope() const {
  return sketch::NaiveEnvelope(file_.n, file_.d, file_.params);
}

std::string Engine::info() const {
  const sketch::EnvelopeReport env = envelope();
  const char* format =
      file_.version == sketch::arena::kVersionArena
          ? "IFSK v2 (arena sections)"
          : (file_.version == sketch::arena::kVersionLegacy
                 ? "IFSK v1 (byte-packed)"
                 : "in-memory (not loaded from a file)");
  // Distinguish a true mmap from MappedFile's read-whole-file fallback:
  // both serve zero-copy views over one aligned image, but only the
  // former shares page-cache residency -- operators confirming zero-copy
  // should see which they got.
  const char* path =
      load_path_ == LoadPath::kMapped
          ? (mapping_ != nullptr && mapping_->is_mapped()
                 ? "mapped (zero-copy views over the mmap'd file image)"
                 : "mapped (zero-copy views over a buffered file image; "
                   "mmap unavailable)")
          : (load_path_ == LoadPath::kCopied
                 ? "copied (parsed, then copied into owned memory)"
                 : "built (never loaded)");
  char buffer[896];
  std::snprintf(
      buffer, sizeof(buffer),
      "algorithm:  %s\n"
      "guarantee:  %s %s  (k=%zu, eps=%g, delta=%g)\n"
      "database:   n=%zu rows, d=%zu attributes (%zu bits)\n"
      "summary:    %zu bits (%.4f%% of the database)\n"
      "file:       %s\n"
      "load path:  %s, %zu resident bytes\n"
      "envelope:   RELEASE-DB=%zu  RELEASE-ANSWERS=%zu  SUBSAMPLE=%zu\n"
      "            Theorem-12 winner for this shape: %s (%zu bits)\n",
      file_.algorithm.c_str(), core::ToString(file_.params.scope),
      core::ToString(file_.params.answer), file_.params.k, file_.params.eps,
      file_.params.delta, file_.n, file_.d, file_.n * file_.d,
      file_.summary.size(),
      file_.n * file_.d == 0
          ? 0.0
          : 100.0 * static_cast<double>(file_.summary.size()) /
                static_cast<double>(file_.n * file_.d),
      format, path, resident_bytes(), env.release_db_bits,
      env.release_answers_bits, env.subsample_bits, env.winner.c_str(),
      env.winner_bits);
  return buffer;
}

}  // namespace ifsketch
