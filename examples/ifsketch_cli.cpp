// ifsketch_cli: sketch databases from the command line.
//
// An end-to-end tool over the ifsketch::Engine facade:
//   ifsketch_cli gen    <out.txt> <n> <d>              synthesize demo data
//   ifsketch_cli sketch <db.txt> <out.sk> <k> <eps> [--algo NAME]
//                                                      build a sketch
//   ifsketch_cli info   <in.sk>                        envelope report
//   ifsketch_cli query  <in.sk> <attr> [attr...]       estimate one itemset
//   ifsketch_cli mine   <in.sk> <min_freq> <max_size>  Apriori on the sketch
//
// `sketch --algo` accepts any registered algorithm name (RELEASE-DB,
// RELEASE-ANSWERS, SUBSAMPLE, SUBSAMPLE-WOR, IMPORTANCE-SAMPLE, or a
// composite like "MEDIAN-BOOST(SUBSAMPLE)"); the default is SUBSAMPLE.
// `query`, `mine` and `info` never need an algorithm argument -- the IFSK
// file names its producer and the registry resolves it. Databases are
// transaction-format text (see data/io.h); sketches are self-describing
// IFSK files (see sketch/sketch_file.h).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "data/io.h"
#include "engine.h"
#include "sketch/sketch_file.h"
#include "util/kernels.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

using namespace ifsketch;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ifsketch_cli gen    <out.txt> <n> <d>\n"
               "  ifsketch_cli sketch <db.txt> <out.sk> <k> <eps> "
               "[--algo NAME]\n"
               "  ifsketch_cli info   <in.sk>\n"
               "  ifsketch_cli query  <in.sk> <attr> [attr...]\n"
               "  ifsketch_cli mine   <in.sk> <min_freq> <max_size>\n"
               "\nflags:\n"
               "  --algo NAME     sketching algorithm for `sketch` "
               "(default SUBSAMPLE)\n"
               "  --seed S        Rng seed for `sketch` (default "
               "987654321); pass the\n"
               "                  server's ingest seed (1) to rebuild a "
               "served stream\n"
               "                  snapshot bit-identically\n"
               "  --threads N     thread-pool size for batched queries "
               "and mining\n"
               "                  (default: IFSKETCH_THREADS env var, "
               "else all cores)\n"
               "  --kernel TIER   bit-kernel dispatch tier: scalar, avx2 "
               "or avx512\n"
               "                  (default: IFSKETCH_KERNEL env var, else "
               "best for this CPU;\n"
               "                  answers are bit-identical at every "
               "tier)\n"
               "  --load MODE     sketch load path: auto (default; "
               "zero-copy mmap for\n"
               "                  arena v2 files, an owned copy for v1), "
               "mapped (require\n"
               "                  zero-copy), or copied (force an owned "
               "copy; both\n"
               "                  paths answer bit-identically -- `info` "
               "prints which one\n"
               "                  was used and the file format version)\n"
               "\nregistered algorithms (for --algo):\n");
  for (const auto& name : Engine::KnownAlgorithms()) {
    std::fprintf(stderr, "  %s\n", name.c_str());
  }
  return 2;
}

int UnknownAlgorithm(const std::string& name) {
  std::fprintf(stderr, "error: unknown algorithm \"%s\"\n", name.c_str());
  std::fprintf(stderr, "registered algorithms:\n");
  for (const auto& known : Engine::KnownAlgorithms()) {
    std::fprintf(stderr, "  %s\n", known.c_str());
  }
  return 1;
}

int Gen(const std::string& path, std::size_t n, std::size_t d) {
  util::Rng rng(12345);
  const core::Database db =
      data::PowerLawBaskets(n, d, 1.0, 0.5, 4, 3, 0.2, rng);
  if (!data::SaveTransactionsFile(path, db)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu transactions over %zu items to %s\n", n, d,
              path.c_str());
  return 0;
}

int Sketch(const std::string& db_path, const std::string& out_path,
           std::size_t k, double eps, const std::string& algo_name,
           std::uint64_t seed) {
  const auto db = data::LoadTransactionsFile(db_path);
  if (!db.has_value()) {
    std::fprintf(stderr, "error: cannot read %s\n", db_path.c_str());
    return 1;
  }
  core::SketchParams params;
  params.k = k;
  params.eps = eps;
  params.delta = 0.05;
  params.scope = core::Scope::kForAll;
  params.answer = core::Answer::kEstimator;
  if (!core::ValidSketchParams(params)) {
    std::fprintf(stderr,
                 "error: invalid parameters (need k >= 1 and eps in "
                 "(0, 1]; got k=%zu, eps=%g)\n",
                 k, eps);
    return 1;
  }
  util::Rng rng(seed);
  const auto engine = Engine::Build(*db, algo_name, params, rng);
  if (!engine.has_value()) return UnknownAlgorithm(algo_name);
  // Atomic replace + CRC32C integrity trailer: a sketch built by hand is
  // a durable artifact, so bit rot in it should be detected at load.
  std::string save_error;
  if (!engine->Save(out_path, &save_error, sketch::SketchChecksum::kCrc32c)) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", out_path.c_str(),
                 save_error.c_str());
    return 1;
  }
  std::printf("%s sketched %zu x %zu database (%zu bits) into %zu bits "
              "(%.2f%%): %s\n",
              engine->algorithm().c_str(), engine->n(), engine->d(),
              engine->n() * engine->d(), engine->summary_bits(),
              100.0 * static_cast<double>(engine->summary_bits()) /
                  static_cast<double>(engine->n() * engine->d()),
              out_path.c_str());
  return 0;
}

// Exit codes for sketch-opening failures, so scripts can tell a wrong
// path (retry with the right one) from a damaged file (re-sketch):
//   3  file missing / unreadable
//   4  file readable but not a valid IFSK sketch (malformed, unknown
//      producer, or payload/shape mismatch)
constexpr int kExitNotFound = 3;
constexpr int kExitMalformed = 4;

// How `query`/`info`/`mine` acquire sketch bytes (--load): the zero-copy
// mapped path, an owned copy, or whichever fits the file.
Engine::LoadMode g_load_mode = Engine::LoadMode::kAuto;

/// Reopens a sketch file through the registry, reporting each failure
/// stage distinctly: missing file, malformed bytes (with the byte offset
/// of the first invalid field), unknown producer, corrupt payload. On
/// nullopt, *exit_code holds the exit status.
std::optional<Engine> OpenOrReport(const std::string& sk_path,
                                   int* exit_code) {
  std::ifstream in(sk_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s (no such file or not "
                 "readable)\n",
                 sk_path.c_str());
    *exit_code = kExitNotFound;
    return std::nullopt;
  }
  in.close();
  std::string error;
  auto engine = Engine::Open(sk_path, g_load_mode, &error);
  if (!engine.has_value()) {
    // Engine::Open's diagnostic carries the path and, for validation
    // failures, the byte offset of the first bad field.
    std::fprintf(stderr, "error: %s\n", error.c_str());
    if (error.find("unknown algorithm") != std::string::npos) {
      std::fprintf(stderr, "registered algorithms:\n");
      for (const auto& known : Engine::KnownAlgorithms()) {
        std::fprintf(stderr, "  %s\n", known.c_str());
      }
    }
    *exit_code = kExitMalformed;
    return std::nullopt;
  }
  *exit_code = 0;
  return engine;
}

int Info(const std::string& sk_path) {
  int exit_code = 0;
  const auto engine = OpenOrReport(sk_path, &exit_code);
  if (!engine.has_value()) return exit_code;
  std::printf("%s", engine->info().c_str());
  return 0;
}

int Query(const std::string& sk_path,
          const std::vector<std::size_t>& attrs) {
  int exit_code = 0;
  const auto engine = OpenOrReport(sk_path, &exit_code);
  if (!engine.has_value()) return exit_code;
  for (std::size_t a : attrs) {
    if (a >= engine->d()) {
      std::fprintf(stderr, "error: attribute %zu out of range (d=%zu)\n",
                   a, engine->d());
      return 1;
    }
  }
  const core::Itemset t(engine->d(), attrs);
  if (!engine->supports_query_size(t.size())) {
    std::fprintf(stderr,
                 "error: %s only answers %zu-itemset queries (this one "
                 "has %zu attributes)\n",
                 engine->algorithm().c_str(), engine->params().k, t.size());
    return 1;
  }
  if (engine->params().answer == core::Answer::kIndicator) {
    // Indicator-flavored summaries carry threshold bits, not
    // frequencies; answer with the bit they do carry.
    std::printf("f%s %s %g  (indicator sketch, prob %.2f, via %s)\n",
                t.ToString().c_str(),
                engine->is_frequent(t) ? ">" : "<=", engine->params().eps,
                1.0 - engine->params().delta, engine->algorithm().c_str());
    return 0;
  }
  std::printf("f%s ~= %.5f  (+/- %.4f with prob %.2f, via %s)\n",
              t.ToString().c_str(), engine->estimate(t),
              engine->params().eps, 1.0 - engine->params().delta,
              engine->algorithm().c_str());
  return 0;
}

int Mine(const std::string& sk_path, double min_freq,
         std::size_t max_size) {
  int exit_code = 0;
  const auto engine = OpenOrReport(sk_path, &exit_code);
  if (!engine.has_value()) return exit_code;
  if (engine->params().answer != core::Answer::kEstimator) {
    std::fprintf(stderr,
                 "error: mining needs frequency estimates, but this is "
                 "an indicator-flavored sketch (threshold bits only)\n");
    return 1;
  }
  mining::AprioriOptions opt;
  opt.min_frequency = min_freq;
  opt.max_size = max_size;
  for (std::size_t size = 1; size <= max_size; ++size) {
    if (!engine->supports_query_size(size)) {
      std::fprintf(stderr,
                   "error: %s only answers %zu-itemset queries; mining "
                   "needs every size 1..%zu (use a sample-based sketch, "
                   "e.g. SUBSAMPLE or RELEASE-DB)\n",
                   engine->algorithm().c_str(), engine->params().k,
                   max_size);
      return 1;
    }
  }
  const auto mined = engine->mine(opt);
  std::printf("%zu frequent itemsets at threshold %.3f (from the %s "
              "sketch only):\n",
              mined.size(), min_freq, engine->algorithm().c_str());
  for (const auto& fi : mined) {
    std::printf("  %-24s %.4f\n", fi.itemset.ToString().c_str(),
                fi.frequency);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  const std::string cmd = args[0];

  // Extract the recognized flags wherever they appear.
  std::string algo_name = "SUBSAMPLE";
  std::uint64_t seed = 987654321;  // the historical `sketch` default
  for (std::size_t i = 1; i + 1 < args.size();) {
    if (args[i] == "--algo") {
      algo_name = args[i + 1];
    } else if (args[i] == "--seed") {
      char* end = nullptr;
      const unsigned long long v =
          std::strtoull(args[i + 1].c_str(), &end, 10);
      if (args[i + 1].empty() || end == nullptr || *end != '\0') {
        std::fprintf(stderr,
                     "error: --seed needs an unsigned integer (got "
                     "\"%s\")\n",
                     args[i + 1].c_str());
        return 2;
      }
      seed = static_cast<std::uint64_t>(v);
    } else if (args[i] == "--threads") {
      char* end = nullptr;
      const long threads = std::strtol(args[i + 1].c_str(), &end, 10);
      if (threads <= 0 || threads > 4096 || end == nullptr || *end != '\0') {
        std::fprintf(stderr,
                     "error: --threads needs a positive count (got \"%s\")\n",
                     args[i + 1].c_str());
        return 2;
      }
      util::ThreadPool::SetDefaultThreadCount(
          static_cast<std::size_t>(threads));
    } else if (args[i] == "--load") {
      if (args[i + 1] == "auto") {
        g_load_mode = Engine::LoadMode::kAuto;
      } else if (args[i + 1] == "mapped") {
        g_load_mode = Engine::LoadMode::kMapped;
      } else if (args[i + 1] == "copied") {
        g_load_mode = Engine::LoadMode::kCopied;
      } else {
        std::fprintf(stderr,
                     "error: --load must be auto, mapped or copied (got "
                     "\"%s\")\n",
                     args[i + 1].c_str());
        return 2;
      }
    } else if (args[i] == "--kernel") {
      if (!util::SetKernelTier(args[i + 1])) {
        std::fprintf(stderr,
                     "error: kernel tier \"%s\" is unknown or not usable "
                     "on this build/CPU; usable tiers:\n",
                     args[i + 1].c_str());
        for (util::KernelTier tier : util::SupportedKernelTiers()) {
          std::fprintf(stderr, "  %s\n", util::KernelTierName(tier));
        }
        return 2;
      }
    } else {
      ++i;
      continue;
    }
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
  }
  // Anything flag-shaped still left is a typo or a flag missing its
  // value; reject it rather than letting strtoull parse it as 0 (which
  // would silently query attribute 0).
  for (const std::string& a : args) {
    if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unrecognized or valueless flag \"%s\"\n",
                   a.c_str());
      return 2;
    }
  }

  if (cmd == "gen" && args.size() == 4) {
    return Gen(args[1], std::strtoull(args[2].c_str(), nullptr, 10),
               std::strtoull(args[3].c_str(), nullptr, 10));
  }
  if (cmd == "sketch" && args.size() == 5) {
    return Sketch(args[1], args[2],
                  std::strtoull(args[3].c_str(), nullptr, 10),
                  std::strtod(args[4].c_str(), nullptr), algo_name, seed);
  }
  if (cmd == "info" && args.size() == 2) {
    return Info(args[1]);
  }
  if (cmd == "query" && args.size() >= 3) {
    std::vector<std::size_t> attrs;
    for (std::size_t i = 2; i < args.size(); ++i) {
      attrs.push_back(std::strtoull(args[i].c_str(), nullptr, 10));
    }
    return Query(args[1], attrs);
  }
  if (cmd == "mine" && args.size() == 4) {
    return Mine(args[1], std::strtod(args[2].c_str(), nullptr),
                std::strtoull(args[3].c_str(), nullptr, 10));
  }
  return Usage();
}
