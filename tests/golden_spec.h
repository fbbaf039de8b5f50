// The pinned golden-file spec, shared by the generator
// (tools/make_golden.cc) and the pinning test
// (tests/golden_files_test.cc) so the two can never drift apart.
//
// Changing ANYTHING here (seeds, shape, query set, algorithm list)
// invalidates the checked-in tests/data/ goldens: regenerate them with
// the make_golden tool in the same PR, and only for a deliberate format
// or sampling change -- never to absorb a kernel/batching difference.
#ifndef IFSKETCH_TESTS_GOLDEN_SPEC_H_
#define IFSKETCH_TESTS_GOLDEN_SPEC_H_

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/itemset.h"
#include "core/sketch.h"
#include "data/generators.h"
#include "util/random.h"

namespace ifsketch::golden {

inline constexpr std::uint64_t kDbSeed = 20260730;
inline constexpr std::uint64_t kBuildSeed = 1234500;  // + algorithm index
inline constexpr std::uint64_t kQuerySeed = 424242;
inline constexpr std::size_t kRows = 2000;
inline constexpr std::size_t kCols = 16;
inline constexpr std::size_t kNumQueries = 48;
inline constexpr std::size_t kQuerySize = 3;  // == params.k: all algos answer it

inline constexpr const char* kAlgorithms[] = {
    "RELEASE-DB",        "RELEASE-ANSWERS", "SUBSAMPLE",
    "SUBSAMPLE-WOR",     "IMPORTANCE-SAMPLE",
    "MEDIAN-BOOST(SUBSAMPLE)",
};

inline core::SketchParams GoldenParams() {
  core::SketchParams p;
  p.k = kQuerySize;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// The pinned database every golden sketch is built over.
inline core::Database PinnedDatabase() {
  util::Rng rng(kDbSeed);
  return data::PowerLawBaskets(kRows, kCols, 1.0, 0.5, 4, 3, 0.2, rng);
}

inline std::vector<core::Itemset> PinnedQueries() {
  util::Rng rng(kQuerySeed);
  std::vector<core::Itemset> queries;
  queries.reserve(kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    core::Itemset t(kCols);
    while (t.size() < kQuerySize) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(kCols)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

/// "MEDIAN-BOOST(SUBSAMPLE)" -> "median_boost_subsample": the file stem
/// for an algorithm's golden pair under tests/data/.
inline std::string Slug(const std::string& name) {
  std::string slug;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

}  // namespace ifsketch::golden

#endif  // IFSKETCH_TESTS_GOLDEN_SPEC_H_
