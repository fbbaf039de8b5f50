// Golden-file pinning: the checked-in .ifsk sketches under tests/data/
// must reopen through Engine::Open and reproduce their recorded answers
// exactly, byte for byte on the doubles.
//
// What this protects: the serialized IFSK format, the algorithm loaders,
// and every kernel/batching layer underneath estimate_many. A format
// change, a dispatch-tier divergence, or a batching rewrite that shifts
// any answer bit fails here -- silent drift of serialized results is the
// one failure mode the live round-trip tests cannot catch.
//
// The files are produced by tools/make_golden.cc (build target
// `make_golden`); the pinned constants, query set and file naming live
// in tests/golden_spec.h, shared by both sides. Regenerate the goldens
// ONLY when a PR deliberately changes the format or an algorithm's
// sampling, and say so in the PR: a kernel or performance change must
// never need new goldens.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "engine.h"
#include "golden_spec.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_file.h"
#include "sketch/streaming.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace ifsketch {
namespace {

struct GoldenLine {
  std::string key;   // "a,b,c" ascending attribute list
  double estimate;
  bool frequent;
};

std::vector<GoldenLine> LoadAnswers(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<GoldenLine> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    GoldenLine g;
    std::string hex;
    int bit = 0;
    fields >> g.key >> hex >> bit;
    EXPECT_FALSE(fields.fail()) << path << ": bad line: " << line;
    // strtod parses hexfloat ("%a" output) exactly -- no rounding between
    // the recorded bits and the comparison below.
    g.estimate = std::strtod(hex.c_str(), nullptr);
    g.frequent = bit != 0;
    lines.push_back(g);
  }
  return lines;
}

std::string AttrKey(const core::Itemset& t) {
  std::string key;
  for (std::size_t a : t.Attributes()) {
    if (!key.empty()) key.push_back(',');
    key += std::to_string(a);
  }
  return key;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class GoldenFilesTest : public testing::TestWithParam<const char*> {};

TEST_P(GoldenFilesTest, OpenReproducesRecordedAnswers) {
  const std::string slug = golden::Slug(GetParam());
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  auto engine = Engine::Open(dir + "/" + slug + ".ifsk");
  ASSERT_TRUE(engine.has_value())
      << "cannot open golden sketch for " << GetParam()
      << " (regenerate with the make_golden tool ONLY for a deliberate "
         "format change)";
  EXPECT_EQ(engine->algorithm(), GetParam());

  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/" + slug + ".answers.txt");
  ASSERT_EQ(golden_lines.size(), queries.size());

  std::vector<double> estimates;
  engine->estimate_many(queries, &estimates);
  std::vector<bool> bits;
  engine->are_frequent(queries, &bits);
  ASSERT_EQ(estimates.size(), queries.size());

  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(golden_lines[i].key, AttrKey(queries[i]))
        << "query set drifted from the recorded one at line " << i;
    // Exact double equality: the recorded hexfloat must be reproduced
    // bit for bit, across kernel dispatch tiers and thread counts.
    ASSERT_EQ(golden_lines[i].estimate, estimates[i])
        << GetParam() << " estimate drifted on query "
        << golden_lines[i].key;
    ASSERT_EQ(golden_lines[i].frequent, bits[i])
        << GetParam() << " indicator drifted on query "
        << golden_lines[i].key;
  }

  // The scalar entry point must agree with the recorded batch too.
  ASSERT_EQ(golden_lines[0].estimate, engine->estimate(queries[0]));
}

// The arena (v2) golden -- the same RELEASE-DB summary as
// release_db.ifsk, framed with aligned word sections -- must decode to
// the SAME recorded answers through BOTH load paths: the zero-copy
// mapped path (views straight over the file image, columns adopted from
// the column section) and the copying path (summary copied out of the
// image, columns re-derived from it). This pins the v2 serialization
// and the mapped/copied equivalence to the checked-in bytes; the v1
// goldens above keep pinning the legacy path.
TEST(GoldenFilesTest, ArenaGoldenBitIdenticalOnBothLoadPaths) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/release_db.answers.txt");
  ASSERT_EQ(golden_lines.size(), queries.size());

  for (const Engine::LoadMode mode :
       {Engine::LoadMode::kMapped, Engine::LoadMode::kCopied}) {
    std::string error;
    auto engine = Engine::Open(dir + "/release_db_v2.ifsk", mode, &error);
    ASSERT_TRUE(engine.has_value()) << error;
    EXPECT_EQ(engine->algorithm(), "RELEASE-DB");
    EXPECT_EQ(engine->format_version(), sketch::arena::kVersionArena);
    EXPECT_EQ(engine->load_path(), mode == Engine::LoadMode::kMapped
                                       ? Engine::LoadPath::kMapped
                                       : Engine::LoadPath::kCopied);

    std::vector<double> estimates;
    engine->estimate_many(queries, &estimates);
    std::vector<bool> bits;
    engine->are_frequent(queries, &bits);
    ASSERT_EQ(estimates.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(golden_lines[i].estimate, estimates[i])
          << "v2 estimate drifted from the v1 recording on query "
          << golden_lines[i].key;
      ASSERT_EQ(golden_lines[i].frequent, bits[i])
          << "v2 indicator drifted from the v1 recording on query "
          << golden_lines[i].key;
    }
    ASSERT_EQ(golden_lines[0].estimate, engine->estimate(queries[0]));
  }
}

// The checksummed arena golden -- release_db_v2.ifsk plus the CRC32C
// integrity trailer (PR 10) -- must be exactly the trailer-extended v2
// bytes and answer identically to the recorded answers through both
// load paths, pinning trailer validation to checked-in bytes.
TEST(GoldenFilesTest, ChecksummedArenaGoldenMatchesRecordedAnswers) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const std::string plain = ReadFileBytes(dir + "/release_db_v2.ifsk");
  const std::string checked = ReadFileBytes(dir + "/release_db_v2_crc.ifsk");
  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(checked.size(), plain.size() + sketch::arena::kTrailerBytes);
  EXPECT_EQ(checked.compare(0, plain.size(), plain), 0)
      << "trailer golden diverged from the trailer-less v2 golden";

  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/release_db.answers.txt");
  ASSERT_EQ(golden_lines.size(), queries.size());
  for (const Engine::LoadMode mode :
       {Engine::LoadMode::kMapped, Engine::LoadMode::kCopied}) {
    std::string error;
    auto engine =
        Engine::Open(dir + "/release_db_v2_crc.ifsk", mode, &error);
    ASSERT_TRUE(engine.has_value()) << error;
    std::vector<double> estimates;
    engine->estimate_many(queries, &estimates);
    std::vector<bool> bits;
    engine->are_frequent(queries, &bits);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(golden_lines[i].estimate, estimates[i]);
      ASSERT_EQ(golden_lines[i].frequent, bits[i]);
    }
  }
}

// Construction pinned bit for bit: rebuilding every golden from the
// pinned database and seed (exactly what make_golden does) must write
// the checked-in bytes. The Open tests above pin the query path; this
// pins sampling, summary serialization and the file writers, so a
// construction speed-up that shifts one random draw fails here.
TEST(GoldenFilesTest, RebuildReproducesCheckedInBytes) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const std::string tmp = testing::TempDir();
  const core::Database db = golden::PinnedDatabase();
  std::size_t index = 0;
  for (const char* algo : golden::kAlgorithms) {
    SCOPED_TRACE(algo);
    util::Rng rng(golden::kBuildSeed + index);
    ++index;
    const auto engine = Engine::Build(db, algo, golden::GoldenParams(), rng);
    ASSERT_TRUE(engine.has_value());
    const std::string slug = golden::Slug(algo);
    struct Variant {
      std::string suffix;
      std::uint16_t version;
      sketch::SketchChecksum checksum;
    };
    std::vector<Variant> variants = {
        {"", sketch::arena::kVersionLegacy, sketch::SketchChecksum::kNone}};
    if (index == 1) {  // RELEASE-DB also has the v2 and v2+CRC goldens
      variants.push_back(
          {"_v2", sketch::arena::kVersionArena, sketch::SketchChecksum::kNone});
      variants.push_back({"_v2_crc", sketch::arena::kVersionArena,
                          sketch::SketchChecksum::kCrc32c});
    }
    for (const Variant& v : variants) {
      const std::string name = slug + v.suffix + ".ifsk";
      ASSERT_TRUE(sketch::SaveSketchFile(tmp + name, engine->file(),
                                         v.version, v.checksum))
          << name;
      const std::string want = ReadFileBytes(dir + "/" + name);
      ASSERT_FALSE(want.empty()) << name;
      EXPECT_TRUE(ReadFileBytes(tmp + name) == want)
          << name << " no longer rebuilds byte for byte";
    }
  }
}

// The streaming builders pinned bit for bit: Summary() and SaveState()
// after 1, 7, 2000 and 5000 rows (the golden rows, cycled) from a fixed
// seed, recorded as (bit count, CRC32C of the packed words). Any change
// to the draws a builder makes, their order, or the serialized layout
// moves a value here.
TEST(GoldenFilesTest, StreamingBuildersMatchPinnedCrcs) {
  struct Pin {
    const char* algorithm;
    std::size_t rows;
    std::size_t summary_bits;
    std::uint32_t summary_crc;
    std::size_t state_bits;
    std::uint32_t state_crc;
  };
  const Pin kPins[] = {
      {"STREAM-SUBSAMPLE", 1, 7472, 0x5964609cu, 7536, 0xfb8a6b29u},
      {"STREAM-SUBSAMPLE", 7, 7472, 0x392f5153u, 7536, 0x6290af78u},
      {"STREAM-SUBSAMPLE", 2000, 7472, 0xc46ed729u, 7536, 0x5e50036au},
      {"STREAM-SUBSAMPLE", 5000, 7472, 0x5f44f645u, 7536, 0x4ac62cb4u},
      {"STREAM-STRATIFIED", 1, 7744, 0x512987e2u, 7808, 0xdbd3b3dfu},
      {"STREAM-STRATIFIED", 7, 7744, 0xdf19b973u, 7808, 0x7b8d9df3u},
      {"STREAM-STRATIFIED", 2000, 7744, 0x93208c07u, 7808, 0x57dc8f09u},
      {"STREAM-STRATIFIED", 5000, 7744, 0x4ca3758fu, 7808, 0x33cf00c0u},
      {"STREAM-IMPORTANCE", 1, 37424, 0x9f7d9299u, 38256, 0x024f9ee3u},
      {"STREAM-IMPORTANCE", 7, 37424, 0x7bfd0ea5u, 39280, 0xe74d7aa5u},
      {"STREAM-IMPORTANCE", 2000, 37424, 0xd6c2dcbfu, 39664, 0xf927ac90u},
      {"STREAM-IMPORTANCE", 5000, 37424, 0xba04b7cbu, 39664, 0x732750e7u},
  };
  constexpr std::uint64_t kStreamSeed = 20261017;
  const core::Database db = golden::PinnedDatabase();
  const auto crc = [](const util::BitVector& v) {
    return util::Crc32c(v.data(), v.num_words() * sizeof(std::uint64_t));
  };
  for (const char* name :
       {"STREAM-SUBSAMPLE", "STREAM-STRATIFIED", "STREAM-IMPORTANCE"}) {
    SCOPED_TRACE(name);
    const auto algorithm = sketch::BuiltinRegistry().Create(name);
    const auto* streaming =
        dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
    ASSERT_NE(streaming, nullptr);
    util::Rng rng(kStreamSeed);
    const auto builder =
        streaming->NewBuilder(golden::kCols, golden::GoldenParams(), rng);
    std::size_t observed = 0;
    std::size_t checked = 0;
    for (const Pin& pin : kPins) {
      if (std::string(pin.algorithm) != name) continue;
      while (observed < pin.rows) {
        builder->Observe(db.Row(observed % db.num_rows()));
        ++observed;
      }
      const util::BitVector summary = builder->Summary();
      const util::BitVector state = builder->SaveState();
      EXPECT_EQ(summary.size(), pin.summary_bits) << "rows " << pin.rows;
      EXPECT_EQ(crc(summary), pin.summary_crc) << "rows " << pin.rows;
      EXPECT_EQ(state.size(), pin.state_bits) << "rows " << pin.rows;
      EXPECT_EQ(crc(state), pin.state_crc) << "rows " << pin.rows;
      ++checked;
    }
    EXPECT_EQ(checked, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, GoldenFilesTest,
                         testing::ValuesIn(golden::kAlgorithms),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

}  // namespace
}  // namespace ifsketch
