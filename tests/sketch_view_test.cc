// The zero-copy mapped load path (util::MappedFile + sketch::SketchView
// + Engine::Open's LoadMode) against the copying load.
//
// The contract under test: for EVERY registered algorithm, a sketch
// opened through the mapped path answers estimate_many / are_frequent /
// mine bit-identically to the same file opened through the copying path,
// which re-derives columns from the summary; legacy v1 files keep loading
// (copied); and the in-place parser rejects malformed arenas with the
// byte offset of the first bad field, never crashing on mutants.

#include "sketch/sketch_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "util/crc32c.h"
#include "util/mapped_file.h"
#include "util/random.h"

namespace ifsketch {
namespace {

std::string Sanitize(const std::string& name) {
  std::string safe = name;
  for (char& c : safe) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return safe;
}

core::SketchParams TestParams(core::Answer answer = core::Answer::kEstimator) {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = answer;
  return p;
}

constexpr std::size_t kRows = 400;
constexpr std::size_t kCols = 12;  // rows-per-column not a multiple of 64

core::Database TestDb() {
  util::Rng rng(4242);
  return data::PowerLawBaskets(kRows, kCols, 1.0, 0.5, 4, 3, 0.2, rng);
}

std::vector<core::Itemset> QueriesOfSize(std::size_t size,
                                         std::size_t count) {
  util::Rng rng(777 + size);
  std::vector<core::Itemset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(kCols);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(kCols)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

/// Saves `engine` under TempDir at the current (arena) format version.
std::string SaveTemp(const Engine& engine, const std::string& stem) {
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(engine.Save(path));
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// CRC32C over the raw bytes of estimate_many's answers (estimator
/// flavor only; the estimator view does not exist otherwise), extended
/// over the are_frequent answers one byte each. Pins every answer bit of
/// one engine, so a refactor of the query views cannot drift unnoticed.
std::uint32_t AnswerDigest(const Engine& engine,
                           const std::vector<core::Itemset>& queries) {
  std::uint32_t crc = 0;
  if (engine.params().answer == core::Answer::kEstimator) {
    std::vector<double> estimates;
    engine.estimate_many(queries, &estimates);
    crc = util::Crc32cExtend(crc, estimates.data(),
                             estimates.size() * sizeof(double));
  }
  std::vector<bool> bits;
  engine.are_frequent(queries, &bits);
  const std::vector<std::uint8_t> bytes(bits.begin(), bits.end());
  return util::Crc32cExtend(crc, bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------
// Registry-driven equivalence: mapped == copied for every algorithm.

// AnswerDigest of QueriesOfSize(3, 64) on TestDb() sketched with
// TestParams() and Rng(99), per registry name. Recorded once; every
// load path must reproduce it.
struct PinnedDigest {
  const char* algorithm;
  std::uint32_t digest;
};
// SUBSAMPLE-WOR's sample count exceeds kRows here, so it falls back to
// SUBSAMPLE's draws and shares its digest.
constexpr PinnedDigest kPinnedDigests[] = {
    {"RELEASE-DB", 0x4717e7a9u},
    {"RELEASE-ANSWERS", 0x58fd0d6au},
    {"SUBSAMPLE", 0xad611428u},
    {"SUBSAMPLE-WOR", 0xad611428u},
    {"IMPORTANCE-SAMPLE", 0xbbebe456u},
    {"STREAM-SUBSAMPLE", 0x7cb5278bu},
    {"STREAM-STRATIFIED", 0x767f0ed5u},
    {"STREAM-IMPORTANCE", 0xcc8f27c0u},
    {"MEDIAN-BOOST(SUBSAMPLE)", 0x7de4452eu},
};

/// The pinned digest for registry name `name`, or nullptr.
const PinnedDigest* FindPinnedDigest(const std::string& name) {
  for (const PinnedDigest& entry : kPinnedDigests) {
    if (name == entry.algorithm) return &entry;
  }
  return nullptr;
}

class MappedVsCopiedTest : public testing::TestWithParam<std::string> {};

TEST_P(MappedVsCopiedTest, AnswersBitIdenticalAcrossLoadPaths) {
  // Combinator registry entries list as "NAME(...)"; instantiate them
  // over SUBSAMPLE, like the golden spec does.
  std::string name = GetParam();
  const std::size_t placeholder = name.find("(...)");
  if (placeholder != std::string::npos) {
    name = name.substr(0, placeholder) + "(SUBSAMPLE)";
  }
  const core::Database db = TestDb();
  util::Rng rng(99);
  auto built = Engine::Build(db, name, TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path =
      SaveTemp(*built, "mapped_vs_copied_" + Sanitize(GetParam()));

  std::string error;
  auto mapped = Engine::Open(path, Engine::LoadMode::kMapped, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  auto copied = Engine::Open(path, Engine::LoadMode::kCopied, &error);
  ASSERT_TRUE(copied.has_value()) << error;

  EXPECT_EQ(mapped->load_path(), Engine::LoadPath::kMapped);
  EXPECT_EQ(copied->load_path(), Engine::LoadPath::kCopied);
  EXPECT_EQ(mapped->format_version(), sketch::arena::kVersionArena);
  EXPECT_EQ(mapped->algorithm(), built->algorithm());

  // estimate_many / are_frequent at the guaranteed size k.
  const auto queries = QueriesOfSize(3, 64);
  std::vector<double> mapped_est, copied_est, built_est;
  mapped->estimate_many(queries, &mapped_est);
  copied->estimate_many(queries, &copied_est);
  built->estimate_many(queries, &built_est);
  ASSERT_EQ(mapped_est.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(mapped_est[i], copied_est[i]) << "query " << i;
    ASSERT_EQ(mapped_est[i], built_est[i]) << "query " << i;
  }

  std::vector<bool> mapped_bits, copied_bits;
  mapped->are_frequent(queries, &mapped_bits);
  copied->are_frequent(queries, &copied_bits);
  ASSERT_EQ(mapped_bits, copied_bits);

  // Every load path reproduces the recorded answers, bit for bit.
  const PinnedDigest* pin = FindPinnedDigest(name);
  ASSERT_NE(pin, nullptr) << "no pinned digest for " << name
                          << "; the built engine reads 0x" << std::hex
                          << AnswerDigest(*built, queries);
  EXPECT_EQ(AnswerDigest(*built, queries), pin->digest) << "built";
  EXPECT_EQ(AnswerDigest(*mapped, queries), pin->digest) << "mapped";
  EXPECT_EQ(AnswerDigest(*copied, queries), pin->digest) << "copied";

  // Scalar entry points agree with the batch (and across paths).
  ASSERT_EQ(mapped->estimate(queries[0]), copied->estimate(queries[0]));
  ASSERT_EQ(mapped->is_frequent(queries[0]), copied->is_frequent(queries[0]));

  // Full Apriori run, when the algorithm answers every level.
  bool mineable = true;
  for (std::size_t size = 1; size <= 3; ++size) {
    mineable = mineable && mapped->supports_query_size(size);
  }
  if (mineable) {
    mining::AprioriOptions options;
    options.min_frequency = 0.05;
    options.max_size = 3;
    const auto mapped_mined = mapped->mine(options);
    const auto copied_mined = copied->mine(options);
    ASSERT_EQ(mapped_mined.size(), copied_mined.size());
    for (std::size_t i = 0; i < mapped_mined.size(); ++i) {
      ASSERT_EQ(mapped_mined[i].itemset.Attributes(),
                copied_mined[i].itemset.Attributes());
      ASSERT_EQ(mapped_mined[i].frequency, copied_mined[i].frequency);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MappedVsCopiedTest,
                         testing::ValuesIn(Engine::KnownAlgorithms()),
                         [](const auto& info) { return Sanitize(info.param); });

// Indicator-flavored sketches exercise the mapped indicator view: the
// default threshold rule over the borrowed column section.
TEST(MappedLoadTest, IndicatorFlavorBitIdenticalAcrossLoadPaths) {
  const core::Database db = TestDb();
  util::Rng rng(5);
  auto built = Engine::Build(db, "SUBSAMPLE",
                             TestParams(core::Answer::kIndicator), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "mapped_indicator");

  auto mapped = Engine::Open(path, Engine::LoadMode::kMapped);
  auto copied = Engine::Open(path, Engine::LoadMode::kCopied);
  ASSERT_TRUE(mapped.has_value());
  ASSERT_TRUE(copied.has_value());
  const auto queries = QueriesOfSize(3, 64);
  std::vector<bool> mapped_bits, copied_bits;
  mapped->are_frequent(queries, &mapped_bits);
  copied->are_frequent(queries, &copied_bits);
  EXPECT_EQ(mapped_bits, copied_bits);

  // AnswerDigest recorded for this sketch; every load path reproduces it.
  constexpr std::uint32_t kIndicatorDigest = 0xca70720eu;
  EXPECT_EQ(AnswerDigest(*built, queries), kIndicatorDigest) << "built";
  EXPECT_EQ(AnswerDigest(*mapped, queries), kIndicatorDigest) << "mapped";
  EXPECT_EQ(AnswerDigest(*copied, queries), kIndicatorDigest) << "copied";
}

// ---------------------------------------------------------------------
// Load-path selection and metadata.

TEST(MappedLoadTest, AutoMapsArenaFilesAndCopiesLegacyFiles) {
  const core::Database db = TestDb();
  util::Rng rng(7);
  auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
  ASSERT_TRUE(built.has_value());

  const std::string v2_path = SaveTemp(*built, "auto_v2");
  const std::string v1_path = testing::TempDir() + "/auto_v1.ifsk";
  ASSERT_TRUE(sketch::SaveSketchFile(v1_path, built->file(),
                                     sketch::arena::kVersionLegacy));

  auto v2 = Engine::Open(v2_path);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->load_path(), Engine::LoadPath::kMapped);
  EXPECT_EQ(v2->format_version(), sketch::arena::kVersionArena);
  EXPECT_TRUE(v2->file().summary.is_view());

  auto v1 = Engine::Open(v1_path);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->load_path(), Engine::LoadPath::kCopied);
  EXPECT_EQ(v1->format_version(), sketch::arena::kVersionLegacy);
  EXPECT_FALSE(v1->file().summary.is_view());

  // Same summary bits through every representation.
  EXPECT_EQ(v1->file().summary, v2->file().summary);
  EXPECT_EQ(v1->file().summary, built->file().summary);

  // Forcing kMapped on a v1 file fails with the re-save hint.
  std::string error;
  EXPECT_FALSE(
      Engine::Open(v1_path, Engine::LoadMode::kMapped, &error).has_value());
  EXPECT_EQ(error, v1_path + ": legacy v1 file has no arena sections; "
                             "mapped load needs v2 (re-save to upgrade)");

  // v1 has no end marker, so bytes after its payload are tolerated: the
  // file loads on both copying modes and answers like the clean one.
  const std::string v1_tail_path = testing::TempDir() + "/auto_v1_tail.ifsk";
  ASSERT_TRUE(sketch::SaveSketchFile(v1_tail_path, built->file(),
                                     sketch::arena::kVersionLegacy));
  std::ofstream(v1_tail_path, std::ios::binary | std::ios::app)
      << "trailing bytes";
  const auto queries = QueriesOfSize(3, 32);
  std::vector<double> clean_answers;
  v1->estimate_many(queries, &clean_answers);
  for (const auto mode : {Engine::LoadMode::kAuto, Engine::LoadMode::kCopied}) {
    auto tail = Engine::Open(v1_tail_path, mode, &error);
    ASSERT_TRUE(tail.has_value()) << error;
    EXPECT_EQ(tail->load_path(), Engine::LoadPath::kCopied);
    EXPECT_EQ(tail->file().summary, v1->file().summary);
    std::vector<double> answers;
    tail->estimate_many(queries, &answers);
    EXPECT_EQ(answers, clean_answers);
  }

  // info() names the load path and format so operators can confirm
  // zero-copy is active.
  EXPECT_NE(v2->info().find("mapped"), std::string::npos);
  EXPECT_NE(v2->info().find("v2"), std::string::npos);
  EXPECT_NE(v1->info().find("copied"), std::string::npos);
}

// Engine::Open(kAuto) classifies a file by its own mapped bytes: v2
// images are viewed in place, v1 images are copied, and everything else
// fails with the parser's report. Pins the load path and the exact error
// text for every kind of file the classification can meet.
TEST(MappedLoadTest, AutoOpenLoadPathAndErrorTextPerFileKind) {
  const core::Database db = TestDb();
  util::Rng rng(19);
  auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string dir = testing::TempDir() + "/";

  const std::string v2_path = SaveTemp(*built, "kind_v2");
  const std::string crc_path = dir + "kind_v2_crc.ifsk";
  std::string save_error;
  ASSERT_TRUE(built->Save(crc_path, &save_error,
                          sketch::SketchChecksum::kCrc32c))
      << save_error;
  const std::string v1_path = dir + "kind_v1.ifsk";
  ASSERT_TRUE(sketch::SaveSketchFile(v1_path, built->file(),
                                     sketch::arena::kVersionLegacy));

  const std::string image = Slurp(v2_path);
  const std::string crc_image = Slurp(crc_path);
  ASSERT_GT(image.size(), 64u);
  const auto write = [&](const std::string& name, const std::string& bytes) {
    const std::string path = dir + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  };
  const std::string cut_path = write("kind_cut.ifsk", image.substr(0, 64));
  const std::string torn_path =
      write("kind_torn.ifsk", crc_image.substr(0, crc_image.size() - 1));
  const std::string stub_path = write("kind_stub.ifsk", image.substr(0, 3));
  const std::string text_path = write("kind_text.ifsk", "not a sketch\n");
  const std::string empty_path = write("kind_empty.ifsk", "");
  const std::string missing_path = dir + "kind_missing.ifsk";

  for (const std::string& path : {v2_path, crc_path}) {
    std::string error;
    auto engine = Engine::Open(path, Engine::LoadMode::kAuto, &error);
    ASSERT_TRUE(engine.has_value()) << error;
    EXPECT_EQ(engine->load_path(), Engine::LoadPath::kMapped) << path;
  }
  {
    std::string error;
    auto engine = Engine::Open(v1_path, Engine::LoadMode::kAuto, &error);
    ASSERT_TRUE(engine.has_value()) << error;
    EXPECT_EQ(engine->load_path(), Engine::LoadPath::kCopied);
  }

  const std::pair<std::string, std::string> failures[] = {
      {cut_path, cut_path + ": byte 63: section count: file truncated"},
      {torn_path,
       torn_path + ": byte 63: image size does not match section table"},
      {stub_path, stub_path + ": byte 0: magic: file truncated"},
      {text_path,
       text_path + ": byte 0: bad magic (not an IFSK sketch file)"},
      {empty_path, empty_path + ": byte 0: magic: file truncated"},
      {missing_path, missing_path + ": byte 0: cannot open file"},
  };
  for (const auto& [path, expected] : failures) {
    std::string error;
    EXPECT_FALSE(
        Engine::Open(path, Engine::LoadMode::kAuto, &error).has_value());
    EXPECT_EQ(error, expected);
  }

  // One flipped summary byte in a checksummed file is caught by the CRC
  // on every load mode, at the trailer's checksum field.
  const auto crc_view = sketch::ViewSketchFile(crc_path);
  ASSERT_TRUE(crc_view.has_value());
  const std::size_t summary_at = static_cast<std::size_t>(
      reinterpret_cast<const unsigned char*>(crc_view->file.summary.data()) -
      crc_view->mapping->data());
  std::string flipped = crc_image;
  flipped[summary_at] = static_cast<char>(flipped[summary_at] ^ 0x01);
  const std::string flip_path = write("kind_v2_crc_flip.ifsk", flipped);
  for (const auto mode : {Engine::LoadMode::kAuto, Engine::LoadMode::kMapped,
                          Engine::LoadMode::kCopied}) {
    std::string error;
    EXPECT_FALSE(Engine::Open(flip_path, mode, &error).has_value());
    EXPECT_EQ(error, flip_path + ": byte " +
                         std::to_string(crc_image.size() - 8) +
                         ": file checksum mismatch");
  }
}

TEST(MappedLoadTest, ResidentBytesIsMappedImageSize) {
  const core::Database db = TestDb();
  util::Rng rng(11);
  auto built = Engine::Build(db, "RELEASE-DB", TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "resident_bytes");

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::size_t file_size = static_cast<std::size_t>(in.tellg());

  auto mapped = Engine::Open(path, Engine::LoadMode::kMapped);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->resident_bytes(), file_size);

  auto copied = Engine::Open(path, Engine::LoadMode::kCopied);
  ASSERT_TRUE(copied.has_value());
  EXPECT_EQ(copied->resident_bytes(), (copied->summary_bits() + 7) / 8);
}

// A mapped engine must stay fully usable after the optional that carried
// it is gone and after copies of it are destroyed (the mapping is
// refcounted through every copy).
TEST(MappedLoadTest, MappedEngineSurvivesCopyAndMove) {
  const core::Database db = TestDb();
  util::Rng rng(13);
  auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "mapped_copy_move");
  const auto queries = QueriesOfSize(3, 16);
  std::vector<double> expected;
  built->estimate_many(queries, &expected);

  std::vector<double> got;
  {
    auto opened = Engine::Open(path, Engine::LoadMode::kMapped);
    ASSERT_TRUE(opened.has_value());
    Engine moved = *std::move(opened);
    opened.reset();
    {
      const Engine copy = moved;  // NOLINT(performance-unnecessary-copy)
      copy.estimate_many(queries, &got);
      ASSERT_EQ(got, expected);
    }
    moved.estimate_many(queries, &got);
    ASSERT_EQ(got, expected);
  }
}

// ---------------------------------------------------------------------
// In-place validation of malformed images.

class ArenaImageTest : public testing::Test {
 protected:
  void SetUp() override {
    const core::Database db = TestDb();
    util::Rng rng(17);
    auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
    ASSERT_TRUE(built.has_value());
    path_ = SaveTemp(*built, "arena_image");
    bytes_ = Slurp(path_);
    ASSERT_TRUE(sketch::ViewSketchImage(Image()).has_value());
  }

  /// An owned aligned image of the first `size` bytes (all by default).
  std::shared_ptr<const util::MappedFile> Image(
      std::size_t size = std::string::npos) const {
    return util::MappedFile::FromBytes(bytes_.data(),
                                       std::min(size, bytes_.size()));
  }

  unsigned char* MutableBytes() {
    return reinterpret_cast<unsigned char*>(bytes_.data());
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(ArenaImageTest, RejectsTruncation) {
  sketch::SketchError error;
  for (const std::size_t keep : {0u, 3u, 5u, 40u, 64u, 128u}) {
    ASSERT_LT(keep, bytes_.size());
    EXPECT_FALSE(sketch::ViewSketchImage(Image(keep), &error).has_value())
        << keep;
  }
}

TEST_F(ArenaImageTest, RejectsLegacyVersionWithDistinctError) {
  MutableBytes()[4] = 1;  // version u16 low byte
  sketch::SketchError error;
  EXPECT_FALSE(sketch::ViewSketchImage(Image(), &error).has_value());
  EXPECT_EQ(error.offset, 4u);
  EXPECT_NE(error.message.find("v1"), std::string::npos);
}

TEST_F(ArenaImageTest, RejectsUnknownVersion) {
  MutableBytes()[4] = 9;
  sketch::SketchError error;
  EXPECT_FALSE(sketch::ViewSketchImage(Image(), &error).has_value());
  EXPECT_EQ(error.offset, 4u);
}

TEST_F(ArenaImageTest, RejectsTrailingGarbage) {
  bytes_ += std::string(8, 'x');
  sketch::SketchError error;
  EXPECT_FALSE(sketch::ViewSketchImage(Image(), &error).has_value());
  EXPECT_NE(error.message.find("section table"), std::string::npos);
}

// Regression: a bit count close enough to 2^64 that (bits+63)/64 wraps
// to a tiny word count must be rejected at the bit-count field -- not
// sail through the shape checks with a zero-word summary and crash the
// word-image code (every load path shares the guard in the parser).
TEST_F(ArenaImageTest, RejectsWordCountWrappingBitCount) {
  const std::size_t name_len = 9;  // "SUBSAMPLE"
  const std::size_t bits_at = 8 + name_len + 4 + 8 + 8 + 1 + 1 + 8 + 8;
  const std::uint64_t wrap_bits = 0xFFFFFFFFFFFFFFF7ull;  // 2^64 - 9
  std::memcpy(MutableBytes() + bits_at, &wrap_bits, sizeof(wrap_bits));
  sketch::SketchError error;
  EXPECT_FALSE(sketch::ViewSketchImage(Image(), &error).has_value());
  EXPECT_EQ(error.offset, bits_at);
  EXPECT_NE(error.message.find("bit count"), std::string::npos);

  std::istringstream in(bytes_);
  EXPECT_FALSE(sketch::ReadSketch(in).has_value());
}

TEST_F(ArenaImageTest, ReportsOffsetsForHeaderFieldErrors) {
  // scope byte lives right after name + k + eps + delta; corrupt it and
  // the error must name its exact offset.
  const std::size_t name_len = 9;  // "SUBSAMPLE"
  const std::size_t scope_at = 8 + name_len + 4 + 8 + 8;
  MutableBytes()[scope_at] = 7;
  sketch::SketchError error;
  EXPECT_FALSE(sketch::ViewSketchImage(Image(), &error).has_value());
  EXPECT_EQ(error.offset, scope_at);
  EXPECT_NE(error.message.find("scope"), std::string::npos);
}

// The mapped view and the copying ReadSketch must accept EXACTLY the
// same v2 byte strings (a mutant both see as v2 is accepted by both,
// with the same summary, or rejected by both) -- and neither may crash
// on any mutant (the mapped-path cousin of SketchFileFuzzTest). Both
// run the one parser; this pins that their version policy is the only
// difference between them.
TEST_F(ArenaImageTest, MutantImagesNeverCrashAndAgreeWithStreamParser) {
  util::Rng rng(20260733);
  const std::size_t size = bytes_.size();
  std::size_t accepted = 0;
  constexpr std::size_t kMutants = 4000;
  for (std::size_t t = 0; t < kMutants; ++t) {
    std::string mutant = bytes_;
    auto* bytes = reinterpret_cast<unsigned char*>(mutant.data());
    const std::size_t mutations = 1 + rng.UniformInt(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      if (rng.UniformInt(2) == 0) {
        bytes[rng.UniformInt(size)] ^=
            static_cast<unsigned char>(1 << rng.UniformInt(8));
      } else {
        bytes[rng.UniformInt(size)] =
            static_cast<unsigned char>(rng.UniformInt(256));
      }
    }
    const std::size_t mutant_size =
        rng.UniformInt(8) == 0 ? rng.UniformInt(size + 1) : size;
    const auto view = sketch::ViewSketchImage(
        util::MappedFile::FromBytes(bytes, mutant_size));
    std::istringstream in(mutant.substr(0, mutant_size));
    const auto streamed = sketch::ReadSketch(in);
    if (!view.has_value()) {
      // A mutant that still reads as a v2 image (magic, then version u16
      // = 2 at bytes 4-5) must be rejected by ReadSketch too (a flipped
      // version byte downgrades it to v1, where ReadSketch legitimately
      // applies the legacy rules).
      const bool reads_as_v2 =
          mutant_size >= 6 &&
          std::memcmp(bytes, sketch::arena::kMagic, 4) == 0 &&
          bytes[4] == sketch::arena::kVersionArena && bytes[5] == 0;
      if (reads_as_v2) {
        ASSERT_FALSE(streamed.has_value()) << "mutant " << t;
      }
      continue;
    }
    ++accepted;
    ASSERT_TRUE(streamed.has_value()) << "mutant " << t;
    ASSERT_EQ(streamed->summary, view->file.summary) << "mutant " << t;
    ASSERT_EQ(streamed->algorithm, view->file.algorithm) << "mutant " << t;
  }
  // Payload-bit flips are valid files, so some mutants must survive.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

}  // namespace
}  // namespace ifsketch
