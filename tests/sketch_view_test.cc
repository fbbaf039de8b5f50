// The zero-copy mapped load path (util::MappedFile + sketch::SketchView
// + Engine::Open's LoadMode) against the copying stream parser.
//
// The contract under test is the PR's acceptance bar: for EVERY
// registered algorithm, a sketch opened through the mapped path answers
// estimate_many / are_frequent / mine bit-identically to the same file
// opened through the copying path; legacy v1 files keep loading (copied);
// and the in-place image validator rejects malformed arenas with the
// byte offset of the first bad field, never crashing on mutants.

#include "sketch/sketch_view.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine.h"
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

/// The whole file as an aligned word buffer (so ViewSketchImage can run
/// on mutated copies without a file per mutant).
std::vector<std::uint64_t> ReadAligned(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  std::vector<std::uint64_t> words((bytes.size() + 7) / 8, 0);
  std::memcpy(words.data(), bytes.data(), bytes.size());
  words.resize(words.size() + 1);  // keep size() separate from capacity
  words.back() = bytes.size();     // stash the byte size past the image
  return words;
}

const unsigned char* ImageData(const std::vector<std::uint64_t>& image) {
  return reinterpret_cast<const unsigned char*>(image.data());
}

std::size_t ImageSize(const std::vector<std::uint64_t>& image) {
  return static_cast<std::size_t>(image.back());
}

// ---------------------------------------------------------------------
// Registry-driven equivalence: mapped == copied for every algorithm.

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

// Indicator-flavored sketches exercise LoadIndicatorFromColumns.
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

  // Forcing kMapped on a v1 file fails with a version-shaped error.
  std::string error;
  EXPECT_FALSE(
      Engine::Open(v1_path, Engine::LoadMode::kMapped, &error).has_value());
  EXPECT_NE(error.find("v1"), std::string::npos);

  // info() names the load path and format so operators can confirm
  // zero-copy is active.
  EXPECT_NE(v2->info().find("mapped"), std::string::npos);
  EXPECT_NE(v2->info().find("v2"), std::string::npos);
  EXPECT_NE(v1->info().find("copied"), std::string::npos);
}

// Engine::Open(kAuto) classifies a file by its own mapped bytes: v2
// images are viewed in place, everything else falls through to the
// copying parser and its error report. Pins the load path and the exact
// error text for every kind of file the classification can meet.
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

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string image = slurp(v2_path);
  const std::string crc_image = slurp(crc_path);
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
      {cut_path, cut_path + ": byte 63: section count: image truncated"},
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
    image_ = ReadAligned(path_);
    ASSERT_TRUE(
        sketch::ViewSketchImage(ImageData(image_), ImageSize(image_))
            .has_value());
  }

  unsigned char* MutableBytes() {
    return reinterpret_cast<unsigned char*>(image_.data());
  }

  std::string path_;
  std::vector<std::uint64_t> image_;
};

TEST_F(ArenaImageTest, RejectsTruncation) {
  sketch::SketchError error;
  for (const std::size_t keep : {0u, 3u, 5u, 40u, 64u, 128u}) {
    ASSERT_LT(keep, ImageSize(image_));
    EXPECT_FALSE(sketch::ViewSketchImage(ImageData(image_), keep, &error)
                     .has_value())
        << keep;
  }
}

TEST_F(ArenaImageTest, RejectsLegacyVersionWithDistinctError) {
  MutableBytes()[4] = 1;  // version u16 low byte
  sketch::SketchError error;
  EXPECT_FALSE(
      sketch::ViewSketchImage(ImageData(image_), ImageSize(image_), &error)
          .has_value());
  EXPECT_EQ(error.offset, 4u);
  EXPECT_NE(error.message.find("v1"), std::string::npos);
}

TEST_F(ArenaImageTest, RejectsUnknownVersion) {
  MutableBytes()[4] = 9;
  sketch::SketchError error;
  EXPECT_FALSE(
      sketch::ViewSketchImage(ImageData(image_), ImageSize(image_), &error)
          .has_value());
  EXPECT_EQ(error.offset, 4u);
}

TEST_F(ArenaImageTest, RejectsTrailingGarbage) {
  image_[image_.size() - 1] += 8;  // grow the recorded byte size
  // (the extra byte reads from the stashed-size word -- in bounds)
  sketch::SketchError error;
  EXPECT_FALSE(
      sketch::ViewSketchImage(ImageData(image_), ImageSize(image_), &error)
          .has_value());
  EXPECT_NE(error.message.find("section table"), std::string::npos);
}

// Regression: a bit count close enough to 2^64 that (bits+63)/64 wraps
// to a tiny word count must be rejected at the bit-count field -- not
// sail through the shape checks with a zero-word summary and crash the
// word-image code (both parsers share the guard in arena_layout.h).
TEST_F(ArenaImageTest, RejectsWordCountWrappingBitCount) {
  const std::size_t name_len = 9;  // "SUBSAMPLE"
  const std::size_t bits_at = 8 + name_len + 4 + 8 + 8 + 1 + 1 + 8 + 8;
  const std::uint64_t wrap_bits = 0xFFFFFFFFFFFFFFF7ull;  // 2^64 - 9
  std::memcpy(MutableBytes() + bits_at, &wrap_bits, sizeof(wrap_bits));
  sketch::SketchError error;
  EXPECT_FALSE(
      sketch::ViewSketchImage(ImageData(image_), ImageSize(image_), &error)
          .has_value());
  EXPECT_EQ(error.offset, bits_at);
  EXPECT_NE(error.message.find("bit count"), std::string::npos);

  std::istringstream in(std::string(
      reinterpret_cast<const char*>(ImageData(image_)), ImageSize(image_)));
  EXPECT_FALSE(sketch::ReadSketch(in).has_value());
}

TEST_F(ArenaImageTest, ReportsOffsetsForHeaderFieldErrors) {
  // scope byte lives right after name + k + eps + delta; corrupt it and
  // the error must name its exact offset.
  const std::size_t name_len = 9;  // "SUBSAMPLE"
  const std::size_t scope_at = 8 + name_len + 4 + 8 + 8;
  MutableBytes()[scope_at] = 7;
  sketch::SketchError error;
  EXPECT_FALSE(
      sketch::ViewSketchImage(ImageData(image_), ImageSize(image_), &error)
          .has_value());
  EXPECT_EQ(error.offset, scope_at);
  EXPECT_NE(error.message.find("scope"), std::string::npos);
}

// The image validator and the stream parser must accept EXACTLY the
// same v2 byte strings (a mutant both see as v2 is accepted by both,
// with the same summary, or rejected by both) -- and neither may crash
// on any mutant (the mapped-path cousin of SketchFileFuzzTest). This
// bidirectional assertion is what keeps the two independently-coded
// validators from drifting apart.
TEST_F(ArenaImageTest, MutantImagesNeverCrashAndAgreeWithStreamParser) {
  util::Rng rng(20260733);
  const std::size_t size = ImageSize(image_);
  std::size_t accepted = 0;
  constexpr std::size_t kMutants = 4000;
  for (std::size_t t = 0; t < kMutants; ++t) {
    std::vector<std::uint64_t> mutant = image_;
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
    const auto view = sketch::ViewSketchImage(bytes, mutant_size);
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(bytes), mutant_size));
    const auto streamed = sketch::ReadSketch(in);
    if (!view.has_value()) {
      // A mutant that still reads as a v2 image must be rejected by the
      // stream parser too (a flipped version byte downgrades it to v1,
      // where the stream parser legitimately applies the legacy rules).
      if (sketch::PeekSketchVersion(bytes, mutant_size) ==
          sketch::arena::kVersionArena) {
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
