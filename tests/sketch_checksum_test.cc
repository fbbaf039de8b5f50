// The IFSK v2 integrity trailer and crash-safe persistence (PR 10):
// both load entry points -- the copying ReadSketch and the zero-copy
// ViewSketchImage -- must accept exactly the same checksummed inputs,
// detect every single-byte corruption a checksummed file can suffer, and
// keep reading trailer-less v2 and legacy v1 files forever. Plus the
// WriteFileAtomic crash matrix: a save killed at any byte leaves the
// old file or the new one, never a hybrid.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "sketch/sketch_file.h"
#include "sketch/sketch_view.h"
#include "sketch/subsample.h"
#include "util/crc32c.h"
#include "util/durable.h"
#include "util/mapped_file.h"
#include "util/random.h"

namespace ifsketch::sketch {
namespace {

SketchFile MakeFile(util::Rng& rng) {
  const core::Database db = data::UniformRandom(200, 14, 0.4, rng);
  SubsampleSketch algo;
  SketchFile file;
  file.algorithm = algo.name();
  file.params.k = 3;
  file.params.eps = 0.07;
  file.params.delta = 0.02;
  file.params.scope = core::Scope::kForEach;
  file.params.answer = core::Answer::kEstimator;
  file.n = db.num_rows();
  file.d = db.num_columns();
  file.summary = algo.Build(db, file.params, rng);
  return file;
}

std::string Serialize(const SketchFile& file, std::uint16_t version,
                      SketchChecksum checksum) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(WriteSketch(out, file, version, checksum));
  return out.str();
}

/// Parses `bytes` through the copying reader.
std::optional<SketchFile> StreamParse(const std::string& bytes,
                                      SketchError* error = nullptr) {
  std::istringstream in(bytes, std::ios::binary);
  return ReadSketch(in, error);
}

/// Parses `bytes` through the zero-copy mapped validator, over an owned
/// aligned image like a real mapping.
std::optional<SketchView> ImageParse(const std::string& bytes,
                                     SketchError* error = nullptr) {
  return ViewSketchImage(util::MappedFile::FromBytes(bytes.data(),
                                                     bytes.size()),
                         error);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32cTest, MatchesTheKnownAnswerAndComposes) {
  const char* kCheck = "123456789";
  EXPECT_EQ(util::Crc32c(kCheck, 9), 0xE3069283u);
  EXPECT_EQ(util::Crc32c(kCheck, 0), 0u);
  // Extending in arbitrary splits equals one pass over the whole buffer.
  for (std::size_t split = 0; split <= 9; ++split) {
    EXPECT_EQ(util::Crc32cExtend(util::Crc32cExtend(0, kCheck, split),
                                 kCheck + split, 9 - split),
              0xE3069283u)
        << split;
  }
}

TEST(SketchChecksumTest, TrailerRoundTripsThroughBothParsers) {
  util::Rng rng(1);
  const SketchFile file = MakeFile(rng);
  const std::string plain =
      Serialize(file, arena::kVersionArena, SketchChecksum::kNone);
  const std::string checked =
      Serialize(file, arena::kVersionArena, SketchChecksum::kCrc32c);
  ASSERT_EQ(checked.size(), plain.size() + arena::kTrailerBytes);
  // The trailer is an appendix: everything before it is byte-identical.
  EXPECT_EQ(checked.compare(0, plain.size(), plain), 0);
  EXPECT_EQ(checked.compare(plain.size(), 4, arena::kTrailerMagic, 4), 0);

  SketchError error;
  const auto streamed = StreamParse(checked, &error);
  ASSERT_TRUE(streamed.has_value()) << error.message;
  EXPECT_EQ(streamed->summary, file.summary);
  EXPECT_EQ(streamed->algorithm, file.algorithm);
  EXPECT_EQ(streamed->n, file.n);

  const auto viewed = ImageParse(checked, &error);
  ASSERT_TRUE(viewed.has_value()) << error.message;
  EXPECT_TRUE(viewed->file.summary == file.summary);
}

TEST(SketchChecksumTest, TrailerlessV2AndLegacyV1StayReadable) {
  util::Rng rng(2);
  const SketchFile file = MakeFile(rng);
  const std::string v2 =
      Serialize(file, arena::kVersionArena, SketchChecksum::kNone);
  EXPECT_TRUE(StreamParse(v2).has_value());
  EXPECT_TRUE(ImageParse(v2).has_value());

  const std::string v1 =
      Serialize(file, arena::kVersionLegacy, SketchChecksum::kNone);
  const auto back = StreamParse(v1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->summary, file.summary);
}

// v1 has no trailer slot: a checksum request degrades to the plain v1
// bytes instead of inventing an unreadable format.
TEST(SketchChecksumTest, ChecksumRequestAtV1IsIgnored) {
  util::Rng rng(3);
  const SketchFile file = MakeFile(rng);
  EXPECT_EQ(Serialize(file, arena::kVersionLegacy, SketchChecksum::kCrc32c),
            Serialize(file, arena::kVersionLegacy, SketchChecksum::kNone));
}

// Flip a content byte that every structural validation still accepts (a
// low mantissa bit of eps): only the checksum can catch it, and BOTH
// parsers must.
TEST(SketchChecksumTest, ContentCorruptionFailsBothParsers) {
  util::Rng rng(4);
  const SketchFile file = MakeFile(rng);
  std::string bytes =
      Serialize(file, arena::kVersionArena, SketchChecksum::kCrc32c);
  // Header layout: magic 4, version 2, name-len 2, name 9 ("SUBSAMPLE"),
  // k u32 @17, eps f64 @21.
  bytes[21] = static_cast<char>(bytes[21] ^ 0x01);

  SketchError error;
  EXPECT_FALSE(StreamParse(bytes, &error).has_value());
  EXPECT_NE(error.message.find("checksum mismatch"), std::string::npos)
      << error.message;
  EXPECT_FALSE(ImageParse(bytes, &error).has_value());
  EXPECT_NE(error.message.find("checksum mismatch"), std::string::npos)
      << error.message;

  // Without the trailer the same flip sails through structurally -- the
  // vulnerability the trailer exists to close.
  std::string unchecked =
      Serialize(file, arena::kVersionArena, SketchChecksum::kNone);
  unchecked[21] = static_cast<char>(unchecked[21] ^ 0x01);
  EXPECT_TRUE(StreamParse(unchecked).has_value());
  EXPECT_TRUE(ImageParse(unchecked).has_value());
}

TEST(SketchChecksumTest, MangledTrailerFailsBothParsersWithAReason) {
  util::Rng rng(5);
  const SketchFile file = MakeFile(rng);
  const std::string good =
      Serialize(file, arena::kVersionArena, SketchChecksum::kCrc32c);
  const std::size_t trailer_at = good.size() - arena::kTrailerBytes;

  struct Case {
    const char* name;
    std::size_t at;      // byte to overwrite
    char value;
    const char* reason;  // expected substring
  };
  const Case cases[] = {
      {"magic", trailer_at + 0, 'X', "bad integrity trailer magic"},
      {"kind", trailer_at + 4, 2, "unsupported checksum kind"},
      {"value", trailer_at + 8, 'X', "checksum mismatch"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string bytes = good;
    ASSERT_NE(bytes[c.at], c.value);  // the overwrite really changes it
    bytes[c.at] = c.value;
    SketchError error;
    EXPECT_FALSE(StreamParse(bytes, &error).has_value());
    EXPECT_NE(error.message.find(c.reason), std::string::npos)
        << error.message;
    EXPECT_FALSE(ImageParse(bytes, &error).has_value());
    EXPECT_NE(error.message.find(c.reason), std::string::npos)
        << error.message;
  }
}

TEST(SketchChecksumTest, TruncatedOrOversizedTailIsRejected) {
  util::Rng rng(6);
  const SketchFile file = MakeFile(rng);
  const std::string checked =
      Serialize(file, arena::kVersionArena, SketchChecksum::kCrc32c);
  const std::string plain =
      Serialize(file, arena::kVersionArena, SketchChecksum::kNone);

  // A partial trailer can never validate.
  for (const std::size_t drop : {1u, 8u, 15u}) {
    std::string bytes = checked.substr(0, checked.size() - drop);
    EXPECT_FALSE(StreamParse(bytes).has_value()) << drop;
    EXPECT_FALSE(ImageParse(bytes).has_value()) << drop;
  }
  // Bytes after a valid trailer are garbage, not data.
  EXPECT_FALSE(StreamParse(checked + 'x').has_value());
  EXPECT_FALSE(ImageParse(checked + 'x').has_value());
  // So are stray bytes after a trailer-less file.
  EXPECT_FALSE(StreamParse(plain + 'x').has_value());
  EXPECT_FALSE(ImageParse(plain + 'x').has_value());
  // But shearing the trailer off entirely yields the (valid) pre-PR-10
  // framing: detection needs the trailer present or the caller tracking
  // expected sizes, exactly the documented contract.
  const std::string sheared =
      checked.substr(0, checked.size() - arena::kTrailerBytes);
  EXPECT_TRUE(StreamParse(sheared).has_value());
  EXPECT_TRUE(ImageParse(sheared).has_value());
}

// Mutant fuzz over the checksummed bytes: both entry points must agree on
// every mutant (the shared-acceptance invariant sketch_view_test
// enforces for trailer-less files, extended to trailers) and never
// crash. Content mutations must never be accepted at full length --
// only a mutation that exactly removes the trailer can survive.
TEST(SketchChecksumTest, CheckedMutantsKeepParsersInAgreement) {
  util::Rng rng(7);
  const SketchFile file = MakeFile(rng);
  const std::string good =
      Serialize(file, arena::kVersionArena, SketchChecksum::kCrc32c);

  util::Rng fuzz(777);
  int accepted = 0;
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    std::string bytes = good;
    if (fuzz.UniformInt(4) == 0) {
      bytes.resize(static_cast<std::size_t>(
          fuzz.UniformInt(bytes.size() + 1)));
    } else {
      const std::size_t at =
          static_cast<std::size_t>(fuzz.UniformInt(bytes.size()));
      bytes[at] = static_cast<char>(
          bytes[at] ^ static_cast<char>(1 + fuzz.UniformInt(255)));
    }
    const bool stream_ok = StreamParse(bytes).has_value();
    const bool image_ok = ImageParse(bytes).has_value();
    EXPECT_EQ(stream_ok, image_ok) << "parsers disagree on a mutant";
    if (stream_ok) {
      ++accepted;
      EXPECT_LT(bytes.size(), good.size())
          << "a full-length corruption slipped past the checksum";
    }
  }
  // Only trailer-shearing truncations may survive; spot-check the rate
  // is tiny rather than silently vacuous.
  EXPECT_LT(accepted, 10);
}

// WriteFileAtomic crash matrix: kill the save at every byte budget; the
// target must read back as EXACTLY the old content or the new content,
// and a retry after the crash must land the new content.
TEST(SketchChecksumTest, AtomicSaveCrashLeavesOldOrNewNeverHybrid) {
  const std::string path = testing::TempDir() + "ifsketch_atomic_test.bin";
  const std::string old_content(300, 'A');
  const std::string new_content(300, 'B');

  // Baseline: how many bytes does a full save write?
  ASSERT_TRUE(util::WriteFileAtomic(path, old_content.data(),
                                    old_content.size()));
  auto probe = std::make_shared<util::CrashPlan>(1u << 20);
  ASSERT_TRUE(util::WriteFileAtomic(path, old_content.data(),
                                    old_content.size(), nullptr,
                                    util::MakeFaultyFileSinkFactory(probe)));
  const std::uint64_t total = (1u << 20) -
                              static_cast<std::uint64_t>(probe->remaining.load(
                                  std::memory_order_relaxed));
  ASSERT_GE(total, old_content.size());

  for (std::uint64_t budget = 0; budget < total; ++budget) {
    SCOPED_TRACE(budget);
    ASSERT_TRUE(
        util::WriteFileAtomic(path, old_content.data(), old_content.size()));
    auto plan = std::make_shared<util::CrashPlan>(budget);
    std::string error;
    EXPECT_FALSE(util::WriteFileAtomic(path, new_content.data(),
                                       new_content.size(), &error,
                                       util::MakeFaultyFileSinkFactory(plan)));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(ReadFileBytes(path), old_content)
        << "interrupted save corrupted the target";
    // The crashed attempt may leave a stale .tmp; the retry overwrites.
    ASSERT_TRUE(
        util::WriteFileAtomic(path, new_content.data(), new_content.size()));
    EXPECT_EQ(ReadFileBytes(path), new_content);
  }
}

TEST(SketchChecksumTest, SaveSketchFileReportsErrnoDetail) {
  util::Rng rng(8);
  const SketchFile file = MakeFile(rng);
  SketchError error;
  EXPECT_FALSE(SaveSketchFile(testing::TempDir() + "no_such_dir/x.ifsk", file,
                              arena::kVersionArena, SketchChecksum::kNone,
                              &error));
  // The whole point of the detail: the caller learns WHY (strerror).
  EXPECT_NE(error.message.find("No such file or directory"),
            std::string::npos)
      << error.message;
}

TEST(SketchChecksumTest, SaveSketchFileEmitsAVerifiableTrailer) {
  util::Rng rng(9);
  const SketchFile file = MakeFile(rng);
  const std::string plain_path = testing::TempDir() + "ifsketch_plain.ifsk";
  const std::string checked_path = testing::TempDir() + "ifsketch_crc.ifsk";
  SketchError error;
  ASSERT_TRUE(SaveSketchFile(plain_path, file, arena::kVersionArena,
                             SketchChecksum::kNone, &error))
      << error.message;
  ASSERT_TRUE(SaveSketchFile(checked_path, file, arena::kVersionArena,
                             SketchChecksum::kCrc32c, &error))
      << error.message;
  EXPECT_EQ(ReadFileBytes(checked_path).size(),
            ReadFileBytes(plain_path).size() + arena::kTrailerBytes);

  const auto loaded = LoadSketchFile(checked_path, &error);
  ASSERT_TRUE(loaded.has_value()) << error.message;
  EXPECT_EQ(loaded->summary, file.summary);
  const auto viewed = ViewSketchFile(checked_path, &error);
  ASSERT_TRUE(viewed.has_value()) << error.message;
  EXPECT_TRUE(viewed->file.summary == file.summary);
}

}  // namespace
}  // namespace ifsketch::sketch
