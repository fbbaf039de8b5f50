// Self-describing sketch files.
//
// A summary is just a bit string (Definition 5), but shipping one to
// another process requires carrying the public context: which algorithm,
// the (k, eps, delta, scope, answer) parameters, and the database shape
// (n, d). This module defines a small framed file format with two
// on-disk versions behind one "IFSK" magic:
//
//   v1 (legacy, byte-packed):
//     magic "IFSK", version u16=1, algorithm-name (u16 length + bytes),
//     k u32, eps f64, delta f64, scope u8, answer u8, n u64, d u64,
//     bit-count u64, payload bytes (LSB-first within each byte).
//
//   v2 (arena, the version WriteSketch emits):
//     the same header fields, then a section table
//       section-count u32, then per section:
//         kind u32, flags u32 (=0), byte-offset u64, word-count u64
//     followed by the sections themselves, each starting at a byte
//     offset that is a multiple of 64 (from the file start) and holding
//     raw little-endian u64 words. Section kinds:
//       1  summary words: the payload bits packed LSB-first into
//          ceil(bits/64) words, trailing bits zero -- the exact
//          in-memory util::BitVector layout, so a mapped file can be
//          queried through views with no decode (sketch/sketch_view.h).
//       2  column words: present only when the producing algorithm
//          declares a row-major payload (SketchAlgorithm::
//          HasRowMajorPayload): the payload's bits/d rows transposed
//          into d columns of bits/d bits, each column padded to
//          arena::ColumnStrideWords(rows) words so every column starts
//          64-byte aligned -- what ColumnStore::FromColumnWords adopts
//          with zero copies.
//     Sections appear in ascending kind order, each at the first
//     64-byte boundary after its predecessor, padding bytes zero, and
//     the file ends exactly where the last section ends. Everything is
//     offset-table addressed, so the image is relocatable: validation
//     never chases pointers, only bounds-checked offsets.
//
//     Trust model of the column section: it is DERIVED data, redundant
//     with the summary, and WriteSketch guarantees the two agree.
//     Validators check its structure (shape, alignment, tail bits,
//     padding) but deliberately not transpose-equality -- that would
//     cost the O(payload) pass zero-copy loading exists to avoid. A
//     corrupted column data word is therefore as undetectable as a
//     flipped payload bit in a v1 file, and since the mapped path
//     queries the section directly, such corruption shows up in mapped
//     answers (the copying path re-transposes the summary instead).
//     Golden files and the CI both-path diffs police producers.
//
// ReadSketch and LoadSketchFile are the copying load: they read the
// bytes into one in-memory image, parse it with the same parser the
// mapped path uses (ParseSketchImage, sketch/sketch_view.h), and
// deep-copy the summary out. That parser validates every header field
// (magic, version, enum bytes, parameter ranges, section framing) and
// returns nullopt on anything malformed -- pass a SketchError to learn
// what was wrong and the byte offset of the first invalid field. The
// carried algorithm name is what makes files self-describing: pass a
// loaded SketchFile to ResolveAlgorithm() to get the producing
// SketchAlgorithm back from the registry, or use Engine::Open
// (engine.h), which does the whole load-resolve-query wiring in one call
// and keeps v2 files mapped for zero-copy queries.
#ifndef IFSKETCH_SKETCH_SKETCH_FILE_H_
#define IFSKETCH_SKETCH_SKETCH_FILE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/sketch.h"
#include "util/bitvector.h"

namespace ifsketch::sketch {

/// Shared layout constants of the file framing (used by the writer here
/// and the parser in sketch_view.h).
namespace arena {

inline constexpr char kMagic[4] = {'I', 'F', 'S', 'K'};
inline constexpr std::uint16_t kVersionLegacy = 1;
inline constexpr std::uint16_t kVersionArena = 2;

/// Every section starts at a multiple of this (from the file start), so
/// a page-aligned mapping makes every section pointer 64-byte aligned --
/// cache-line and AVX-512-lane aligned for the word kernels.
inline constexpr std::size_t kSectionAlign = 64;

/// The first section boundary at or after `offset`.
inline constexpr std::uint64_t RoundUpToAlign(std::uint64_t offset) {
  return (offset + (kSectionAlign - 1)) / kSectionAlign * kSectionAlign;
}

enum SectionKind : std::uint32_t {
  kSummaryWords = 1,
  kColumnWords = 2,
};

/// Section-table entries are {kind u32, flags u32, offset u64, words u64}.
inline constexpr std::size_t kSectionEntryBytes = 24;
inline constexpr std::uint32_t kMaxSections = 4;

/// Words from one column's start to the next in a kColumnWords section:
/// ceil(rows/64) data words rounded up to a whole 64-byte line.
inline constexpr std::size_t ColumnStrideWords(std::size_t rows) {
  return (((rows + 63) / 64) + 7) / 8 * 8;
}

/// Optional integrity trailer (PR 10), appended after the last section
/// of a v2 file: magic "IFCT" (4 bytes), checksum kind u32, checksum
/// value u64 -- 16 bytes covering every byte before the trailer
/// (header + section table + sections + padding). The parser accepts a
/// v2 file that ends exactly at the last section (trailer-less, the
/// pre-PR-10 framing, readable forever) or exactly kTrailerBytes later
/// with a valid trailer; anything else is rejected. v1 files never
/// carry a trailer.
inline constexpr std::size_t kTrailerBytes = 16;
inline constexpr char kTrailerMagic[4] = {'I', 'F', 'C', 'T'};

enum ChecksumKind : std::uint32_t {
  kChecksumCrc32c = 1,  ///< util::Crc32c over [0, trailer start)
};

}  // namespace arena

/// Whether WriteSketch appends the integrity trailer (v2 only; requests
/// to write a checksummed v1 file are ignored, v1 has no trailer slot).
enum class SketchChecksum : std::uint8_t {
  kNone = 0,
  kCrc32c = 1,
};

/// Everything needed to reload and query a summary.
struct SketchFile {
  std::string algorithm;
  core::SketchParams params;
  std::size_t n = 0;
  std::size_t d = 0;
  util::BitVector summary;
  /// Format version this was read from (arena::kVersionLegacy or
  /// arena::kVersionArena); 0 for in-memory files never deserialized.
  /// Informational only -- WriteSketch takes the version to emit
  /// explicitly.
  std::uint16_t version = 0;
};

/// What was malformed and where: `offset` is the byte offset (from the
/// start of the file) of the first field that failed validation.
struct SketchError {
  std::string message;
  std::uint64_t offset = 0;
};

/// Serializes to a binary stream at the given format version (callers
/// pass arena::kVersionLegacy to produce v1 files for compatibility
/// tests), optionally ending a v2 file with the integrity trailer.
/// Returns false on I/O failure or an unwritable version.
bool WriteSketch(std::ostream& out, const SketchFile& file,
                 std::uint16_t version = arena::kVersionArena,
                 SketchChecksum checksum = SketchChecksum::kNone);

/// Reads the rest of `in` into an image and parses it (either version);
/// nullopt on malformed input, with the reason and offset in *error when
/// provided.
std::optional<SketchFile> ReadSketch(std::istream& in,
                                     SketchError* error = nullptr);

/// Atomically replaces `path` with the serialized sketch: write
/// "<path>.tmp", fsync, rename over the target, fsync the directory --
/// a crash leaves the old file or the new one, never a hybrid. On
/// failure *error (when provided) carries the errno/strerror detail of
/// what went wrong, so callers can say WHY a save failed.
bool SaveSketchFile(const std::string& path, const SketchFile& file,
                    std::uint16_t version = arena::kVersionArena,
                    SketchChecksum checksum = SketchChecksum::kNone,
                    SketchError* error = nullptr);

/// Maps (or reads) `path` and parses it like ReadSketch; a file that
/// cannot be opened fails with "cannot open file" at byte 0.
std::optional<SketchFile> LoadSketchFile(const std::string& path,
                                         SketchError* error = nullptr);

/// Resolves `file.algorithm` through the built-in registry back to a live
/// algorithm, so the file can be queried without knowing its producer.
/// Returns nullptr for names no registry entry answers to.
std::unique_ptr<core::SketchAlgorithm> ResolveAlgorithm(
    const SketchFile& file);

/// Resolve + LoadEstimator / LoadIndicator in one step; nullptr when the
/// algorithm cannot be resolved.
std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
    const SketchFile& file);
std::unique_ptr<core::FrequencyIndicator> LoadIndicator(
    const SketchFile& file);

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_SKETCH_FILE_H_
