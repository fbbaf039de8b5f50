// The IFSK parser, and zero-copy views over arena (v2) images.
//
// Every load goes through one parse over one in-memory image: a
// util::MappedFile, normally an mmap of the file (so the bytes are the
// page cache itself), or an owned 64-byte-aligned copy
// (MappedFile::FromBytes) for bytes that came from a stream or a fuzzer.
// The parse validates the whole image in place -- magic, version, enum
// bytes, parameter ranges, section framing, alignment, padding, tail
// bits and the optional integrity trailer -- and returns nullopt with
// the byte offset of the first invalid field on anything malformed.
//
// For a v2 image nothing is decoded and nothing is copied: the summary
// is a borrowed util::BitVector::View over the image, and the column
// section, when present, is described by an ArenaColumns ready for
// core::ColumnStore::FromColumnWords. Opening is O(header + d), plus one
// CRC32C pass when the file carries a trailer, regardless of payload
// size, and the SIMD query kernels run straight out of the mapping. A
// v1 image has no aligned word sections, so its byte-packed payload is
// decoded into an owned summary.
//
// The entry points differ only in version policy. ViewSketchImage and
// ViewSketchFile are the mapped path and accept v2 only; ParseSketchImage
// accepts both versions, and the copying entry points (ReadSketch and
// LoadSketchFile in sketch_file.h, Engine::Open's copied path) build on
// it and deep-copy the summary out of the image.
//
// Lifetime: SketchView::mapping always holds the image, so the views
// inside a SketchView cannot outlive their bytes. Copying file.summary
// out of a view deep-copies it (util::BitVector's copy always owns).
#ifndef IFSKETCH_SKETCH_SKETCH_VIEW_H_
#define IFSKETCH_SKETCH_SKETCH_VIEW_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sketch/sketch_file.h"
#include "util/mapped_file.h"

namespace ifsketch::sketch {

/// The column-words section of an arena image: d columns of `rows` bits,
/// column j's words at words[j*stride_words ..]; borrowed storage.
struct ArenaColumns {
  const std::uint64_t* words = nullptr;
  std::size_t rows = 0;
  std::size_t d = 0;
  std::size_t stride_words = 0;
};

/// A validated window onto an IFSK image. For a v2 image file.summary is
/// a view borrowing the image (file.summary.is_view() is true) and
/// `columns` describes the column section when the file has one; for a
/// v1 image file.summary is owned and `columns` is empty.
struct SketchView {
  SketchFile file;
  std::optional<ArenaColumns> columns;
  /// The image the views borrow from.
  std::shared_ptr<const util::MappedFile> mapping;
};

/// Parses an image of either format version in place. `image` must not
/// be null. Returns nullopt on anything malformed, with the reason and
/// byte offset in *error when provided.
std::optional<SketchView> ParseSketchImage(
    std::shared_ptr<const util::MappedFile> image,
    SketchError* error = nullptr);

/// ParseSketchImage restricted to v2: a well-formed v1 image is rejected
/// at the version field (v1 has no aligned word sections to view; read
/// it through the copying path).
std::optional<SketchView> ViewSketchImage(
    std::shared_ptr<const util::MappedFile> image,
    SketchError* error = nullptr);

/// Maps `path` (util::MappedFile::Open, with its read-whole-file
/// fallback) and views it with ViewSketchImage. On failure *error names
/// the file-level or validation error.
std::optional<SketchView> ViewSketchFile(const std::string& path,
                                         SketchError* error = nullptr);

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_SKETCH_VIEW_H_
