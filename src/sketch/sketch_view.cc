#include "sketch/sketch_view.h"

#include <cstring>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/crc32c.h"

namespace ifsketch::sketch {
namespace {

// Byte offset of the u16 version field, right after the magic.
constexpr std::uint64_t kVersionOffset = 4;

// Word counts are later multiplied by 8 and added to offsets; this cap
// (far above any real sketch) keeps all of that arithmetic overflow-free.
constexpr std::uint64_t kMaxSectionWords = std::uint64_t{1} << 58;

// Bounds-checked forward reader over an image. Fields are read by memcpy
// at a running offset, so validation never forms an unaligned or
// out-of-bounds pointer, and every failure names the byte offset of the
// offending field.
class ImageCursor {
 public:
  ImageCursor(const util::MappedFile& image, SketchError* error)
      : data_(image.data()), size_(image.size()), error_(error) {}

  std::uint64_t offset() const { return offset_; }

  /// Records a failure at `at` (a field-start offset) and returns false,
  /// so `return cursor.Fail(...)` propagates.
  bool Fail(std::uint64_t at, std::string message) {
    if (error_ != nullptr) {
      error_->message = std::move(message);
      error_->offset = at;
    }
    return false;
  }

  /// True when `len` more bytes remain; otherwise fails with
  /// "`what`: file truncated" at the current offset.
  bool Require(std::uint64_t len, const char* what) {
    if (len <= size_ - offset_) return true;  // offset_ <= size_ always
    return Fail(offset_, std::string(what) + ": file truncated");
  }

  bool Read(void* dst, std::uint64_t len, const char* what) {
    if (!Require(len, what)) return false;
    if (len > 0) std::memcpy(dst, data_ + offset_, len);
    offset_ += len;
    return true;
  }

  template <typename T>
  bool Get(T& value, const char* what) {
    return Read(&value, sizeof(T), what);
  }

  /// Advances past `len` bytes without copying or inspecting them (for
  /// section bodies whose content is validated in place via WordsAt).
  bool Advance(std::uint64_t len, const char* what) {
    if (!Require(len, what)) return false;
    offset_ += len;
    return true;
  }

  /// Consumes `len` padding bytes, requiring them to be zero.
  bool SkipZeros(std::uint64_t len, const char* what) {
    if (!Require(len, what)) return false;
    for (std::uint64_t i = 0; i < len; ++i) {
      if (data_[offset_ + i] != 0) {
        return Fail(offset_ + i, std::string(what) + ": nonzero padding byte");
      }
    }
    offset_ += len;
    return true;
  }

  /// The image bytes at `offset`, which the caller has bounds-checked.
  const unsigned char* At(std::uint64_t offset) const {
    return data_ + offset;
  }

  /// The aligned word pointer at `offset` (which validation has already
  /// required to be a multiple of arena::kSectionAlign, so alignment
  /// follows from the 64-byte-aligned image base).
  const std::uint64_t* WordsAt(std::uint64_t offset) const {
    return reinterpret_cast<const std::uint64_t*>(At(offset));
  }

  /// CRC32C over the first `len` bytes of the image.
  std::uint32_t Crc(std::uint64_t len) const {
    return util::Crc32c(data_, static_cast<std::size_t>(len));
  }

 private:
  const unsigned char* data_;
  std::size_t size_;
  SketchError* error_;
  std::uint64_t offset_ = 0;
};

// Reads and validates every header field after the version (algorithm
// name through summary bit count), filling `file` (except file.version)
// and `bits`.
bool ReadHeaderAfterVersion(ImageCursor& cursor, SketchFile* file,
                            std::uint64_t* bits) {
  std::uint16_t name_len = 0;
  if (!cursor.Get(name_len, "algorithm name length")) return false;
  file->algorithm.resize(name_len);
  if (name_len > 0 &&
      !cursor.Read(file->algorithm.data(), name_len, "algorithm name")) {
    return false;
  }

  std::uint32_t k = 0;
  std::uint8_t scope = 0, answer = 0;
  std::uint64_t n = 0, d = 0;
  const std::uint64_t params_at = cursor.offset();
  if (!cursor.Get(k, "parameter k") ||
      !cursor.Get(file->params.eps, "eps") ||
      !cursor.Get(file->params.delta, "delta")) {
    return false;
  }
  const std::uint64_t scope_at = cursor.offset();
  if (!cursor.Get(scope, "scope byte")) return false;
  const std::uint64_t answer_at = cursor.offset();
  if (!cursor.Get(answer, "answer byte") || !cursor.Get(n, "row count") ||
      !cursor.Get(d, "column count")) {
    return false;
  }
  const std::uint64_t bits_at = cursor.offset();
  if (!cursor.Get(*bits, "summary bit count")) return false;

  // Enum bytes must name a real enumerator; a corrupt byte would
  // otherwise smuggle an invalid Scope/Answer into SketchParams and
  // misconfigure every downstream loader.
  if (scope > 1) return cursor.Fail(scope_at, "invalid scope byte");
  if (answer > 1) return cursor.Fail(answer_at, "invalid answer byte");
  // Keep every derived size computation wrap-free: the body readers form
  // (bits+63)/64 words (v2) and (bits+7)/8 bytes (v1), so anything
  // within 63 of 2^64 would silently wrap to a tiny count and let a
  // crafted file smuggle a zero-word summary past the shape checks.
  if (*bits >= std::numeric_limits<std::uint64_t>::max() - 63) {
    return cursor.Fail(bits_at, "summary bit count out of range");
  }
  // Parameter sanity: k is a cardinality, eps/delta are probabilities
  // the query procedures divide by and take logs of.
  file->params.k = k;
  if (!core::ValidSketchParams(file->params)) {
    return cursor.Fail(params_at, "invalid sketch parameters (k/eps/delta)");
  }
  file->params.scope = scope == 0 ? core::Scope::kForAll
                                  : core::Scope::kForEach;
  file->params.answer =
      answer == 0 ? core::Answer::kIndicator : core::Answer::kEstimator;
  file->n = static_cast<std::size_t>(n);
  file->d = static_cast<std::size_t>(d);
  return true;
}

// The v1 payload: `bits` bits packed LSB-first into (bits+7)/8 bytes.
// The byte count is checked against the image before anything is
// allocated, so a corrupt bit count fails instead of attempting one
// giant allocation. On the little-endian hosts the format assumes, those
// bytes are already the BitVector word layout; AdoptWords clears the
// unused high bits of the last byte, which v1 always ignored. Bytes
// after the payload are tolerated (the legacy framing has no end marker).
bool ReadLegacyPayload(ImageCursor& cursor, std::uint64_t bits,
                       util::BitVector* summary) {
  const std::uint64_t num_bytes = (bits + 7) / 8;
  if (!cursor.Require(num_bytes, "summary payload")) return false;
  std::vector<std::uint64_t> words(static_cast<std::size_t>((bits + 63) / 64));
  cursor.Read(words.data(), num_bytes, "summary payload");
  *summary = util::BitVector::AdoptWords(std::move(words),
                                         static_cast<std::size_t>(bits));
  return true;
}

// One section-table entry as read from the image.
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;
  std::uint64_t words = 0;
};

// The validated shape of a v2 body.
struct ArenaLayout {
  std::uint64_t count_at = 0;    // offset of the section-count field
  SectionEntry summary;
  bool has_columns = false;
  SectionEntry columns;
  std::uint64_t rows = 0;        // columns section: bits / d
  std::uint64_t col_words = 0;   // ceil(rows / 64)
  std::uint64_t stride = 0;      // arena::ColumnStrideWords(rows)
  std::uint64_t end_offset = 0;  // first byte past the last section
};

// Reads the section table and applies every structural rule to it: kind
// set and order, reserved flags, alignment, word caps, tiling, and the
// shape arithmetic tying word counts to `bits` and `d`.
bool ReadSectionTable(ImageCursor& cursor, std::uint64_t bits,
                      std::uint64_t d, ArenaLayout* out) {
  const std::uint64_t count_at = cursor.offset();
  out->count_at = count_at;
  std::uint32_t count = 0;
  if (!cursor.Get(count, "section count")) return false;
  // Checked before any entry read, so a corrupt count can never drive a
  // huge read loop.
  if (count == 0 || count > arena::kMaxSections) {
    return cursor.Fail(count_at, "section count out of range");
  }
  SectionEntry entries[arena::kMaxSections];
  for (std::uint32_t s = 0; s < count; ++s) {
    SectionEntry& entry = entries[s];
    if (!cursor.Get(entry.kind, "section kind") ||
        !cursor.Get(entry.flags, "section flags") ||
        !cursor.Get(entry.offset, "section offset") ||
        !cursor.Get(entry.words, "section word count")) {
      return false;
    }
  }
  std::uint64_t prev_kind = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::uint64_t entry_at =
        count_at + 4 + s * arena::kSectionEntryBytes;
    const SectionEntry& entry = entries[s];
    if (entry.kind != arena::kSummaryWords &&
        entry.kind != arena::kColumnWords) {
      return cursor.Fail(entry_at, "unknown section kind");
    }
    if (entry.kind <= prev_kind) {
      return cursor.Fail(entry_at, "section kinds not strictly ascending");
    }
    prev_kind = entry.kind;
    if (entry.flags != 0) {
      return cursor.Fail(entry_at + 4, "reserved section flags not zero");
    }
    if (entry.offset % arena::kSectionAlign != 0) {
      return cursor.Fail(entry_at + 8, "section offset not 64-byte aligned");
    }
    if (entry.words > kMaxSectionWords) {
      return cursor.Fail(entry_at + 16, "section word count out of range");
    }
  }
  if (entries[0].kind != arena::kSummaryWords) {
    return cursor.Fail(count_at, "missing summary-words section");
  }

  // Sections tile the tail of the file exactly: each starts at the first
  // aligned boundary after its predecessor (the first one after the
  // table), with only zero padding between.
  std::uint64_t expected_offset = arena::RoundUpToAlign(cursor.offset());
  for (std::uint32_t s = 0; s < count; ++s) {
    if (entries[s].offset != expected_offset) {
      return cursor.Fail(count_at, "section offsets do not tile the file");
    }
    expected_offset =
        arena::RoundUpToAlign(entries[s].offset + entries[s].words * 8);
  }

  out->summary = entries[0];
  if (out->summary.words != (bits + 63) / 64) {
    return cursor.Fail(count_at,
                       "summary word count does not match bit count");
  }
  out->has_columns = count > 1;
  out->end_offset = entries[count - 1].offset + entries[count - 1].words * 8;
  if (out->has_columns) {
    out->columns = entries[1];
    if (d == 0 || bits == 0 || bits % d != 0) {
      return cursor.Fail(count_at,
                         "column section requires a row-major payload shape");
    }
    out->rows = bits / d;
    out->col_words = (out->rows + 63) / 64;
    out->stride =
        arena::ColumnStrideWords(static_cast<std::size_t>(out->rows));
    if (out->stride != 0 && d > kMaxSectionWords / out->stride) {
      return cursor.Fail(count_at, "column section size overflows");
    }
    if (out->columns.words != d * out->stride) {
      return cursor.Fail(count_at, "column word count does not match shape");
    }
  }
  return true;
}

// The image ends exactly where the last section does, or exactly
// arena::kTrailerBytes later with a valid integrity trailer over every
// byte before it. Checking the trailer costs one O(file) CRC pass on the
// active kernel tier -- the price a checksummed file opts into even on
// the zero-copy path: ~63 ns/KiB on the SSE4.2 tiers (about as long as
// the rest of a warm mapped open for a ~300 KB file), ~650 ns/KiB on the
// scalar tier.
bool CheckImageEnd(ImageCursor& cursor, const ArenaLayout& layout,
                   std::size_t size) {
  const std::uint64_t end = layout.end_offset;
  if (end == size) return true;
  if (size != end + arena::kTrailerBytes) {
    return cursor.Fail(layout.count_at,
                       "image size does not match section table");
  }
  const unsigned char* trailer = cursor.At(end);
  if (std::memcmp(trailer, arena::kTrailerMagic, 4) != 0) {
    return cursor.Fail(end, "bad integrity trailer magic");
  }
  std::uint32_t kind = 0;
  std::memcpy(&kind, trailer + 4, 4);
  if (kind != arena::kChecksumCrc32c) {
    return cursor.Fail(end + 4, "unsupported checksum kind");
  }
  std::uint64_t value = 0;
  std::memcpy(&value, trailer + 8, 8);
  if (value != cursor.Crc(end)) {
    return cursor.Fail(end + 8, "file checksum mismatch");
  }
  return true;
}

// The v2 body: section table, image end, then each section's padding and
// tail bits, all checked in place; the summary and columns come back as
// views over the image.
bool ReadArenaBody(ImageCursor& cursor, std::size_t size, std::uint64_t bits,
                   SketchView* view) {
  const std::uint64_t d = view->file.d;
  ArenaLayout layout;
  if (!ReadSectionTable(cursor, bits, d, &layout) ||
      !CheckImageEnd(cursor, layout, size)) {
    return false;
  }

  // Summary section: zero padding up to it, trailing bits zero; then the
  // view is just a pointer.
  const SectionEntry& summary_section = layout.summary;
  if (!cursor.SkipZeros(summary_section.offset - cursor.offset(),
                        "pre-section padding")) {
    return false;
  }
  const std::uint64_t* summary_words = cursor.WordsAt(summary_section.offset);
  if ((bits & 63) != 0 &&
      (summary_words[summary_section.words - 1] >> (bits & 63)) != 0) {
    return cursor.Fail(
        summary_section.offset + (summary_section.words - 1) * 8,
        "summary trailing bits not zero");
  }
  view->file.summary = util::BitVector::View(
      summary_section.words == 0 ? nullptr : summary_words,
      static_cast<std::size_t>(bits));
  if (!layout.has_columns) return true;

  // Column section: d columns of bits/d rows at an aligned stride, each
  // with zero tail bits and zero padding words.
  const SectionEntry& column_section = layout.columns;
  const std::uint64_t rows = layout.rows;
  const std::uint64_t col_words = layout.col_words;
  const std::uint64_t stride = layout.stride;
  if (!cursor.Advance(summary_section.words * 8, "summary words") ||
      !cursor.SkipZeros(column_section.offset - cursor.offset(),
                        "pre-section padding")) {
    return false;
  }
  const std::uint64_t* column_words = cursor.WordsAt(column_section.offset);
  for (std::uint64_t j = 0; j < d; ++j) {
    const std::uint64_t* column = column_words + j * stride;
    if ((rows & 63) != 0 && col_words > 0 &&
        (column[col_words - 1] >> (rows & 63)) != 0) {
      return cursor.Fail(
          column_section.offset + (j * stride + col_words - 1) * 8,
          "column trailing bits not zero");
    }
    for (std::uint64_t w = col_words; w < stride; ++w) {
      if (column[w] != 0) {
        return cursor.Fail(column_section.offset + (j * stride + w) * 8,
                           "nonzero column padding word");
      }
    }
  }
  view->columns = ArenaColumns{column_words, static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(d),
                               static_cast<std::size_t>(stride)};
  return true;
}

std::optional<SketchView> Parse(std::shared_ptr<const util::MappedFile> image,
                                bool accept_legacy, SketchError* error) {
  IFSKETCH_CHECK(image != nullptr);
  ImageCursor cursor(*image, error);
  char magic[4];
  if (!cursor.Read(magic, 4, "magic")) return std::nullopt;
  if (std::memcmp(magic, arena::kMagic, 4) != 0) {
    cursor.Fail(0, "bad magic (not an IFSK sketch file)");
    return std::nullopt;
  }
  std::uint16_t version = 0;
  if (!cursor.Get(version, "version")) return std::nullopt;
  if (version == arena::kVersionLegacy && !accept_legacy) {
    cursor.Fail(kVersionOffset,
                "legacy v1 image (no arena sections; use the copying path)");
    return std::nullopt;
  }
  if (version != arena::kVersionLegacy && version != arena::kVersionArena) {
    cursor.Fail(kVersionOffset, "unsupported format version");
    return std::nullopt;
  }

  SketchView view;
  view.file.version = version;
  std::uint64_t bits = 0;
  if (!ReadHeaderAfterVersion(cursor, &view.file, &bits)) return std::nullopt;
  const bool body_ok =
      version == arena::kVersionLegacy
          ? ReadLegacyPayload(cursor, bits, &view.file.summary)
          : ReadArenaBody(cursor, image->size(), bits, &view);
  if (!body_ok) return std::nullopt;
  view.mapping = std::move(image);
  return view;
}

}  // namespace

std::optional<SketchView> ParseSketchImage(
    std::shared_ptr<const util::MappedFile> image, SketchError* error) {
  return Parse(std::move(image), /*accept_legacy=*/true, error);
}

std::optional<SketchView> ViewSketchImage(
    std::shared_ptr<const util::MappedFile> image, SketchError* error) {
  return Parse(std::move(image), /*accept_legacy=*/false, error);
}

std::optional<SketchView> ViewSketchFile(const std::string& path,
                                         SketchError* error) {
  std::string open_error;
  auto mapping = util::MappedFile::Open(path, &open_error);
  if (mapping == nullptr) {
    if (error != nullptr) {
      error->message = open_error;
      error->offset = 0;
    }
    return std::nullopt;
  }
  return ViewSketchImage(std::move(mapping), error);
}

}  // namespace ifsketch::sketch
