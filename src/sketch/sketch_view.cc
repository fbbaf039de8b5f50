#include "sketch/sketch_view.h"

#include <cstring>

#include "sketch/arena_layout.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace ifsketch::sketch {
namespace {

// Bounds-checked forward reader over the image. Mirrors the stream
// cursor in sketch_file.cc, but nothing is consumed: fields are read by
// memcpy at a running offset, so validation never forms an unaligned or
// out-of-bounds pointer.
class ImageCursor {
 public:
  ImageCursor(const unsigned char* data, std::size_t size,
              SketchError* error)
      : data_(data), size_(size), error_(error) {}

  std::uint64_t offset() const { return offset_; }

  bool Fail(std::uint64_t at, std::string message) {
    if (error_ != nullptr) {
      error_->message = std::move(message);
      error_->offset = at;
    }
    return false;
  }

  bool Read(void* dst, std::uint64_t len, const char* what) {
    if (len > size_ - offset_) {  // offset_ <= size_ is an invariant
      return Fail(offset_, std::string(what) + ": image truncated");
    }
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
    if (len > size_ - offset_) {
      return Fail(offset_, std::string(what) + ": image truncated");
    }
    offset_ += len;
    return true;
  }

  bool SkipZeros(std::uint64_t len, const char* what) {
    const std::uint64_t at = offset_;
    if (len > size_ - offset_) {
      return Fail(at, std::string(what) + ": image truncated");
    }
    for (std::uint64_t i = 0; i < len; ++i) {
      if (data_[at + i] != 0) {
        return Fail(at + i, std::string(what) + ": nonzero padding byte");
      }
    }
    offset_ += len;
    return true;
  }

  /// The aligned word pointer at `offset` (which validation has already
  /// required to be a multiple of arena::kSectionAlign, so alignment
  /// follows from the 8-byte-aligned image base).
  const std::uint64_t* WordsAt(std::uint64_t offset) const {
    return reinterpret_cast<const std::uint64_t*>(data_ + offset);
  }

 private:
  const unsigned char* data_;
  std::size_t size_;
  SketchError* error_;
  std::uint64_t offset_ = 0;
};

}  // namespace

std::uint16_t PeekSketchVersion(const unsigned char* data, std::size_t size) {
  if (size < 6 || std::memcmp(data, arena_internal::kMagic, 4) != 0) {
    return 0;
  }
  std::uint16_t version = 0;
  std::memcpy(&version, data + 4, 2);
  if (version != arena::kVersionLegacy && version != arena::kVersionArena) {
    return 0;
  }
  return version;
}

std::optional<SketchView> ViewSketchImage(const unsigned char* data,
                                          std::size_t size,
                                          SketchError* error) {
  IFSKETCH_CHECK(data != nullptr || size == 0);
  IFSKETCH_CHECK_EQ(reinterpret_cast<std::uintptr_t>(data) %
                        alignof(std::uint64_t),
                    0u);
  ImageCursor cursor(data, size, error);

  // The header parse (magic through summary bit count, with every field
  // validation) is shared with the stream parser in arena_layout.h;
  // only the version policy differs -- an image is view-able solely at
  // v2, so v1 gets its own routing error here.
  std::uint16_t version = 0;
  if (!arena_internal::ReadMagicAndVersion(cursor, &version)) {
    return std::nullopt;
  }
  if (version == arena::kVersionLegacy) {
    cursor.Fail(arena_internal::kVersionOffset,
                "legacy v1 image (no arena sections; use the copying path)");
    return std::nullopt;
  }
  if (version != arena::kVersionArena) {
    cursor.Fail(arena_internal::kVersionOffset, "unsupported format version");
    return std::nullopt;
  }

  SketchView view;
  SketchFile& file = view.file;
  std::uint64_t bits = 0;
  if (!arena_internal::ReadHeaderAfterVersion(cursor, &file, &bits)) {
    return std::nullopt;
  }
  file.version = version;
  const std::uint64_t d = file.d;

  // ---- section table: the entry read and every structural decision
  // live in arena_layout.h, so this validator and the stream parser
  // accept exactly the same tables by construction (and the
  // bidirectional image fuzzer double-checks it at test time).
  std::uint32_t section_count = 0;
  std::uint64_t count_at = 0;
  arena_internal::SectionEntry sections[arena::kMaxSections];
  if (!arena_internal::ReadSectionEntries(cursor, &section_count, &count_at,
                                          sections)) {
    return std::nullopt;
  }
  arena_internal::ArenaLayout layout;
  std::uint64_t fail_at = 0;
  const char* fail_message = nullptr;
  if (!arena_internal::ValidateSectionTable(sections, section_count,
                                            count_at, cursor.offset(), bits,
                                            d, &layout, &fail_at,
                                            &fail_message)) {
    cursor.Fail(fail_at, fail_message);
    return std::nullopt;
  }
  // In-place extra: the image must end exactly where the last section
  // does, or exactly arena::kTrailerBytes later carrying a valid
  // integrity trailer (the stream reader enforces the same two-ended
  // rule after the last section, so the acceptance sets still agree).
  // Validating the trailer here costs one O(file) CRC pass on the active
  // kernel tier -- the price a checksummed file opts into even on the
  // zero-copy path: ~63 ns/KiB on the SSE4.2 tiers (about as long as
  // the rest of a warm mapped open for a ~300 KB file), ~650 ns/KiB on
  // the scalar tier.
  if (layout.end_offset != size) {
    if (size != layout.end_offset + arena::kTrailerBytes) {
      cursor.Fail(count_at, "image size does not match section table");
      return std::nullopt;
    }
    if (!arena_internal::ValidateTrailer(
            data + layout.end_offset, layout.end_offset,
            util::Crc32c(data, static_cast<std::size_t>(layout.end_offset)),
            &fail_at, &fail_message)) {
      cursor.Fail(fail_at, fail_message);
      return std::nullopt;
    }
  }

  // ---- summary section: zero padding up to it, exact word count,
  // trailing bits zero; then the view is just a pointer.
  const arena_internal::SectionEntry& summary_section = layout.summary;
  if (!cursor.SkipZeros(summary_section.offset - cursor.offset(),
                        "pre-section padding")) {
    return std::nullopt;
  }
  const std::uint64_t* summary_words = cursor.WordsAt(summary_section.offset);
  if ((bits & 63) != 0 &&
      (summary_words[summary_section.words - 1] >> (bits & 63)) != 0) {
    cursor.Fail(summary_section.offset + (summary_section.words - 1) * 8,
                "summary trailing bits not zero");
    return std::nullopt;
  }
  file.summary = util::BitVector::View(
      summary_section.words == 0 ? nullptr : summary_words,
      static_cast<std::size_t>(bits));

  // ---- optional column section.
  if (layout.has_columns) {
    const arena_internal::SectionEntry& column_section = layout.columns;
    const std::uint64_t rows = layout.rows;
    const std::uint64_t col_words = layout.col_words;
    const std::uint64_t stride = layout.stride;
    // Step over the summary words (validated in place above) and check
    // the inter-section padding with the same helper the summary used,
    // so the two parsers' padding diagnostics cannot drift.
    if (!cursor.Advance(summary_section.words * 8, "summary words") ||
        !cursor.SkipZeros(column_section.offset - cursor.offset(),
                          "pre-section padding")) {
      return std::nullopt;
    }
    const std::uint64_t* column_words = cursor.WordsAt(column_section.offset);
    for (std::uint64_t j = 0; j < d; ++j) {
      const std::uint64_t* column = column_words + j * stride;
      if ((rows & 63) != 0 && col_words > 0 &&
          (column[col_words - 1] >> (rows & 63)) != 0) {
        cursor.Fail(column_section.offset + (j * stride + col_words - 1) * 8,
                    "column trailing bits not zero");
        return std::nullopt;
      }
      for (std::uint64_t w = col_words; w < stride; ++w) {
        if (column[w] != 0) {
          cursor.Fail(column_section.offset + (j * stride + w) * 8,
                      "nonzero column padding word");
          return std::nullopt;
        }
      }
    }
    view.columns = ArenaColumns{column_words,
                                static_cast<std::size_t>(rows),
                                static_cast<std::size_t>(d),
                                static_cast<std::size_t>(stride)};
  }
  return view;
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
  auto view = ViewSketchImage(mapping->data(), mapping->size(), error);
  if (!view.has_value()) return std::nullopt;
  view->mapping = std::move(mapping);
  return view;
}

}  // namespace ifsketch::sketch
