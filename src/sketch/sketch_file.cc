#include "sketch/sketch_file.h"

#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/column_store.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_view.h"
#include "util/crc32c.h"
#include "util/durable.h"
#include "util/mapped_file.h"

namespace ifsketch::sketch {
namespace {

using arena::RoundUpToAlign;

template <typename T>
void PutRaw(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void PutZeros(std::ostream& out, std::uint64_t count) {
  static constexpr char kZeros[arena::kSectionAlign] = {};
  while (count > 0) {
    const std::uint64_t chunk =
        count < sizeof(kZeros) ? count : sizeof(kZeros);
    out.write(kZeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
}

void PutWords(std::ostream& out, const std::uint64_t* words,
              std::uint64_t count) {
  if (count > 0) {
    out.write(reinterpret_cast<const char*>(words),
              static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  }
}

// The trailer-less serialization shared by both WriteSketch modes.
bool WriteSketchBody(std::ostream& out, const SketchFile& file,
                     std::uint16_t version) {
  // Refuse to emit a file ReadSketch would reject: nothing serializable
  // may be unloadable. The name length must fit its u16 header field.
  if (!core::ValidSketchParams(file.params)) return false;
  if (file.algorithm.size() > 0xffff) return false;
  if (version != arena::kVersionLegacy && version != arena::kVersionArena) {
    return false;
  }
  out.write(arena::kMagic, 4);
  PutRaw<std::uint16_t>(out, version);
  PutRaw<std::uint16_t>(out,
                        static_cast<std::uint16_t>(file.algorithm.size()));
  out.write(file.algorithm.data(),
            static_cast<std::streamsize>(file.algorithm.size()));
  PutRaw<std::uint32_t>(out, static_cast<std::uint32_t>(file.params.k));
  PutRaw<double>(out, file.params.eps);
  PutRaw<double>(out, file.params.delta);
  PutRaw<std::uint8_t>(out, file.params.scope == core::Scope::kForAll ? 0
                                                                      : 1);
  PutRaw<std::uint8_t>(
      out, file.params.answer == core::Answer::kIndicator ? 0 : 1);
  PutRaw<std::uint64_t>(out, file.n);
  PutRaw<std::uint64_t>(out, file.d);
  const std::uint64_t bits = file.summary.size();
  PutRaw<std::uint64_t>(out, bits);

  if (version == arena::kVersionLegacy) {
    // Pack bits LSB-first into bytes.
    std::vector<char> bytes((file.summary.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < file.summary.size(); ++i) {
      if (file.summary.Get(i)) {
        bytes[i / 8] |= static_cast<char>(1 << (i % 8));
      }
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  } else {
    // Arena framing: aligned word sections behind an offset table. A
    // column section is framed only for algorithms whose whole payload
    // is one row-major sample -- that is what the mapped load path can
    // hand to ColumnStore::FromColumnWords verbatim.
    const std::uint64_t summary_words = (bits + 63) / 64;
    const auto algo = ResolveAlgorithm(file);
    const bool with_columns = algo != nullptr &&
                              algo->HasRowMajorPayload(file.params) &&
                              file.d > 0 && bits > 0 && bits % file.d == 0;
    const std::uint64_t rows = with_columns ? bits / file.d : 0;
    const std::uint64_t stride =
        with_columns
            ? arena::ColumnStrideWords(static_cast<std::size_t>(rows))
            : 0;
    const std::uint32_t section_count = with_columns ? 2 : 1;

    const std::uint64_t header_end =
        4 + 2 + 2 + file.algorithm.size() + 4 + 8 + 8 + 1 + 1 + 8 + 8 + 8 +
        4 + section_count * arena::kSectionEntryBytes;
    const std::uint64_t summary_offset = RoundUpToAlign(header_end);
    const std::uint64_t columns_offset =
        RoundUpToAlign(summary_offset + summary_words * 8);

    PutRaw<std::uint32_t>(out, section_count);
    PutRaw<std::uint32_t>(out, arena::kSummaryWords);
    PutRaw<std::uint32_t>(out, 0);  // flags
    PutRaw<std::uint64_t>(out, summary_offset);
    PutRaw<std::uint64_t>(out, summary_words);
    if (with_columns) {
      PutRaw<std::uint32_t>(out, arena::kColumnWords);
      PutRaw<std::uint32_t>(out, 0);  // flags
      PutRaw<std::uint64_t>(out, columns_offset);
      PutRaw<std::uint64_t>(out, file.d * stride);
    }

    PutZeros(out, summary_offset - header_end);
    PutWords(out, file.summary.data(), summary_words);
    if (with_columns) {
      PutZeros(out, columns_offset - (summary_offset + summary_words * 8));
      const core::ColumnStore columns =
          core::ColumnStore::FromRowMajorBits(file.summary, file.d);
      for (std::size_t j = 0; j < file.d; ++j) {
        const util::BitVector& column = columns.Column(j);
        PutWords(out, column.data(), column.num_words());
        PutZeros(out, (stride - column.num_words()) * 8);
      }
    }
  }
  // Push everything through to the sink before reporting success: a full
  // disk often only surfaces at flush time, and returning true on a
  // short write would leave a truncated, unreadable .ifsk behind.
  out.flush();
  return static_cast<bool>(out);
}

// The copying load: one parse of the image, then the summary deep-copied
// out of it (a v1 summary is already owned), so the result outlives it.
std::optional<SketchFile> CopySketchImage(
    std::shared_ptr<const util::MappedFile> image, SketchError* error) {
  auto view = ParseSketchImage(std::move(image), error);
  if (!view.has_value()) return std::nullopt;
  SketchFile file = std::move(view->file);
  if (file.summary.is_view()) file.summary = util::BitVector(file.summary);
  return file;
}

}  // namespace

bool WriteSketch(std::ostream& out, const SketchFile& file,
                 std::uint16_t version, SketchChecksum checksum) {
  // v1 has no trailer slot, so a checksum request on a legacy file is
  // ignored rather than refused -- the caller's compatibility intent
  // (produce a v1 file) wins.
  if (checksum != SketchChecksum::kCrc32c ||
      version != arena::kVersionArena) {
    return WriteSketchBody(out, file, version);
  }
  // Serialize to memory first: the trailer's CRC covers every body byte,
  // and buffering keeps this a single pass over the payload.
  std::ostringstream body(std::ios::binary);
  if (!WriteSketchBody(body, file, version)) return false;
  const std::string bytes = body.str();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.write(arena::kTrailerMagic, 4);
  PutRaw<std::uint32_t>(out, arena::kChecksumCrc32c);
  PutRaw<std::uint64_t>(out, util::Crc32c(bytes.data(), bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

std::optional<SketchFile> ReadSketch(std::istream& in, SketchError* error) {
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return CopySketchImage(util::MappedFile::FromBytes(bytes.data(),
                                                     bytes.size()),
                         error);
}

bool SaveSketchFile(const std::string& path, const SketchFile& file,
                    std::uint16_t version, SketchChecksum checksum,
                    SketchError* error) {
  std::ostringstream out(std::ios::binary);
  if (!WriteSketch(out, file, version, checksum)) {
    if (error != nullptr) {
      error->message = "unserializable sketch (bad params, name, or version)";
      error->offset = 0;
    }
    return false;
  }
  const std::string bytes = out.str();
  std::string detail;
  if (!util::WriteFileAtomic(path, bytes.data(), bytes.size(), &detail)) {
    if (error != nullptr) {
      error->message = std::move(detail);
      error->offset = 0;
    }
    return false;
  }
  return true;
}

std::optional<SketchFile> LoadSketchFile(const std::string& path,
                                         SketchError* error) {
  auto image = util::MappedFile::Open(path);
  if (image == nullptr) {
    if (error != nullptr) {
      error->message = "cannot open file";
      error->offset = 0;
    }
    return std::nullopt;
  }
  return CopySketchImage(std::move(image), error);
}

std::unique_ptr<core::SketchAlgorithm> ResolveAlgorithm(
    const SketchFile& file) {
  return BuiltinRegistry().Create(file.algorithm);
}

std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
    const SketchFile& file) {
  const auto algo = ResolveAlgorithm(file);
  if (algo == nullptr) return nullptr;
  return algo->LoadEstimator(file.summary, file.params, file.d, file.n);
}

std::unique_ptr<core::FrequencyIndicator> LoadIndicator(
    const SketchFile& file) {
  const auto algo = ResolveAlgorithm(file);
  if (algo == nullptr) return nullptr;
  return algo->LoadIndicator(file.summary, file.params, file.d, file.n);
}

}  // namespace ifsketch::sketch
