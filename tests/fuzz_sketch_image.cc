#include "fuzz_sketch_image.h"

#include <sstream>
#include <string>

#include "sketch/sketch_view.h"
#include "util/check.h"
#include "util/mapped_file.h"

namespace ifsketch {

bool SameSketchFile(const sketch::SketchFile& a, const sketch::SketchFile& b) {
  // Double fields compared bitwise-exact via ==: the codec moves raw
  // 8-byte values, so a round trip must preserve every bit (NaN payloads
  // cannot appear -- ValidSketchParams rejects non-finite eps/delta).
  return a.algorithm == b.algorithm && a.params.k == b.params.k &&
         a.params.eps == b.params.eps && a.params.delta == b.params.delta &&
         a.params.scope == b.params.scope &&
         a.params.answer == b.params.answer && a.n == b.n && a.d == b.d &&
         a.summary == b.summary;
}

int FuzzSketchImage(const std::uint8_t* data, std::size_t size) {
  const auto parsed =
      sketch::ParseSketchImage(util::MappedFile::FromBytes(data, size));
  if (!parsed.has_value()) return -1;
  const sketch::SketchFile& file = parsed->file;
  std::ostringstream out(std::ios::binary);
  IFSKETCH_CHECK(sketch::WriteSketch(out, file, file.version));
  const std::string bytes = out.str();
  const auto again = sketch::ParseSketchImage(
      util::MappedFile::FromBytes(bytes.data(), bytes.size()));
  IFSKETCH_CHECK(again.has_value());
  IFSKETCH_CHECK(again->file.version == file.version);
  IFSKETCH_CHECK(SameSketchFile(file, again->file));
  return 0;
}

}  // namespace ifsketch
