// The IFSK parser's fuzz entry point.
//
// FuzzSketchImage runs one input through ParseSketchImage
// (sketch/sketch_view.h), the parser every sketch load goes through. It
// has libFuzzer's signature, so a libFuzzer build needs only
//
//   extern "C" int LLVMFuzzerTestOneInput(const uint8_t* d, size_t n) {
//     return ifsketch::FuzzSketchImage(d, n);
//   }
//
// The input is first copied into an owned 64-byte-aligned image
// (util::MappedFile::FromBytes), because fuzzer inputs carry no
// alignment guarantee and the parser hands out word views over its
// image. An accepted image is re-serialized with WriteSketch at its own
// format version and re-parsed, and must come back as an equal file:
// whatever the parser accepts, it accepts consistently. A violated
// invariant aborts, which is how a fuzzer reports a bug.
//
// Returns 0 for an accepted image and -1 for a rejected one (libFuzzer
// reads -1 as "do not add this input to the corpus").
//
// The seed corpus is tests/fuzz/ifsk/, written once by WriteSketch: v1,
// trailer-less v2 with and without a column section, v2 with a CRC32C
// trailer, a zero-bit summary, and a truncated header. Seeds named
// bad_* must be rejected, all others accepted. SketchFileFuzzTest runs
// the corpus and seeded mutants through this entry point.
#ifndef IFSKETCH_TESTS_FUZZ_SKETCH_IMAGE_H_
#define IFSKETCH_TESTS_FUZZ_SKETCH_IMAGE_H_

#include <cstddef>
#include <cstdint>

#include "sketch/sketch_file.h"

namespace ifsketch {

int FuzzSketchImage(const std::uint8_t* data, std::size_t size);

/// Field-by-field equality of two files (summary bits included; the
/// format version they were read from is not compared).
bool SameSketchFile(const sketch::SketchFile& a, const sketch::SketchFile& b);

}  // namespace ifsketch

#endif  // IFSKETCH_TESTS_FUZZ_SKETCH_IMAGE_H_
