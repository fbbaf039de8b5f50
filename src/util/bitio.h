// Bit-level serialization.
//
// The paper measures sketches in *bits* (Definition 5). Every sketch in
// this library serializes itself through BitWriter so the reported space
// complexity |S| is an exact bit count of the encoded summary rather than
// an in-memory sizeof estimate.
//
// The bit string is packed exactly like a BitVector: bit i in 64-bit
// word i/64 at position i%64. Writers shift-merge whole words into that
// layout and readers extract whole words from it, so a field of w bits
// costs O(1) word operations and a b-bit vector O(b/64), not one step
// per bit.
#ifndef IFSKETCH_UTIL_BITIO_H_
#define IFSKETCH_UTIL_BITIO_H_

#include <cstdint>

#include "util/bitvector.h"
#include "util/check.h"

namespace ifsketch::util {

/// Appends fields to a growing bit string.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends a single bit.
  void WriteBit(bool b) {
    if ((bits_ & 63) == 0) words_.push_back(0);
    words_.back() |= std::uint64_t{b} << (bits_ & 63);
    ++bits_;
  }

  /// Appends the low `width` bits of `value`, LSB first. width <= 64;
  /// bits of `value` above `width` are ignored.
  void WriteUint(std::uint64_t value, int width);

  /// Appends an entire bit vector.
  void WriteBits(const BitVector& v);

  /// Appends a frequency in [0,1] quantized to `width` bits
  /// (resolution 2^-width, matching the log(1/eps) cost in Theorem 12).
  void WriteQuantized(double value, int width);

  /// Number of bits written so far.
  std::size_t BitCount() const { return bits_; }

  /// The accumulated bit string (a copy of the packed words; the writer
  /// stays usable).
  BitVector Finish() const;

 private:
  std::vector<std::uint64_t> words_;  // (bits_+63)/64 words, tail bits 0
  std::size_t bits_ = 0;
};

/// Sequentially consumes fields from a bit string written by BitWriter.
/// Every read checks its bounds: reading past the end aborts.
class BitReader {
 public:
  explicit BitReader(const BitVector& bits) : bits_(&bits) {}

  bool ReadBit() {
    IFSKETCH_CHECK_LT(pos_, bits_->size());
    return bits_->Get(pos_++);
  }

  /// Reads `width` bits written by WriteUint. width <= 64.
  std::uint64_t ReadUint(int width);

  /// Reads `count` bits written by WriteBits as an owning vector.
  BitVector ReadBits(std::size_t count);

  double ReadQuantized(int width);

  /// Bits consumed so far.
  std::size_t Position() const { return pos_; }

  /// Bits remaining.
  std::size_t Remaining() const { return bits_->size() - pos_; }

 private:
  // The `width` bits at pos_ (width in [1, 64]); the caller has checked
  // they exist.
  std::uint64_t Extract(int width) const;

  const BitVector* bits_;
  std::size_t pos_ = 0;
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_BITIO_H_
