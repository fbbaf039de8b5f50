#include "util/bitio.h"

#include <cmath>

namespace ifsketch::util {

void BitWriter::WriteUint(std::uint64_t value, int width) {
  IFSKETCH_CHECK(width >= 0 && width <= 64);
  if (width == 0) return;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  const int offset = static_cast<int>(bits_ & 63);
  if (offset == 0) {
    words_.push_back(value);
  } else {
    words_.back() |= value << offset;
    if (offset + width > 64) words_.push_back(value >> (64 - offset));
  }
  bits_ += static_cast<std::size_t>(width);
}

void BitWriter::WriteBits(const BitVector& v) {
  const std::size_t full = v.size() / 64;
  const std::uint64_t* words = v.data();
  for (std::size_t i = 0; i < full; ++i) WriteUint(words[i], 64);
  const int tail = static_cast<int>(v.size() & 63);
  if (tail != 0) WriteUint(words[full], tail);
}

void BitWriter::WriteQuantized(double value, int width) {
  IFSKETCH_CHECK(value >= 0.0 && value <= 1.0);
  const std::uint64_t scale = (width >= 64) ? ~std::uint64_t{0}
                                            : ((std::uint64_t{1} << width) - 1);
  const auto q =
      static_cast<std::uint64_t>(std::llround(value * static_cast<double>(scale)));
  WriteUint(q > scale ? scale : q, width);
}

BitVector BitWriter::Finish() const {
  return BitVector::AdoptWords(std::vector<std::uint64_t>(words_), bits_);
}

std::uint64_t BitReader::Extract(int width) const {
  const std::uint64_t* words = bits_->data();
  const std::size_t index = pos_ >> 6;
  const int offset = static_cast<int>(pos_ & 63);
  std::uint64_t value = words[index] >> offset;
  if (offset + width > 64) value |= words[index + 1] << (64 - offset);
  return width < 64 ? value & ((std::uint64_t{1} << width) - 1) : value;
}

std::uint64_t BitReader::ReadUint(int width) {
  IFSKETCH_CHECK(width >= 0 && width <= 64);
  if (width == 0) return 0;
  IFSKETCH_CHECK_LE(static_cast<std::size_t>(width), Remaining());
  const std::uint64_t value = Extract(width);
  pos_ += static_cast<std::size_t>(width);
  return value;
}

BitVector BitReader::ReadBits(std::size_t count) {
  IFSKETCH_CHECK_LE(count, Remaining());
  std::vector<std::uint64_t> words((count + 63) / 64);
  const std::size_t full = count / 64;
  for (std::size_t i = 0; i < full; ++i) {
    words[i] = Extract(64);
    pos_ += 64;
  }
  const int tail = static_cast<int>(count & 63);
  if (tail != 0) {
    words[full] = Extract(tail);
    pos_ += static_cast<std::size_t>(tail);
  }
  return BitVector::AdoptWords(std::move(words), count);
}

double BitReader::ReadQuantized(int width) {
  const std::uint64_t scale = (width >= 64) ? ~std::uint64_t{0}
                                            : ((std::uint64_t{1} << width) - 1);
  return static_cast<double>(ReadUint(width)) / static_cast<double>(scale);
}

}  // namespace ifsketch::util
