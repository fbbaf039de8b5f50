#include "util/bitvector.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/kernels.h"

namespace ifsketch::util {

BitVector BitVector::View(const std::uint64_t* words, std::size_t bits) {
  IFSKETCH_CHECK(words != nullptr || bits == 0);
  BitVector v;
  v.size_ = bits;
  v.data_ = words;
  v.view_ = true;
  return v;
}

BitVector::BitVector(const BitVector& other) : size_(other.size_) {
  // Copies always own: a view's copy deep-copies the borrowed words so it
  // stays valid after the mapping behind the original goes away.
  const std::size_t words = other.num_words();
  words_.resize(words);
  if (words != 0) {
    std::memcpy(words_.data(), other.data_, words * sizeof(std::uint64_t));
  }
  data_ = words_.data();
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this == &other) return *this;
  size_ = other.size_;
  const std::size_t words = other.num_words();
  words_.resize(words);
  if (words != 0) {
    std::memcpy(words_.data(), other.data_, words * sizeof(std::uint64_t));
  }
  data_ = words_.data();
  view_ = false;
  return *this;
}

BitVector::BitVector(BitVector&& other) noexcept
    : size_(other.size_),
      words_(std::move(other.words_)),
      data_(other.view_ ? other.data_ : words_.data()),
      view_(other.view_) {
  other.size_ = 0;
  other.words_.clear();
  other.data_ = nullptr;
  other.view_ = false;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this == &other) return *this;
  size_ = other.size_;
  words_ = std::move(other.words_);
  data_ = other.view_ ? other.data_ : words_.data();
  view_ = other.view_;
  other.size_ = 0;
  other.words_.clear();
  other.data_ = nullptr;
  other.view_ = false;
  return *this;
}

BitVector BitVector::AdoptWords(std::vector<std::uint64_t>&& words,
                                std::size_t bits) {
  IFSKETCH_CHECK_EQ(words.size(), (bits + 63) / 64);
  BitVector v;
  v.size_ = bits;
  v.words_ = std::move(words);
  v.data_ = v.words_.data();
  const std::size_t tail = bits & 63;
  if (tail != 0) {
    v.words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
  return v;
}

BitVector BitVector::FromString(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    IFSKETCH_CHECK(bits[i] == '0' || bits[i] == '1');
    v.Set(i, bits[i] == '1');
  }
  return v;
}

void BitVector::Clear() {
  std::uint64_t* words = MutableWords();
  for (std::size_t i = 0; i < words_.size(); ++i) words[i] = 0;
}

std::size_t BitVector::Count() const {
  return ActiveKernels().popcount_words(data_, num_words());
}

bool BitVector::Contains(const BitVector& other) const {
  IFSKETCH_CHECK_EQ(size_, other.size_);
  for (std::size_t i = 0; i < num_words(); ++i) {
    if ((data_[i] & other.data_[i]) != other.data_[i]) return false;
  }
  return true;
}

std::size_t BitVector::HammingDistance(const BitVector& other) const {
  IFSKETCH_CHECK_EQ(size_, other.size_);
  std::size_t c = 0;
  for (std::size_t i = 0; i < num_words(); ++i) {
    c += std::popcount(data_[i] ^ other.data_[i]);
  }
  return c;
}

std::size_t BitVector::AndCount(const BitVector& other) const {
  IFSKETCH_CHECK_EQ(size_, other.size_);
  return ActiveKernels().and_count(data_, other.data_, num_words());
}

std::size_t BitVector::AndCountMany(const BitVector* const* operands,
                                    std::size_t count) {
  // An empty operand list has no well-defined AND width, so it stays a
  // contract violation; zero-*word* operands are fine (the kernels never
  // touch a pointer when the word count is 0).
  IFSKETCH_CHECK_GE(count, 1u);
  const BitVector& first = *operands[0];
  for (std::size_t j = 1; j < count; ++j) {
    IFSKETCH_CHECK_EQ(first.size_, operands[j]->size_);
  }
  // The kernels take raw word streams; gather them on the stack for the
  // operand counts the query paths actually produce (|T| columns).
  std::array<const std::uint64_t*, 16> stack_ptrs;
  std::vector<const std::uint64_t*> heap_ptrs;
  const std::uint64_t** ptrs = stack_ptrs.data();
  if (count > stack_ptrs.size()) {
    heap_ptrs.resize(count);
    ptrs = heap_ptrs.data();
  }
  for (std::size_t j = 0; j < count; ++j) {
    ptrs[j] = operands[j]->data_;
  }
  return ActiveKernels().and_count_many(ptrs, count, first.num_words());
}

BitVector& BitVector::operator&=(const BitVector& other) {
  IFSKETCH_CHECK_EQ(size_, other.size_);
  ActiveKernels().and_into(MutableWords(), other.data_, num_words());
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  IFSKETCH_CHECK_EQ(size_, other.size_);
  std::uint64_t* words = MutableWords();
  for (std::size_t i = 0; i < num_words(); ++i) words[i] |= other.data_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  IFSKETCH_CHECK_EQ(size_, other.size_);
  std::uint64_t* words = MutableWords();
  for (std::size_t i = 0; i < num_words(); ++i) words[i] ^= other.data_[i];
  return *this;
}

bool operator==(const BitVector& a, const BitVector& b) {
  if (a.size_ != b.size_) return false;
  const std::size_t words = a.num_words();
  // Trailing bits beyond size() are zero on both sides (an owning-vector
  // invariant that View() requires of its storage), so whole-word
  // comparison is exact.
  return words == 0 ||
         std::memcmp(a.data_, b.data_, words * sizeof(std::uint64_t)) == 0;
}

BitVector BitVector::Concat(const BitVector& other) const {
  BitVector out(size_ + other.size_);
  for (std::size_t i = 0; i < size_; ++i) out.Set(i, Get(i));
  for (std::size_t i = 0; i < other.size_; ++i) {
    out.Set(size_ + i, other.Get(i));
  }
  return out;
}

BitVector BitVector::Slice(std::size_t begin, std::size_t len) const {
  IFSKETCH_CHECK_LE(begin + len, size_);
  BitVector out(len);
  for (std::size_t i = 0; i < len; ++i) out.Set(i, Get(begin + i));
  return out;
}

std::vector<std::size_t> BitVector::SetBits() const {
  std::vector<std::size_t> out;
  out.reserve(Count());
  SetBitsInto(&out);
  return out;
}

void BitVector::SetBitsInto(std::vector<std::size_t>* out) const {
  out->clear();
  for (std::size_t wi = 0; wi < num_words(); ++wi) {
    std::uint64_t w = data_[wi];
    while (w != 0) {
      const int b = std::countr_zero(w);
      out->push_back(wi * 64 + static_cast<std::size_t>(b));
      w &= w - 1;
    }
  }
}

std::string BitVector::ToString() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (Get(i)) s[i] = '1';
  }
  return s;
}

}  // namespace ifsketch::util
