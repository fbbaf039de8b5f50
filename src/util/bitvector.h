// A packed, fixed-size bit vector.
//
// Database rows, itemset indicator vectors, code words and sketch payloads
// are all bit strings; this is the shared representation. The layout is
// little-endian within each 64-bit word: bit i lives in word i/64 at
// position i%64.
//
// The word-stream operations (Count, AndCount, AndCountMany, operator&=)
// dispatch through util::BitKernels (util/kernels.h): scalar, AVX2 or
// AVX-512 implementations selected once at startup by CPUID, overridable
// via IFSKETCH_KERNEL. Every tier is bit-identical to the scalar
// reference, so callers never observe the dispatch.
//
// A BitVector either OWNS its words (the default: every constructor and
// every copy allocates) or is a VIEW borrowing caller-managed words
// (BitVector::View) -- the zero-copy hand-off used by the mmap-backed
// sketch loading path to run kernels straight out of the page cache.
// Views answer every const query exactly like an owning vector of the
// same bits; copying a view materializes an owning deep copy (so value
// semantics never dangle); mutating a view aborts.
#ifndef IFSKETCH_UTIL_BITVECTOR_H_
#define IFSKETCH_UTIL_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace ifsketch::util {

/// Fixed-size packed vector of bits with word-level bulk operations.
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `size` bits, all zero.
  explicit BitVector(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0), data_(words_.data()) {}

  /// A read-only view of `bits` bits borrowing `words` (same layout as an
  /// owning vector: bit i in word i/64 at position i%64). The storage
  /// must outlive the view, hold (bits+63)/64 readable words, and keep
  /// any bits past `bits` in the last word zero -- word-level kernels
  /// (Count, AndCount, operator==) trust that invariant. `words` may be
  /// null only when bits == 0.
  static BitVector View(const std::uint64_t* words, std::size_t bits);

  // Value semantics with one asymmetry: copying always produces an
  // OWNING vector (a copy of a view deep-copies the viewed words, so the
  // copy's lifetime is independent of the mapping it came from). Moves
  // preserve view-ness.
  BitVector(const BitVector& other);
  BitVector& operator=(const BitVector& other);
  BitVector(BitVector&& other) noexcept;
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector() = default;

  /// Creates a vector from a string of '0'/'1' characters (test helper).
  static BitVector FromString(const std::string& bits);

  /// Adopts an already-packed word vector as an owning BitVector of
  /// `bits` bits without copying. words.size() must be (bits+63)/64;
  /// bits beyond `bits` in the last word are zeroed to restore the
  /// trailing-zero invariant.
  static BitVector AdoptWords(std::vector<std::uint64_t>&& words,
                              std::size_t bits);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Whether this vector borrows its words (see View).
  bool is_view() const { return view_; }

  /// Raw word storage, (size()+63)/64 words; trailing bits beyond size()
  /// are zero. Null only when size() == 0.
  const std::uint64_t* data() const { return data_; }
  std::size_t num_words() const { return (size_ + 63) / 64; }

  /// Returns bit `i`. Precondition: i < size().
  bool Get(std::size_t i) const {
    return (data_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit `i` to `value`. Precondition: i < size() and not a view.
  void Set(std::size_t i, bool value) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      MutableWords()[i >> 6] |= mask;
    } else {
      MutableWords()[i >> 6] &= ~mask;
    }
  }

  /// Flips bit `i`. Precondition: i < size() and not a view.
  void Flip(std::size_t i) {
    MutableWords()[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  /// Sets all bits to zero. Precondition: not a view.
  void Clear();

  /// Number of set bits.
  std::size_t Count() const;

  /// True iff every bit set in `other` is also set in *this
  /// (i.e. other ⊆ this, reading both as attribute sets).
  /// Precondition: same size.
  bool Contains(const BitVector& other) const;

  /// Number of positions where *this and `other` differ.
  /// Precondition: same size.
  std::size_t HammingDistance(const BitVector& other) const;

  /// Popcount of the AND of the two vectors (inner product over {0,1}).
  /// Precondition: same size.
  std::size_t AndCount(const BitVector& other) const;

  /// Popcount of the AND of all `count` operands, fused into a single
  /// pass over the words: each word is ANDed across the operands in a
  /// register and popcounted immediately, with no materialized
  /// accumulator vector. Equivalent to folding operator&= over the
  /// operands and calling Count(), at one memory pass instead of
  /// count-1. Preconditions: count >= 1 (an empty operand list has no
  /// defined AND width and aborts), all operands non-null and the same
  /// size. Zero-bit operands are valid and count as 0.
  static std::size_t AndCountMany(const BitVector* const* operands,
                                  std::size_t count);

  /// Convenience overload over a vector of operand pointers.
  static std::size_t AndCountMany(
      const std::vector<const BitVector*>& operands) {
    return AndCountMany(operands.data(), operands.size());
  }

  /// In-place bitwise operations. Precondition: same size; *this is not
  /// a view (the right-hand side may be).
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  BitVector& operator^=(const BitVector& other);

  friend BitVector operator&(BitVector a, const BitVector& b) {
    a &= b;
    return a;
  }
  friend BitVector operator|(BitVector a, const BitVector& b) {
    a |= b;
    return a;
  }
  friend BitVector operator^(BitVector a, const BitVector& b) {
    a ^= b;
    return a;
  }

  friend bool operator==(const BitVector& a, const BitVector& b);

  /// Concatenation: the bits of `other` appended after the bits of *this.
  BitVector Concat(const BitVector& other) const;

  /// The sub-vector [begin, begin+len).
  BitVector Slice(std::size_t begin, std::size_t len) const;

  /// Indices of set bits, ascending.
  std::vector<std::size_t> SetBits() const;

  /// SetBits into caller scratch: replaces *out's contents, reusing its
  /// capacity, so a loop over many vectors allocates only while *out
  /// grows.
  void SetBitsInto(std::vector<std::size_t>* out) const;

  /// '0'/'1' rendering (test/debug helper).
  std::string ToString() const;

 private:
  // The single mutation gate: every writing path goes through here, so a
  // view (whose words_ is empty and whose bytes may be a shared, literally
  // read-only mapping) can never be written through. Inline, because
  // per-bit writers (Set/Flip) sit in O(n*d) transpose and decode loops
  // where an out-of-line call per bit would dominate.
  std::uint64_t* MutableWords() {
    IFSKETCH_CHECK(!view_);
    return words_.data();
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;  // empty for views
  const std::uint64_t* data_ = nullptr;  // words_.data() or borrowed
  bool view_ = false;
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_BITVECTOR_H_
