// AVX-512 tier of the BitKernels vtable (see util/kernels.h).
//
// With VPOPCNTDQ the whole Mula/Harley-Seal machinery collapses: one
// vpopcntq per 512-bit vector (8 words) accumulated lane-wise, reduced
// once at the end. The fused entry points AND the operand streams in
// registers before the popcount, same single-pass shape as the other
// tiers. The popcount entry points finish the last n mod 8 words with
// one masked vector (_mm512_maskz_loadu_epi64) instead of a scalar
// loop: masked-off lanes read as zero and are never accessed, so they
// cannot fault even when a stream ends at the edge of a mapping. A
// column of ~40 words is then five vector steps, not four plus eight
// scalar ones. CRC32C reuses the avx2 tier's SSE4.2 implementation.
//
// This TU is the only one compiled with -mavx512f -mavx512vpopcntdq
// (CMake sets the flags per file) and self-gates on the macros those
// flags define; dispatch reaches it only after a CPUID check for both
// features.

#include "util/kernels_impl.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <cstdint>

namespace ifsketch::util::internal {
namespace {

inline __m512i LoadVec(const std::uint64_t* words, std::size_t vec) {
  return _mm512_loadu_si512(words + 8 * vec);
}

// The first `lanes` (< 8) words at words + 8 * vec, the rest zero; the
// zeroed lanes are not read.
inline __m512i LoadTail(const std::uint64_t* words, std::size_t vec,
                        __mmask8 lanes) {
  return _mm512_maskz_loadu_epi64(lanes, words + 8 * vec);
}

// Mask of the n mod 8 tail words.
inline __mmask8 TailMask(std::size_t n) {
  return static_cast<__mmask8>((1u << (n & 7)) - 1);
}

// Lane sum via a stack spill: _mm512_reduce_add_epi64 would be the
// obvious spelling, but GCC's implementation goes through
// _mm256_undefined_si256 and trips -Wuninitialized under -Werror.
inline std::size_t HorizontalSum(__m512i acc) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::uint64_t c = 0;
  for (std::uint64_t lane : lanes) c += lane;
  return static_cast<std::size_t>(c);
}

std::size_t Avx512PopcountWords(const std::uint64_t* words, std::size_t n) {
  const std::size_t vectors = n / 8;
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t i = 0; i < vectors; ++i) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(LoadVec(words, i)));
  }
  if (const __mmask8 tail = TailMask(n); tail != 0) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(LoadTail(words, vectors, tail)));
  }
  return HorizontalSum(acc);
}

std::size_t Avx512AndCount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  const std::size_t vectors = n / 8;
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t i = 0; i < vectors; ++i) {
    const __m512i v = _mm512_and_si512(LoadVec(a, i), LoadVec(b, i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (const __mmask8 tail = TailMask(n); tail != 0) {
    const __m512i v = _mm512_and_si512(LoadTail(a, vectors, tail),
                                       LoadTail(b, vectors, tail));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return HorizontalSum(acc);
}

std::size_t Avx512AndCountMany(const std::uint64_t* const* ops,
                               std::size_t count, std::size_t n) {
  const std::size_t vectors = n / 8;
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t i = 0; i < vectors; ++i) {
    __m512i v = LoadVec(ops[0], i);
    for (std::size_t j = 1; j < count; ++j) {
      v = _mm512_and_si512(v, LoadVec(ops[j], i));
    }
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (const __mmask8 tail = TailMask(n); tail != 0) {
    __m512i v = LoadTail(ops[0], vectors, tail);
    for (std::size_t j = 1; j < count; ++j) {
      v = _mm512_and_si512(v, LoadTail(ops[j], vectors, tail));
    }
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return HorizontalSum(acc);
}

void Avx512AndInto(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(dst + i),
                                       _mm512_loadu_si512(src + i));
    _mm512_storeu_si512(dst + i, v);
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

constexpr BitKernels kAvx512Kernels = {
    "avx512",
    &Avx512PopcountWords,
    &Avx512AndCount,
    &Avx512AndCountMany,
    &Avx512AndInto,
    &Sse42Crc32cExtend,  // kernels_avx2.cc: crc32 gains nothing from zmm
};

}  // namespace

const BitKernels* Avx512KernelsOrNull() { return &kAvx512Kernels; }

}  // namespace ifsketch::util::internal

#else  // !(__AVX512F__ && __AVX512VPOPCNTDQ__)

namespace ifsketch::util::internal {

const BitKernels* Avx512KernelsOrNull() { return nullptr; }

}  // namespace ifsketch::util::internal

#endif  // defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
