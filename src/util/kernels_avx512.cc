// AVX-512 tier of the BitKernels vtable (see util/kernels.h).
//
// With VPOPCNTDQ the whole Mula/Harley-Seal machinery collapses: one
// vpopcntq per 512-bit vector (8 words) accumulated lane-wise, reduced
// once at the end. The fused entry points AND the operand streams in
// registers before the popcount, same single-pass shape as the other
// tiers. CRC32C reuses the avx2 tier's SSE4.2 implementation.
//
// This TU is the only one compiled with -mavx512f -mavx512vpopcntdq
// (CMake sets the flags per file) and self-gates on the macros those
// flags define; dispatch reaches it only after a CPUID check for both
// features.

#include "util/kernels_impl.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace ifsketch::util::internal {
namespace {

inline __m512i LoadVec(const std::uint64_t* words, std::size_t vec) {
  return _mm512_loadu_si512(words + 8 * vec);
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
  std::size_t c = HorizontalSum(acc);
  for (std::size_t i = 8 * vectors; i < n; ++i) {
    c += std::popcount(words[i]);
  }
  return c;
}

std::size_t Avx512AndCount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  const std::size_t vectors = n / 8;
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t i = 0; i < vectors; ++i) {
    const __m512i v = _mm512_and_si512(LoadVec(a, i), LoadVec(b, i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::size_t c = HorizontalSum(acc);
  for (std::size_t i = 8 * vectors; i < n; ++i) {
    c += std::popcount(a[i] & b[i]);
  }
  return c;
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
  std::size_t c = HorizontalSum(acc);
  for (std::size_t i = 8 * vectors; i < n; ++i) {
    std::uint64_t w = ops[0][i];
    for (std::size_t j = 1; j < count; ++j) w &= ops[j][i];
    c += std::popcount(w);
  }
  return c;
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
