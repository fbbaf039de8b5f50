// AVX2 tier of the BitKernels vtable (see util/kernels.h).
//
// Popcount is the Mula/Harley-Seal scheme: per-vector popcounts come from
// a vpshufb nibble lookup summed with vpsadbw, and streams >= 16 vectors
// run through a carry-save adder tree that popcounts only every 16th
// accumulated vector, amortizing the lookup to ~1/16 of the words. The
// AND-fused entry points reuse the same tree with a loader that ANDs the
// operand streams register-wise, so a fused and_count_many is one pass at
// the same per-word cost as a plain popcount.
//
// CRC32C runs on the SSE4.2 crc32 instruction (-mavx2 implies SSE4.2):
// three interleaved lanes keep its pipeline full, and a table-driven
// GF(2) multiply folds them back into one CRC. The avx512 tier points at
// the same function.
//
// This TU is the only one compiled with -mavx2 (CMake sets the flag per
// file); when the flag is absent (non-x86, or a compiler without AVX2
// support) the whole implementation compiles away and the getter returns
// nullptr. Callers dispatch through it only after a CPUID check for AVX2
// and SSE4.2, so no such instruction can execute on a CPU that lacks it.

#include "util/kernels_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstdint>
#include <cstring>

namespace ifsketch::util::internal {
namespace {

// Per-byte popcounts of v (each byte 0..8), via the 4-bit lookup table.
inline __m256i CountBytes(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

// Popcount of v as four lane-wise u64 partial sums.
inline __m256i PopcountSad(__m256i v) {
  return _mm256_sad_epu8(CountBytes(v), _mm256_setzero_si256());
}

// Carry-save adder: (h, l) = full sum of a + b + c, bitwise.
inline void CSA(__m256i* h, __m256i* l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  *h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  *l = _mm256_xor_si256(u, c);
}

inline std::uint64_t HorizontalSum(__m256i v) {
  return static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3));
}

// Harley-Seal popcount over `vectors` 256-bit values, where load(i)
// produces the i-th vector (a plain load, or the AND of several streams'
// loads -- the tree is identical either way).
template <typename Load>
std::uint64_t HarleySeal(std::size_t vectors, Load load) {
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;

  std::size_t i = 0;
  for (; i + 16 <= vectors; i += 16) {
    CSA(&twos_a, &ones, ones, load(i + 0), load(i + 1));
    CSA(&twos_b, &ones, ones, load(i + 2), load(i + 3));
    CSA(&fours_a, &twos, twos, twos_a, twos_b);
    CSA(&twos_a, &ones, ones, load(i + 4), load(i + 5));
    CSA(&twos_b, &ones, ones, load(i + 6), load(i + 7));
    CSA(&fours_b, &twos, twos, twos_a, twos_b);
    CSA(&eights_a, &fours, fours, fours_a, fours_b);
    CSA(&twos_a, &ones, ones, load(i + 8), load(i + 9));
    CSA(&twos_b, &ones, ones, load(i + 10), load(i + 11));
    CSA(&fours_a, &twos, twos, twos_a, twos_b);
    CSA(&twos_a, &ones, ones, load(i + 12), load(i + 13));
    CSA(&twos_b, &ones, ones, load(i + 14), load(i + 15));
    CSA(&fours_b, &twos, twos, twos_a, twos_b);
    CSA(&eights_b, &fours, fours, fours_a, fours_b);
    CSA(&sixteens, &eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, PopcountSad(sixteens));
  }
  // Each counter vector holds bits worth 16/8/4/2/1 x their popcount.
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(
      total, _mm256_slli_epi64(PopcountSad(eights), 3));
  total = _mm256_add_epi64(
      total, _mm256_slli_epi64(PopcountSad(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(PopcountSad(twos), 1));
  total = _mm256_add_epi64(total, PopcountSad(ones));
  for (; i < vectors; ++i) {
    total = _mm256_add_epi64(total, PopcountSad(load(i)));
  }
  return HorizontalSum(total);
}

inline __m256i LoadVec(const std::uint64_t* words, std::size_t vec) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(words + 4 * vec));
}

std::size_t Avx2PopcountWords(const std::uint64_t* words, std::size_t n) {
  const std::size_t vectors = n / 4;
  std::size_t c = static_cast<std::size_t>(
      HarleySeal(vectors, [&](std::size_t i) { return LoadVec(words, i); }));
  for (std::size_t i = 4 * vectors; i < n; ++i) {
    c += std::popcount(words[i]);
  }
  return c;
}

std::size_t Avx2AndCount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) {
  const std::size_t vectors = n / 4;
  std::size_t c = static_cast<std::size_t>(
      HarleySeal(vectors, [&](std::size_t i) {
        return _mm256_and_si256(LoadVec(a, i), LoadVec(b, i));
      }));
  for (std::size_t i = 4 * vectors; i < n; ++i) {
    c += std::popcount(a[i] & b[i]);
  }
  return c;
}

std::size_t Avx2AndCountMany(const std::uint64_t* const* ops,
                             std::size_t count, std::size_t n) {
  const std::size_t vectors = n / 4;
  std::size_t c = static_cast<std::size_t>(
      HarleySeal(vectors, [&](std::size_t i) {
        __m256i v = LoadVec(ops[0], i);
        for (std::size_t j = 1; j < count; ++j) {
          v = _mm256_and_si256(v, LoadVec(ops[j], i));
        }
        return v;
      }));
  for (std::size_t i = 4 * vectors; i < n; ++i) {
    std::uint64_t w = ops[0][i];
    for (std::size_t j = 1; j < count; ++j) w &= ops[j][i];
    c += std::popcount(w);
  }
  return c;
}

void Avx2AndInto(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i* d = reinterpret_cast<__m256i*>(dst + i);
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(d),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    _mm256_storeu_si256(d, v);
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

// ---------------------------------------------------------------- CRC32C
//
// crc32 has a 3-cycle latency but issues once per cycle, so a single
// dependent stream runs at a third of the instruction's throughput. Each
// 12 KiB block is therefore checksummed as three independent 4 KiB lanes
// A, B, C. The raw (uninverted) CRC register is linear, so with
// L = x^(8 * 4096) mod P the block's CRC is
//   crc(A B C) = (crc(A) * L + crc(B)) * L + crc(C)        (mod P),
// where lanes B and C start from 0. Multiplying by the constant L is a
// GF(2)-linear map on 32 bits, precomputed at compile time as four
// 256-entry byte tables. Whatever is left after the last whole block
// runs as a single stream.

constexpr std::size_t kCrcLaneBytes = 4096;
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected Castagnoli

// a * b mod P in the reflected representation (bit 31 is x^0).
constexpr std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kCrc32cPoly : b >> 1;  // b *= x
  }
  return product;
}

// x^(8 * bytes) mod P: what `bytes` zero bytes multiply the register by.
constexpr std::uint32_t XPowBytesModP(std::size_t bytes) {
  std::uint32_t power = 1u << 31;  // x^0
  for (std::size_t bit = 0; bit < 8 * bytes; ++bit) {
    power = (power & 1) != 0 ? (power >> 1) ^ kCrc32cPoly : power >> 1;
  }
  return power;
}

struct LaneShiftTables {
  std::uint32_t t[4][256];
};

// t[i][b] = (b << 8i) * x^(8 * kCrcLaneBytes) mod P.
constexpr LaneShiftTables MakeLaneShiftTables() {
  LaneShiftTables tables{};
  const std::uint32_t shift = XPowBytesModP(kCrcLaneBytes);
  for (int i = 0; i < 4; ++i) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      tables.t[i][b] = MultModP(shift, b << (8 * i));
    }
  }
  return tables;
}

constexpr LaneShiftTables kLaneShift = MakeLaneShiftTables();

// crc * x^(8 * kCrcLaneBytes) mod P: the register after one lane of zeros.
inline std::uint32_t ShiftOverLane(std::uint32_t crc) {
  return kLaneShift.t[0][crc & 0xFF] ^ kLaneShift.t[1][(crc >> 8) & 0xFF] ^
         kLaneShift.t[2][(crc >> 16) & 0xFF] ^ kLaneShift.t[3][crc >> 24];
}

inline std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr BitKernels kAvx2Kernels = {
    "avx2",
    &Avx2PopcountWords,
    &Avx2AndCount,
    &Avx2AndCountMany,
    &Avx2AndInto,
    &Sse42Crc32cExtend,
};

}  // namespace

std::uint32_t Sse42Crc32cExtend(std::uint32_t crc, const void* data,
                                std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc0 = ~crc;
  while (size >= 3 * kCrcLaneBytes) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kCrcLaneBytes; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kCrcLaneBytes + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kCrcLaneBytes + i));
    }
    const std::uint32_t ab =
        ShiftOverLane(static_cast<std::uint32_t>(crc0)) ^
        static_cast<std::uint32_t>(crc1);
    crc0 = ShiftOverLane(ab) ^ static_cast<std::uint32_t>(crc2);
    p += 3 * kCrcLaneBytes;
    size -= 3 * kCrcLaneBytes;
  }
  for (; size >= 8; size -= 8, p += 8) {
    crc0 = _mm_crc32_u64(crc0, Load64(p));
  }
  auto tail = static_cast<std::uint32_t>(crc0);
  for (; size > 0; --size) tail = _mm_crc32_u8(tail, *p++);
  return ~tail;
}

const BitKernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }

}  // namespace ifsketch::util::internal

#else  // !defined(__AVX2__)

namespace ifsketch::util::internal {

const BitKernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace ifsketch::util::internal

#endif  // defined(__AVX2__)
