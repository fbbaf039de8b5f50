// Runtime-dispatched SIMD kernels for the word-stream bit operations and
// the CRC32C integrity checksum.
//
// Every hot query path in this repo reduces to the same operations over
// 64-bit words: popcount a stream, popcount the AND of two streams,
// popcount the AND of many streams, and AND one stream into another.
// Every durable byte -- sketch-file trailers, WAL records, segment
// headers, checkpoints -- is verified by CRC32C over a byte stream
// (util/crc32c.h). BitKernels packages those five entry points as a
// vtable with one implementation per ISA tier:
//
//   scalar   portable C++ (std::popcount, slice-by-8 CRC tables); always
//            compiled, always the conformance reference.
//   avx2     256-bit Mula/Harley-Seal popcount (vpshufb nibble lookup +
//            carry-save adder tree) and SSE4.2 crc32 over three
//            interleaved lanes; compiled only when the compiler accepts
//            -mavx2 (which implies SSE4.2).
//   avx512   512-bit VPOPCNTDQ, and the avx2 tier's CRC32C; compiled
//            only when the compiler accepts -mavx512f -mavx512vpopcntdq
//            (and -mavx2, for the shared CRC32C).
//
// The active tier is selected once, at first use, from CPUID feature
// detection -- the best compiled tier the running CPU supports -- and
// can be overridden for testing and benching:
//
//   IFSKETCH_KERNEL=scalar|avx2|avx512   environment variable
//   SetKernelTier(...)                   programmatic (tests, --kernel
//                                        flags in ifsketch_cli and
//                                        bench/micro_engine)
//
// Bit-identity guarantee: every tier returns exactly the same counts,
// stores exactly the same words and computes exactly the same checksums
// as the scalar reference on every input, including n == 0 (no pointer
// is dereferenced when a stream is empty).
// tests/util_kernels_test.cc enforces this differentially for every tier
// the build compiled in and the CPU supports.
//
// Threading: ActiveKernels() is safe to call from any thread. Overriding
// the tier (env var aside) must happen from configuration code before
// queries are in flight, same contract as
// util::ThreadPool::SetDefaultThreadCount.
#ifndef IFSKETCH_UTIL_KERNELS_H_
#define IFSKETCH_UTIL_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ifsketch::util {

/// One ISA tier's implementations of the five entry points: four
/// word-stream bit operations and CRC32C. All functions tolerate n == 0
/// (and then never touch the pointers).
struct BitKernels {
  /// Tier name: "scalar", "avx2" or "avx512".
  const char* name;

  /// Total set bits in words[0..n).
  std::size_t (*popcount_words)(const std::uint64_t* words, std::size_t n);

  /// Popcount of a[i] & b[i] over i in [0, n).
  std::size_t (*and_count)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);

  /// Popcount of ops[0][i] & ... & ops[count-1][i] over i in [0, n).
  /// Precondition: count >= 1.
  std::size_t (*and_count_many)(const std::uint64_t* const* ops,
                                std::size_t count, std::size_t n);

  /// dst[i] &= src[i] over i in [0, n).
  void (*and_into)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n);

  /// Extends a running CRC32C over data[0..size), with the
  /// util::Crc32cExtend convention (pass 0 to start; the pre/post
  /// inversion happens inside).
  std::uint32_t (*crc32c_extend)(std::uint32_t crc, const void* data,
                                 std::size_t size);
};

/// Dispatch tiers, ascending by capability.
enum class KernelTier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar", "avx2" or "avx512".
const char* KernelTierName(KernelTier tier);

/// The portable reference implementation (always available).
const BitKernels& ScalarKernels();

/// The named tier's vtable, or nullptr when that tier was not compiled
/// into this binary or the running CPU lacks the ISA.
const BitKernels* KernelsForTier(KernelTier tier);

/// Tiers usable in this process (compiled in and CPU-supported),
/// ascending; always contains kScalar.
std::vector<KernelTier> SupportedKernelTiers();

/// The vtable queries dispatch through. First call resolves the tier:
/// IFSKETCH_KERNEL if set and usable (otherwise a one-line stderr warning
/// and fall through), else the best supported tier.
const BitKernels& ActiveKernels();

/// The tier ActiveKernels() currently resolves to.
KernelTier ActiveKernelTier();

/// Forces dispatch onto `tier`. Returns false (active tier unchanged)
/// when the tier is not usable in this process. Must not race with
/// in-flight queries.
bool SetKernelTier(KernelTier tier);

/// Name-keyed override ("scalar"/"avx2"/"avx512"), for flag parsing.
bool SetKernelTier(std::string_view name);

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_KERNELS_H_
