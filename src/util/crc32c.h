// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The integrity checksum for everything durable: WAL record frames and
// segment headers (ingest/wal.h), builder checkpoints, and the optional
// IFSK v2 trailer (sketch/sketch_file.h). CRC32C detects every burst
// error up to 32 bits -- in particular every single-byte corruption a
// torn write or bit rot can introduce -- which is exactly the failure
// model the recovery path truncates on.
//
// Crc32cExtend dispatches through the active kernel tier
// (util/kernels.h), so IFSKETCH_KERNEL and SetKernelTier pick the CRC
// implementation along with the popcount kernels:
//
//   scalar        software slice-by-8, ~1 byte/cycle; the conformance
//                 reference and the only path on non-x86 builds.
//   avx2, avx512  SSE4.2 crc32 over three interleaved 4 KiB lanes folded
//                 by a table-driven multiply.
//
// Measured with bench/micro_load's crc32c@<tier> rows on a 4-vCPU
// AVX-512 Xeon: ~640 ns/KiB (1.6 GB/s) scalar, ~63 ns/KiB (16 GB/s)
// on the SSE4.2 tiers.
//
// Every tier returns bit-identical results; every call checksums every
// byte it is given (nothing is cached). The running-state convention
// composes: Crc32cExtend(Crc32cExtend(0, a), b) equals Crc32c(a
// concatenated with b), so streaming readers can accumulate while reading
// -- even across a tier switch between the two calls.

#ifndef IFSKETCH_UTIL_CRC32C_H_
#define IFSKETCH_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ifsketch::util {

/// Extends a running CRC32C over `size` more bytes. Pass the previous
/// return value as `crc` (0 to start).
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size);

/// CRC32C of one contiguous buffer.
inline std::uint32_t Crc32c(const void* data, std::size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_CRC32C_H_
