// Internal seam between the dispatcher (kernels.cc) and the per-ISA
// translation units (kernels_avx2.cc, kernels_avx512.cc).
//
// Each variant TU is compiled with its ISA flags (see CMakeLists.txt) and
// self-gates on the predefined macros those flags imply (__AVX2__,
// __AVX512VPOPCNTDQ__): when the flags are absent -- non-x86 target, or a
// compiler that rejected them at configure time -- the getter still links
// but returns nullptr, so kernels.cc needs no build-system defines to
// know what it got.
#ifndef IFSKETCH_UTIL_KERNELS_IMPL_H_
#define IFSKETCH_UTIL_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>

#include "util/kernels.h"

namespace ifsketch::util::internal {

/// The AVX2 vtable, or nullptr when the TU was compiled without -mavx2.
/// Callers must still check CPU support before dispatching through it.
const BitKernels* Avx2KernelsOrNull();

/// CRC32C on the SSE4.2 crc32 instruction, with the
/// BitKernels::crc32c_extend contract. Defined in kernels_avx2.cc only
/// when that TU is compiled with -mavx2 (CMake compiles the avx512 TU
/// with its flags only then, so the avx512 vtable can share it).
std::uint32_t Sse42Crc32cExtend(std::uint32_t crc, const void* data,
                                std::size_t size);

/// The AVX-512 (F + VPOPCNTDQ) vtable, or nullptr when compiled without
/// the avx512 flags. Same CPU-support caveat as above.
const BitKernels* Avx512KernelsOrNull();

}  // namespace ifsketch::util::internal

#endif  // IFSKETCH_UTIL_KERNELS_IMPL_H_
