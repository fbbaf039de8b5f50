#include "util/kernels.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/check.h"
#include "util/kernels_impl.h"

namespace ifsketch::util {
namespace {

// ------------------------------------------------------ scalar reference
//
// These are the semantics every vectorized tier must reproduce exactly;
// the differential harness in tests/util_kernels_test.cc compares each
// tier against them word for word.

std::size_t ScalarPopcountWords(const std::uint64_t* words, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += std::popcount(words[i]);
  return c;
}

std::size_t ScalarAndCount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += std::popcount(a[i] & b[i]);
  return c;
}

std::size_t ScalarAndCountMany(const std::uint64_t* const* ops,
                               std::size_t count, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t w = ops[0][i];
    for (std::size_t j = 1; j < count; ++j) w &= ops[j][i];
    c += std::popcount(w);
  }
  return c;
}

void ScalarAndInto(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

// CRC32C (reflected Castagnoli), software slice-by-8: ~1 byte/cycle,
// endian-neutral, and the only CRC path on non-x86 builds.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTables {
  std::uint32_t t[8][256];
};

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? kCrc32cPoly : 0);
    }
    tables.t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

std::uint32_t ScalarCrc32cExtend(std::uint32_t crc, const void* data,
                                 std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrc32cTables.t;
  crc = ~crc;
  // Slice-by-8: fold the current CRC into the first four bytes, look all
  // eight up in per-lane tables (byte loads, so byte order of the host
  // never matters).
  while (size >= 8) {
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

constexpr BitKernels kScalarKernels = {
    "scalar",
    &ScalarPopcountWords,
    &ScalarAndCount,
    &ScalarAndCountMany,
    &ScalarAndInto,
    &ScalarCrc32cExtend,
};

// --------------------------------------------------- CPU feature checks

bool CpuSupports(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      // __builtin_cpu_supports also verifies the OS saves the YMM/ZMM
      // state (XGETBV), so a positive answer means the instructions are
      // actually executable, not just advertised. SSE4.2 is the crc32
      // instruction behind the tier's CRC32C entry.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
    case KernelTier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
             __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
  }
  return false;
}

// The tier's vtable when both compiled in and CPU-supported, else null.
const BitKernels* UsableKernels(KernelTier tier) {
  if (!CpuSupports(tier)) return nullptr;
  switch (tier) {
    case KernelTier::kScalar:
      return &kScalarKernels;
    case KernelTier::kAvx2:
      return internal::Avx2KernelsOrNull();
    case KernelTier::kAvx512:
      return internal::Avx512KernelsOrNull();
  }
  return nullptr;
}

// ------------------------------------------------------------- dispatch

struct Dispatch {
  const BitKernels* kernels;
  KernelTier tier;
};

std::atomic<const BitKernels*> g_active{nullptr};
std::atomic<KernelTier> g_active_tier{KernelTier::kScalar};
std::once_flag g_init_once;

Dispatch BestSupported() {
  for (KernelTier tier : {KernelTier::kAvx512, KernelTier::kAvx2}) {
    if (const BitKernels* k = UsableKernels(tier)) return {k, tier};
  }
  return {&kScalarKernels, KernelTier::kScalar};
}

bool ParseTierName(std::string_view name, KernelTier* tier) {
  if (name == "scalar") {
    *tier = KernelTier::kScalar;
  } else if (name == "avx2") {
    *tier = KernelTier::kAvx2;
  } else if (name == "avx512") {
    *tier = KernelTier::kAvx512;
  } else {
    return false;
  }
  return true;
}

void InitDispatch() {
  Dispatch chosen = BestSupported();
  if (const char* env = std::getenv("IFSKETCH_KERNEL")) {
    KernelTier tier;
    if (!ParseTierName(env, &tier)) {
      std::fprintf(stderr,
                   "ifsketch: IFSKETCH_KERNEL=%s is not a kernel tier "
                   "(scalar|avx2|avx512); using %s\n",
                   env, KernelTierName(chosen.tier));
    } else if (const BitKernels* k = UsableKernels(tier)) {
      chosen = {k, tier};
    } else {
      std::fprintf(stderr,
                   "ifsketch: IFSKETCH_KERNEL=%s is not usable on this "
                   "build/CPU; using %s\n",
                   env, KernelTierName(chosen.tier));
    }
  }
  g_active_tier.store(chosen.tier, std::memory_order_relaxed);
  g_active.store(chosen.kernels, std::memory_order_release);
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const BitKernels& ScalarKernels() { return kScalarKernels; }

const BitKernels* KernelsForTier(KernelTier tier) {
  return UsableKernels(tier);
}

std::vector<KernelTier> SupportedKernelTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (UsableKernels(tier) != nullptr) tiers.push_back(tier);
  }
  return tiers;
}

const BitKernels& ActiveKernels() {
  const BitKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    std::call_once(g_init_once, InitDispatch);
    k = g_active.load(std::memory_order_acquire);
  }
  return *k;
}

KernelTier ActiveKernelTier() {
  ActiveKernels();  // force initialization
  return g_active_tier.load(std::memory_order_relaxed);
}

bool SetKernelTier(KernelTier tier) {
  const BitKernels* k = UsableKernels(tier);
  if (k == nullptr) return false;
  std::call_once(g_init_once, InitDispatch);  // claim init for overrides
  g_active_tier.store(tier, std::memory_order_relaxed);
  g_active.store(k, std::memory_order_release);
  return true;
}

bool SetKernelTier(std::string_view name) {
  KernelTier tier;
  if (!ParseTierName(name, &tier)) return false;
  return SetKernelTier(tier);
}

}  // namespace ifsketch::util
