#include "util/crc32c.h"

#include "util/kernels.h"

namespace ifsketch::util {

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size) {
  return ActiveKernels().crc32c_extend(crc, data, size);
}

}  // namespace ifsketch::util
