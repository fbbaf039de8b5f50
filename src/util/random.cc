#include "util/random.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace ifsketch::util {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // A zero state would lock the generator at zero; splitmix64 of any seed
  // cannot produce four zero outputs, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  IFSKETCH_CHECK_GT(bound, 0u);
  // Lemire-style rejection: accept when the 128-bit product's low half is
  // outside the biased zone.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  while (true) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

BitVector Rng::RandomBits(std::size_t size) {
  BitVector v(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (Next() & 1u) v.Set(i, true);
  }
  return v;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t count) {
  IFSKETCH_CHECK_LE(count, n);
  // Floyd's algorithm: step j draws t uniform in [0, j] and takes t, or j
  // when t is already taken (j itself never is: earlier picks are < j).
  // Membership lives in a linear-probing table of at least 2*count
  // slots holding value+1 (0 = empty), so each step is O(1) expected
  // and the whole loop O(count); the sort adds O(count log count).
  std::vector<std::size_t> out;
  out.reserve(count);
  const std::size_t slots = std::bit_ceil(2 * count + 2);
  const int shift = 64 - std::countr_zero(slots);  // in [1, 63]
  std::vector<std::size_t> table(slots, 0);
  const auto insert_if_absent = [&](std::size_t value) {
    // Fibonacci hashing: the top log2(slots) bits of value * 2^64/phi.
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{value} * 0x9e3779b97f4a7c15ULL) >> shift);
    while (table[i] != 0) {
      if (table[i] == value + 1) return false;
      i = (i + 1) & (slots - 1);
    }
    table[i] = value + 1;
    return true;
  };
  for (std::size_t j = n - count; j < n; ++j) {
    const std::size_t t = UniformInt(j + 1);
    if (insert_if_absent(t)) {
      out.push_back(t);
    } else {
      insert_if_absent(j);
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1342543de82ef95ULL); }

}  // namespace ifsketch::util
