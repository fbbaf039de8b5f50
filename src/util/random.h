// Deterministic pseudo-random generation.
//
// All randomized components (sketching algorithms, hard-instance samplers,
// workload generators) draw from Rng so experiments are reproducible from
// a single seed. The engine is xoshiro256**, seeded via splitmix64.
#ifndef IFSKETCH_UTIL_RANDOM_H_
#define IFSKETCH_UTIL_RANDOM_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitvector.h"
#include "util/check.h"

namespace ifsketch::util {

/// xoshiro256** PRNG with convenience sampling methods.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value. Inline: per-slot reservoir loops
  /// (ReservoirCoin) call it once per slot per row.
  std::uint64_t Next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses rejection sampling so the result is exactly uniform.
  std::uint64_t UniformInt(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// True with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Uniform random bit vector of `size` bits.
  BitVector RandomBits(std::size_t size);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[UniformInt(i)]);
    }
  }

  /// `count` indices sampled uniformly WITHOUT replacement from [0, n).
  /// Precondition: count <= n. Result is sorted ascending.
  ///
  /// Floyd's algorithm: exactly `count` UniformInt draws, with bounds
  /// n-count+1, ..., n in that order. Membership is an open-addressing
  /// set of bit_ceil(2*count+2) words (under 4*count+4), so the cost is
  /// O(count) expected plus the O(count log count) sort, and the memory
  /// is O(count) whatever n is.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t count);

  /// Standard normal via Box-Muller (used by linalg test harnesses).
  double Gaussian();

  /// A fresh, independently-seeded child generator (for per-trial streams).
  Rng Fork();

  /// Complete generator state, for checkpoint/recovery (ingest WAL): a
  /// restored Rng continues the exact sequence the saved one would have
  /// produced, including a pending cached Gaussian.
  struct State {
    std::uint64_t s[4];
    bool have_cached_gaussian;
    double cached_gaussian;
  };

  State SaveState() const {
    return State{{s_[0], s_[1], s_[2], s_[3]},
                 have_cached_gaussian_,
                 cached_gaussian_};
  }

  void RestoreState(const State& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
    have_cached_gaussian_ = state.have_cached_gaussian;
    cached_gaussian_ = state.cached_gaussian;
  }

 private:
  std::uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// A coin that lands heads with probability exactly 1/bound, drawn from
/// an Rng exactly as `rng.UniformInt(bound) == 0` would be: the same
/// Next() values are consumed (rejection included) and the decision is
/// the same. Built once per bound, so a loop over many reservoir slots
/// with one shared bound pays the two 64-bit divisions (rejection
/// threshold, divisibility limit) once instead of per slot.
///
/// UniformInt returns r % bound for the first r >= 2^64 mod bound, so
/// heads means bound divides r. With bound = 2^k * m, m odd, bound | r
/// iff rotr(r * m^-1 mod 2^64, k) <= floor((2^64 - 1) / bound) (Hacker's
/// Delight, 2nd ed., section 10-17): a multiply, a rotate and a compare.
class ReservoirCoin {
 public:
  /// Precondition: bound > 0.
  explicit ReservoirCoin(std::uint64_t bound)
      : threshold_(RejectionThreshold(bound)),
        inverse_(OddInverse(bound >> std::countr_zero(bound))),
        shift_(std::countr_zero(bound)),
        limit_(~std::uint64_t{0} / bound) {}

  /// One draw; true exactly when UniformInt(bound) would return 0.
  bool Flip(Rng& rng) const {
    std::uint64_t r = rng.Next();
    while (r < threshold_) r = rng.Next();
    return std::rotr(r * inverse_, shift_) <= limit_;
  }

 private:
  // 2^64 mod bound, computed exactly as UniformInt computes it. Checks
  // the precondition first (members initialize in declaration order).
  static std::uint64_t RejectionThreshold(std::uint64_t bound) {
    IFSKETCH_CHECK_GT(bound, 0u);
    return (~bound + 1) % bound;
  }

  // m^-1 mod 2^64 for odd m. Newton's step x <- x(2 - m*x) doubles the
  // correct low bits; x = m is right to 3 bits (m^2 == 1 mod 8), so five
  // steps reach 96.
  static std::uint64_t OddInverse(std::uint64_t m) {
    std::uint64_t x = m;
    for (int i = 0; i < 5; ++i) x *= 2 - m * x;
    return x;
  }

  std::uint64_t threshold_;  // 2^64 mod bound: UniformInt's rejection zone
  std::uint64_t inverse_;    // m^-1 mod 2^64 for the odd part m of bound
  int shift_;                // k = countr_zero(bound)
  std::uint64_t limit_;      // floor((2^64 - 1) / bound)
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_RANDOM_H_
