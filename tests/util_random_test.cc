#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace ifsketch::util {
namespace {

TEST(RandomTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(1), 0u);
  }
}

TEST(RandomTest, UniformIntCoversSupport) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, UniformIntApproximatelyUniform) {
  Rng rng(7);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500) << b;
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Rng rng(8);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RandomTest, RandomBitsDensityHalf) {
  Rng rng(10);
  const BitVector v = rng.RandomBits(10000);
  EXPECT_NEAR(static_cast<double>(v.Count()), 5000.0, 300.0);
}

TEST(RandomTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RandomTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(60);
    const std::size_t k = rng.UniformInt(n + 1);
    const auto sample = rng.SampleWithoutReplacement(n, k);
    ASSERT_EQ(sample.size(), k);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      EXPECT_LT(sample[i], n);
      if (i > 0) {
        EXPECT_GT(sample[i], sample[i - 1]);
      }
    }
  }
}

TEST(RandomTest, SampleWithoutReplacementFull) {
  Rng rng(13);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RandomTest, SampleWithoutReplacementUniformMargins) {
  Rng rng(14);
  constexpr int kTrials = 20000;
  int counts[10] = {};
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t idx : rng.SampleWithoutReplacement(10, 3)) {
      ++counts[idx];
    }
  }
  // Each element appears with probability 3/10.
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(counts[i], kTrials * 0.3, 400) << i;
  }
}

// Floyd's loop as it stood with a linear membership scan: the reference
// for the hash-set version, which must make the same draws and return
// the same sample.
std::vector<std::size_t> LinearScanFloyd(Rng& rng, std::size_t n,
                                         std::size_t count) {
  std::vector<std::size_t> out;
  for (std::size_t j = n - count; j < n; ++j) {
    const std::size_t t = rng.UniformInt(j + 1);
    bool present = false;
    for (std::size_t x : out) present |= (x == t);
    out.push_back(present ? j : t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RandomTest, SampleWithoutReplacementMatchesLinearScanFloyd) {
  const std::pair<std::size_t, std::size_t> grid[] = {
      {0, 0},     {1, 0},       {1, 1},         {2, 1},
      {2, 2},     {10, 0},      {10, 3},        {10, 10},
      {64, 63},   {1000, 1},    {1000, 500},    {1000, 1000},
      {4096, 4096}, {std::size_t{1} << 40, 300}, {100000, 17908},
  };
  for (const auto& [n, count] : grid) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << " count=" << count << " seed=" << seed);
      Rng fast(seed);
      Rng reference(seed);
      EXPECT_EQ(fast.SampleWithoutReplacement(n, count),
                LinearScanFloyd(reference, n, count));
      EXPECT_EQ(fast.Next(), reference.Next());  // same draws consumed
    }
  }
}

// ReservoirCoin must be indistinguishable from UniformInt(bound) == 0:
// the same decision on every draw and the same generator state after.
void ExpectCoinMatchesUniformInt(std::uint64_t bound, std::uint64_t seed) {
  constexpr int kDraws = 100000;
  const ReservoirCoin coin(bound);
  Rng fast(seed);
  Rng reference(seed);
  int heads = 0;
  for (int i = 0; i < kDraws; ++i) {
    const bool want = reference.UniformInt(bound) == 0;
    ASSERT_EQ(coin.Flip(fast), want) << "bound=" << bound << " draw " << i;
    heads += want ? 1 : 0;
  }
  ASSERT_EQ(fast.Next(), reference.Next()) << "bound=" << bound;
  if (bound == 1) {
    EXPECT_EQ(heads, kDraws);
  }
}

TEST(RandomTest, ReservoirCoinMatchesUniformIntOnEdgeBounds) {
  const std::uint64_t max = ~std::uint64_t{0};
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{1} << 63, max,
        max - 1, (std::uint64_t{1} << 63) + 1, max / 3}) {
    ExpectCoinMatchesUniformInt(bound, bound ^ 0x5eed);
  }
}

TEST(RandomTest, ReservoirCoinMatchesUniformIntAroundPowersOfTwo) {
  for (int k = 0; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    ExpectCoinMatchesUniformInt(p, 1000 + k);
    ExpectCoinMatchesUniformInt(p + 1, 2000 + k);
    if (p > 1) ExpectCoinMatchesUniformInt(p - 1, 3000 + k);
  }
}

TEST(RandomTest, ReservoirCoinMatchesUniformIntOnRandomBounds) {
  Rng bounds(77);
  for (int i = 0; i < 48; ++i) {
    // Small bounds (frequent heads), full-width bounds (frequent
    // rejection near 2^63 and above), and odd parts times powers of two.
    const std::uint64_t small = 1 + bounds.UniformInt(5000);
    const std::uint64_t wide = bounds.Next() | 1;
    const std::uint64_t shifted = (1 + bounds.UniformInt(1000))
                                  << bounds.UniformInt(50);
    ExpectCoinMatchesUniformInt(small, 4000 + i);
    ExpectCoinMatchesUniformInt(wide, 5000 + i);
    ExpectCoinMatchesUniformInt(shifted, 6000 + i);
  }
}

TEST(RandomTest, GaussianMoments) {
  Rng rng(15);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sumsq / kDraws, 1.0, 0.05);
}

TEST(RandomTest, ForkIndependence) {
  Rng rng(16);
  Rng child = rng.Fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(16);
  parent_copy.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == rng.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace ifsketch::util
