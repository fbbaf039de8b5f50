// Differential kernel-conformance harness.
//
// The SIMD dispatch tiers (util/kernels.h) are only admissible if they
// are bit-identical to the portable scalar reference on every input.
// This suite enforces that two ways:
//
//   1. Word-stream conformance: for every tier compiled into this binary
//      and supported by the running CPU, run randomized and adversarial
//      word streams of every length 0..257 (covering the 4-word AVX2
//      vector, the 8-word AVX-512 vector, the 16-vector Harley-Seal
//      block, and every tail residue) through each BitKernels entry
//      point and require exact equality with ScalarKernels().
//
//   2. CRC32C conformance: every tier's crc32c_extend must equal the
//      scalar slice-by-8 reference at every length 0..257 and byte
//      offset 0..7 (every tail residue and misalignment), around the
//      three-lane 12 KiB block edges, and on a file-sized buffer; and a
//      running CRC extended on one tier must continue correctly on any
//      other.
//
//   3. End-to-end bit-identity: for every registered algorithm, the
//      engine's estimate_many / are_frequent / mine answers must be
//      bit-identical under every dispatch tier (the IFSKETCH_KERNEL
//      contract; CI additionally runs the whole suite once with
//      IFSKETCH_KERNEL=scalar).
//
// The word-stream entry points are also run on streams that end right
// before a PROT_NONE guard page, at every length 1..24, so a tail that
// read past its stream would crash the suite.
//
// On hardware without AVX2/AVX-512 the per-tier loops degenerate to the
// scalar tier only -- the suite still passes, it just proves less; the
// CI x86 runners exercise the vector tiers.

#include "util/kernels.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "sketch/sketch_file.h"
#include "util/bitvector.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch::util {
namespace {

// Word streams that historically break vector popcount kernels: carry
// chains in the CSA tree (all-ones), sign/lane edges, and single bits at
// word boundaries.
std::vector<std::vector<std::uint64_t>> PatternStreams(std::size_t n,
                                                       Rng& rng) {
  std::vector<std::vector<std::uint64_t>> streams;
  streams.emplace_back(n, std::uint64_t{0});                       // empty
  streams.emplace_back(n, ~std::uint64_t{0});                      // full
  streams.emplace_back(n, std::uint64_t{0xAAAAAAAAAAAAAAAA});      // stripes
  streams.emplace_back(n, std::uint64_t{0x8000000000000001});      // edges
  {
    std::vector<std::uint64_t> sparse(n, 0);
    for (std::size_t i = 0; i < n; i += 3) {
      sparse[i] = std::uint64_t{1} << (i % 64);
    }
    streams.push_back(std::move(sparse));
  }
  {
    std::vector<std::uint64_t> dense(n, ~std::uint64_t{0});
    for (std::size_t i = 0; i < n; i += 5) {
      dense[i] &= ~(std::uint64_t{1} << ((7 * i) % 64));
    }
    streams.push_back(std::move(dense));
  }
  for (int r = 0; r < 2; ++r) {
    std::vector<std::uint64_t> random(n);
    for (auto& w : random) w = rng.Next();
    streams.push_back(std::move(random));
  }
  return streams;
}

class KernelTierTest : public testing::TestWithParam<KernelTier> {
 protected:
  void SetUp() override {
    kernels_ = KernelsForTier(GetParam());
    if (kernels_ == nullptr) {
      GTEST_SKIP() << KernelTierName(GetParam())
                   << " tier not usable on this build/CPU";
    }
  }
  const BitKernels* kernels_ = nullptr;
};

TEST_P(KernelTierTest, PopcountWordsMatchesScalarOnAllLengthsAndPatterns) {
  const BitKernels& scalar = ScalarKernels();
  Rng rng(101);
  for (std::size_t n = 0; n <= 257; ++n) {
    for (const auto& stream : PatternStreams(n, rng)) {
      ASSERT_EQ(kernels_->popcount_words(stream.data(), n),
                scalar.popcount_words(stream.data(), n))
          << KernelTierName(GetParam()) << " diverged at n=" << n;
    }
  }
}

TEST_P(KernelTierTest, AndCountMatchesScalarOnAllLengthsAndPatterns) {
  const BitKernels& scalar = ScalarKernels();
  Rng rng(102);
  for (std::size_t n = 0; n <= 257; ++n) {
    const auto streams = PatternStreams(n, rng);
    for (std::size_t i = 0; i + 1 < streams.size(); ++i) {
      const auto& a = streams[i];
      const auto& b = streams[i + 1];
      ASSERT_EQ(kernels_->and_count(a.data(), b.data(), n),
                scalar.and_count(a.data(), b.data(), n))
          << KernelTierName(GetParam()) << " diverged at n=" << n
          << " pair=" << i;
    }
  }
}

TEST_P(KernelTierTest, AndCountManyMatchesScalarForEveryOperandCount) {
  const BitKernels& scalar = ScalarKernels();
  Rng rng(103);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                        31u, 32u, 63u, 64u, 65u, 127u, 128u, 129u, 255u,
                        256u, 257u}) {
    const auto streams = PatternStreams(n, rng);
    std::vector<const std::uint64_t*> ops;
    for (const auto& s : streams) ops.push_back(s.data());
    for (std::size_t count = 1; count <= ops.size(); ++count) {
      ASSERT_EQ(kernels_->and_count_many(ops.data(), count, n),
                scalar.and_count_many(ops.data(), count, n))
          << KernelTierName(GetParam()) << " diverged at n=" << n
          << " count=" << count;
    }
  }
}

TEST_P(KernelTierTest, AndIntoMatchesScalarWordForWord) {
  const BitKernels& scalar = ScalarKernels();
  Rng rng(104);
  for (std::size_t n = 0; n <= 257; ++n) {
    const auto streams = PatternStreams(n, rng);
    for (std::size_t i = 0; i + 1 < streams.size(); ++i) {
      std::vector<std::uint64_t> tiered = streams[i];
      std::vector<std::uint64_t> reference = streams[i];
      kernels_->and_into(tiered.data(), streams[i + 1].data(), n);
      scalar.and_into(reference.data(), streams[i + 1].data(), n);
      ASSERT_EQ(tiered, reference)
          << KernelTierName(GetParam()) << " diverged at n=" << n
          << " pair=" << i;
    }
  }
}

// Zero-length streams must not touch the pointers at all: exercised here
// with nulls, which any dereference (or nullptr arithmetic UB caught by
// -fsanitize=undefined) would turn into a crash.
TEST_P(KernelTierTest, ZeroWordsNeverTouchPointers) {
  EXPECT_EQ(kernels_->popcount_words(nullptr, 0), 0u);
  EXPECT_EQ(kernels_->and_count(nullptr, nullptr, 0), 0u);
  const std::uint64_t* ops[1] = {nullptr};
  EXPECT_EQ(kernels_->and_count_many(ops, 1, 0), 0u);
  kernels_->and_into(nullptr, nullptr, 0);
  EXPECT_EQ(kernels_->crc32c_extend(0, nullptr, 0), 0u);
  EXPECT_EQ(kernels_->crc32c_extend(0xDEADBEEFu, nullptr, 0), 0xDEADBEEFu);
}

// Word streams whose last word ends exactly at a page boundary, with a
// PROT_NONE page right after each: the layout of a column section at the
// end of a mapped sketch file. A kernel that touched one byte past a
// stream (a full vector load on the tail, say) would fault here.
class GuardedStreams {
 public:
  explicit GuardedStreams(std::size_t streams)
      : page_(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))),
        streams_(streams) {
    region_ = ::mmap(nullptr, 2 * page_ * streams_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (region_ == MAP_FAILED) {
      region_ = nullptr;
      return;
    }
    for (std::size_t s = 0; s < streams_; ++s) {
      if (::mprotect(Base(s) + page_, page_, PROT_NONE) != 0) {
        ::munmap(region_, 2 * page_ * streams_);
        region_ = nullptr;
        return;
      }
    }
  }
  ~GuardedStreams() {
    if (region_ != nullptr) ::munmap(region_, 2 * page_ * streams_);
  }
  GuardedStreams(const GuardedStreams&) = delete;
  GuardedStreams& operator=(const GuardedStreams&) = delete;

  bool ok() const { return region_ != nullptr; }

  // Stream `s` of n words (n * 8 <= page size), ending at its guard page.
  std::uint64_t* Stream(std::size_t s, std::size_t n) {
    return reinterpret_cast<std::uint64_t*>(Base(s) + page_) - n;
  }

 private:
  char* Base(std::size_t s) {
    return static_cast<char*>(region_) + 2 * page_ * s;
  }

  std::size_t page_;
  std::size_t streams_;
  void* region_ = nullptr;
};

TEST_P(KernelTierTest, StreamsEndingAtAGuardPageMatchScalar) {
  const BitKernels& scalar = ScalarKernels();
  constexpr std::size_t kMaxOperands = 4;
  GuardedStreams guarded(kMaxOperands);
  ASSERT_TRUE(guarded.ok());
  Rng rng(106);
  for (std::size_t n = 1; n <= 24; ++n) {
    const std::uint64_t* ops[kMaxOperands];
    for (std::size_t s = 0; s < kMaxOperands; ++s) {
      std::uint64_t* words = guarded.Stream(s, n);
      // Dense random words, so the AND of four operands is not all zero.
      for (std::size_t i = 0; i < n; ++i) words[i] = rng.Next() | rng.Next();
      ops[s] = words;
    }
    ASSERT_EQ(kernels_->popcount_words(ops[0], n),
              scalar.popcount_words(ops[0], n))
        << KernelTierName(GetParam()) << " n=" << n;
    ASSERT_EQ(kernels_->and_count(ops[0], ops[1], n),
              scalar.and_count(ops[0], ops[1], n))
        << KernelTierName(GetParam()) << " n=" << n;
    for (std::size_t count = 1; count <= kMaxOperands; ++count) {
      ASSERT_EQ(kernels_->and_count_many(ops, count, n),
                scalar.and_count_many(ops, count, n))
          << KernelTierName(GetParam()) << " n=" << n << " count=" << count;
    }
  }
}

std::vector<unsigned char> RandomBytes(std::size_t n, Rng& rng) {
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST_P(KernelTierTest, Crc32cKnownAnswer) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(kernels_->crc32c_extend(0, kCheck, 9), 0xE3069283u);
}

TEST_P(KernelTierTest, Crc32cMatchesScalarOnAllLengthsOffsetsAndSeeds) {
  const BitKernels& scalar = ScalarKernels();
  Rng rng(105);
  const std::vector<unsigned char> bytes = RandomBytes(257 + 7, rng);
  for (std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t n = 0; n <= 257; ++n) {
        const unsigned char* p = bytes.data() + offset;
        ASSERT_EQ(kernels_->crc32c_extend(seed, p, n),
                  scalar.crc32c_extend(seed, p, n))
            << KernelTierName(GetParam()) << " diverged at n=" << n
            << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

// Lengths straddling the hardware tier's three-lane 12 KiB blocks, and
// the 286,800-byte sketch file of the serve_churn benchmark workload.
TEST_P(KernelTierTest, Crc32cMatchesScalarAroundLaneBlocksAndOnFileSizes) {
  const BitKernels& scalar = ScalarKernels();
  Rng rng(106);
  constexpr std::size_t kLane = 4096;
  const std::vector<unsigned char> bytes = RandomBytes(286800 + 3, rng);
  const std::vector<unsigned char> ones(6 * kLane + 7, 0xFF);
  for (std::size_t n : {3 * kLane - 1, 3 * kLane, 3 * kLane + 1,
                        6 * kLane + 7, std::size_t{286800}}) {
    for (std::size_t offset : {0u, 3u}) {
      for (std::uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(kernels_->crc32c_extend(seed, bytes.data() + offset, n),
                  scalar.crc32c_extend(seed, bytes.data() + offset, n))
            << KernelTierName(GetParam()) << " diverged at n=" << n
            << " offset=" << offset << " seed=" << seed;
      }
    }
    if (n <= ones.size()) {
      ASSERT_EQ(kernels_->crc32c_extend(0, ones.data(), n),
                scalar.crc32c_extend(0, ones.data(), n))
          << KernelTierName(GetParam()) << " diverged on 0xFF at n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, KernelTierTest,
                         testing::Values(KernelTier::kScalar,
                                         KernelTier::kAvx2,
                                         KernelTier::kAvx512),
                         [](const auto& info) {
                           return std::string(KernelTierName(info.param));
                         });

// ----------------------------------------------------- BitVector seams

// Restores the tier that was active at entry (NOT the best supported
// one: under the CI IFSKETCH_KERNEL=scalar run the entry tier is the
// scalar pin, and every test after this suite must stay pinned).
class KernelDispatchTest : public testing::Test {
 protected:
  void SetUp() override { entry_tier_ = ActiveKernelTier(); }
  void TearDown() override {
    ASSERT_TRUE(SetKernelTier(entry_tier_));
    util::ThreadPool::SetDefaultThreadCount(0);
  }
  KernelTier entry_tier_ = KernelTier::kScalar;
};

TEST_F(KernelDispatchTest, SupportedTiersAlwaysIncludeScalar) {
  const auto tiers = SupportedKernelTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::kScalar);
  for (KernelTier tier : tiers) {
    EXPECT_NE(KernelsForTier(tier), nullptr);
    EXPECT_TRUE(SetKernelTier(tier));
    EXPECT_EQ(ActiveKernelTier(), tier);
    EXPECT_STREQ(ActiveKernels().name, KernelTierName(tier));
  }
}

TEST_F(KernelDispatchTest, SetKernelTierRejectsUnknownNames) {
  EXPECT_TRUE(SetKernelTier("scalar"));
  EXPECT_FALSE(SetKernelTier("sse9"));
  EXPECT_FALSE(SetKernelTier(""));
  EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
}

TEST_F(KernelDispatchTest, BitVectorOpsIdenticalUnderEveryTier) {
  Rng rng(7001);
  for (std::size_t bits : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 255u,
                           256u, 257u, 1000u, 16384u, 16411u}) {
    const BitVector a = rng.RandomBits(bits);
    const BitVector b = rng.RandomBits(bits);
    const BitVector c = rng.RandomBits(bits);
    ASSERT_TRUE(SetKernelTier(KernelTier::kScalar));
    const std::size_t count = a.Count();
    const std::size_t and_count = a.AndCount(b);
    const std::size_t and_many =
        BitVector::AndCountMany({&a, &b, &c});
    BitVector and_into = a;
    and_into &= b;
    for (KernelTier tier : SupportedKernelTiers()) {
      ASSERT_TRUE(SetKernelTier(tier));
      ASSERT_EQ(a.Count(), count) << KernelTierName(tier) << " " << bits;
      ASSERT_EQ(a.AndCount(b), and_count)
          << KernelTierName(tier) << " " << bits;
      ASSERT_EQ(BitVector::AndCountMany({&a, &b, &c}), and_many)
          << KernelTierName(tier) << " " << bits;
      BitVector tiered = a;
      tiered &= b;
      ASSERT_EQ(tiered, and_into) << KernelTierName(tier) << " " << bits;
    }
  }
}

// Satellite regression: zero-word (0-bit) operands are valid everywhere
// and count as zero; an empty operand *list* stays a contract violation.
TEST_F(KernelDispatchTest, ZeroBitVectorsAreValidOperands) {
  for (KernelTier tier : SupportedKernelTiers()) {
    ASSERT_TRUE(SetKernelTier(tier));
    const BitVector empty_a(0);
    const BitVector empty_b(0);
    EXPECT_EQ(empty_a.Count(), 0u);
    EXPECT_EQ(empty_a.AndCount(empty_b), 0u);
    EXPECT_EQ(BitVector::AndCountMany({&empty_a, &empty_b}), 0u);
    BitVector acc = empty_a;
    acc &= empty_b;
    EXPECT_EQ(acc, empty_a);
  }
}

// A running CRC32C is tier-independent state: util::Crc32cExtend started
// on one tier and finished on another (the dispatch switching between
// the two calls) equals the whole-buffer CRC.
TEST_F(KernelDispatchTest, Crc32cExtendComposesAcrossTiers) {
  Rng rng(7002);
  const std::vector<unsigned char> bytes = RandomBytes(3 * 4096 * 2 + 9, rng);
  const std::uint32_t whole =
      ScalarKernels().crc32c_extend(0, bytes.data(), bytes.size());
  for (KernelTier first : SupportedKernelTiers()) {
    for (KernelTier second : SupportedKernelTiers()) {
      for (std::size_t split : {std::size_t{0}, std::size_t{5},
                                std::size_t{3 * 4096 + 1}, bytes.size()}) {
        ASSERT_TRUE(SetKernelTier(first));
        std::uint32_t crc = Crc32cExtend(0, bytes.data(), split);
        ASSERT_TRUE(SetKernelTier(second));
        crc = Crc32cExtend(crc, bytes.data() + split, bytes.size() - split);
        ASSERT_EQ(crc, whole) << KernelTierName(first) << " then "
                              << KernelTierName(second) << " split=" << split;
      }
    }
  }
}

TEST(KernelContractDeathTest, EmptyOperandListAborts) {
  const std::vector<const BitVector*> none;
  EXPECT_DEATH(BitVector::AndCountMany(none), "");
}

// -------------------------------------- registry-driven query identity

core::SketchParams EstimatorParams() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

class KernelEquivalenceTest : public testing::TestWithParam<const char*> {
 protected:
  // Same entry-tier restore discipline as KernelDispatchTest: an
  // IFSKETCH_KERNEL pin must survive this suite.
  void SetUp() override { entry_tier_ = ActiveKernelTier(); }
  void TearDown() override {
    ASSERT_TRUE(SetKernelTier(entry_tier_));
    util::ThreadPool::SetDefaultThreadCount(0);
  }
  KernelTier entry_tier_ = KernelTier::kScalar;
};

TEST_P(KernelEquivalenceTest, QueriesBitIdenticalAcrossDispatchTiers) {
  util::Rng rng(5001);
  const std::size_t d = 12;
  const core::Database db =
      data::PowerLawBaskets(900, d, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built =
      ifsketch::Engine::Build(db, GetParam(), EstimatorParams(), rng);
  ASSERT_TRUE(built.has_value());
  const ifsketch::Engine& engine = *built;

  std::vector<core::Itemset> queries;
  queries.emplace_back(d);
  for (int i = 0; i < 200; ++i) {
    core::Itemset t(d);
    const std::size_t size = 1 + rng.UniformInt(4);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    }
    queries.push_back(std::move(t));
  }
  mining::AprioriOptions opt;
  opt.min_frequency = 0.08;
  opt.max_size = 4;

  ASSERT_TRUE(SetKernelTier(KernelTier::kScalar));
  std::vector<double> scalar_est;
  engine.estimate_many(queries, &scalar_est);
  std::vector<bool> scalar_bits;
  engine.are_frequent(queries, &scalar_bits);
  const auto scalar_mined = engine.mine(opt);

  for (KernelTier tier : SupportedKernelTiers()) {
    ASSERT_TRUE(SetKernelTier(tier));
    std::vector<double> est;
    engine.estimate_many(queries, &est);
    ASSERT_EQ(est.size(), scalar_est.size());
    for (std::size_t i = 0; i < est.size(); ++i) {
      // Exact double equality: the tiers share one arithmetic pipeline
      // and may only differ in how words are counted.
      ASSERT_EQ(est[i], scalar_est[i])
          << GetParam() << " estimate diverged under "
          << KernelTierName(tier) << " on query " << i;
    }
    std::vector<bool> bits;
    engine.are_frequent(queries, &bits);
    ASSERT_EQ(bits, scalar_bits)
        << GetParam() << " indicator diverged under "
        << KernelTierName(tier);
    const auto mined = engine.mine(opt);
    ASSERT_EQ(mined.size(), scalar_mined.size())
        << GetParam() << " mine diverged under " << KernelTierName(tier);
    for (std::size_t i = 0; i < mined.size(); ++i) {
      ASSERT_EQ(mined[i].itemset, scalar_mined[i].itemset) << i;
      ASSERT_EQ(mined[i].frequency, scalar_mined[i].frequency) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, KernelEquivalenceTest,
                         testing::Values("SUBSAMPLE", "SUBSAMPLE-WOR",
                                         "RELEASE-DB", "IMPORTANCE-SAMPLE",
                                         "MEDIAN-BOOST(SUBSAMPLE)"),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

}  // namespace
}  // namespace ifsketch::util
