#include "util/bitvector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"

namespace ifsketch::util {
namespace {

TEST(BitVectorTest, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitVectorTest, ConstructedZeroed) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.Count(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVectorTest, SetAndGetAcrossWordBoundaries) {
  BitVector v(200);
  for (std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 199u}) {
    v.Set(i, true);
    EXPECT_TRUE(v.Get(i)) << i;
  }
  EXPECT_EQ(v.Count(), 8u);
  v.Set(64, false);
  EXPECT_FALSE(v.Get(64));
  EXPECT_EQ(v.Count(), 7u);
}

TEST(BitVectorTest, FlipTogglesBit) {
  BitVector v(70);
  v.Flip(69);
  EXPECT_TRUE(v.Get(69));
  v.Flip(69);
  EXPECT_FALSE(v.Get(69));
}

TEST(BitVectorTest, ClearZeroesEverything) {
  BitVector v = BitVector::FromString("11111111");
  v.Clear();
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_EQ(v.size(), 8u);
}

TEST(BitVectorTest, FromStringRoundTrip) {
  const std::string s = "1010011101";
  BitVector v = BitVector::FromString(s);
  EXPECT_EQ(v.ToString(), s);
  EXPECT_EQ(v.Count(), 6u);
}

TEST(BitVectorTest, ContainsSubsetSemantics) {
  const BitVector big = BitVector::FromString("11011");
  EXPECT_TRUE(big.Contains(BitVector::FromString("10010")));
  EXPECT_TRUE(big.Contains(BitVector::FromString("00000")));
  EXPECT_TRUE(big.Contains(big));
  EXPECT_FALSE(big.Contains(BitVector::FromString("00100")));
}

TEST(BitVectorTest, HammingDistance) {
  const BitVector a = BitVector::FromString("110010");
  const BitVector b = BitVector::FromString("011010");
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

TEST(BitVectorTest, AndCountIsIntersectionSize) {
  const BitVector a = BitVector::FromString("11100");
  const BitVector b = BitVector::FromString("01110");
  EXPECT_EQ(a.AndCount(b), 2u);
}

TEST(BitVectorTest, BitwiseOperators) {
  const BitVector a = BitVector::FromString("1100");
  const BitVector b = BitVector::FromString("1010");
  EXPECT_EQ((a & b).ToString(), "1000");
  EXPECT_EQ((a | b).ToString(), "1110");
  EXPECT_EQ((a ^ b).ToString(), "0110");
}

TEST(BitVectorTest, EqualityRequiresSizeAndContent) {
  EXPECT_EQ(BitVector::FromString("101"), BitVector::FromString("101"));
  EXPECT_FALSE(BitVector::FromString("101") == BitVector::FromString("1010"));
  EXPECT_FALSE(BitVector::FromString("101") == BitVector::FromString("100"));
}

TEST(BitVectorTest, ConcatPreservesBothParts) {
  const BitVector a = BitVector::FromString("101");
  const BitVector b = BitVector::FromString("0110");
  EXPECT_EQ(a.Concat(b).ToString(), "1010110");
}

TEST(BitVectorTest, SliceExtractsRange) {
  const BitVector v = BitVector::FromString("110101101");
  EXPECT_EQ(v.Slice(2, 4).ToString(), "0101");
  EXPECT_EQ(v.Slice(0, 9).ToString(), "110101101");
  EXPECT_EQ(v.Slice(8, 1).ToString(), "1");
  EXPECT_EQ(v.Slice(3, 0).size(), 0u);
}

TEST(BitVectorTest, SetBitsListsAscendingIndices) {
  BitVector v(150);
  v.Set(3, true);
  v.Set(64, true);
  v.Set(149, true);
  const std::vector<std::size_t> expected = {3, 64, 149};
  EXPECT_EQ(v.SetBits(), expected);
}

TEST(BitVectorTest, ConcatSliceRoundTripRandom) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t la = rng.UniformInt(100);
    const std::size_t lb = rng.UniformInt(100);
    const BitVector a = rng.RandomBits(la);
    const BitVector b = rng.RandomBits(lb);
    const BitVector joined = a.Concat(b);
    EXPECT_EQ(joined.Slice(0, la), a);
    EXPECT_EQ(joined.Slice(la, lb), b);
  }
}

TEST(BitVectorTest, CountMatchesSetBitsSizeRandom) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector v = rng.RandomBits(1 + rng.UniformInt(300));
    EXPECT_EQ(v.Count(), v.SetBits().size());
  }
}

TEST(BitVectorTest, AndCountManySingleOperandIsCount) {
  Rng rng(17);
  const BitVector v = rng.RandomBits(203);
  const BitVector* ops[1] = {&v};
  EXPECT_EQ(BitVector::AndCountMany(ops, 1), v.Count());
}

TEST(BitVectorTest, AndCountManyFoldEquivalenceRandom) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t bits = rng.UniformInt(300);
    const BitVector a = rng.RandomBits(bits);
    const BitVector b = rng.RandomBits(bits);
    const BitVector c = rng.RandomBits(bits);
    BitVector folded = a;
    folded &= b;
    folded &= c;
    EXPECT_EQ(BitVector::AndCountMany({&a, &b, &c}), folded.Count());
  }
}

// Zero-bit vectors are valid operands everywhere: no kernel may touch
// the (possibly null) word pointer when there are no words.
TEST(BitVectorTest, ZeroBitOperandsAreValid) {
  const BitVector a(0);
  const BitVector b(0);
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_EQ(a.AndCount(b), 0u);
  EXPECT_EQ(BitVector::AndCountMany({&a, &b}), 0u);
  BitVector acc = a;
  acc &= b;
  EXPECT_EQ(acc, a);
}

// An empty operand *list* has no defined AND width; it must abort, not
// read through a null operand array.
TEST(BitVectorDeathTest, AndCountManyEmptyOperandListAborts) {
  const std::vector<const BitVector*> none;
  EXPECT_DEATH(BitVector::AndCountMany(none), "");
}

TEST(BitVectorTest, XorSelfIsZeroRandom) {
  Rng rng(13);
  const BitVector v = rng.RandomBits(257);
  EXPECT_EQ((v ^ v).Count(), 0u);
  EXPECT_EQ(v.HammingDistance(v), 0u);
}

// ---- views: borrowed words must answer every const query exactly like
// an owning vector of the same bits (the zero-copy load path depends on
// this equivalence, at every word count including partial tail words).

TEST(BitVectorViewTest, ViewAnswersLikeOwnedAtEveryLength) {
  Rng rng(99);
  for (const std::size_t bits : {0u, 1u, 63u, 64u, 65u, 128u, 257u, 1000u}) {
    const BitVector owned = rng.RandomBits(bits);
    const BitVector view = BitVector::View(owned.data(), bits);
    ASSERT_TRUE(view.is_view());
    ASSERT_EQ(view.size(), bits);
    EXPECT_EQ(view.Count(), owned.Count());
    EXPECT_EQ(view, owned);
    EXPECT_EQ(owned, view);
    for (std::size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(view.Get(i), owned.Get(i)) << i;
    }
    const BitVector other = rng.RandomBits(bits);
    EXPECT_EQ(view.AndCount(other), owned.AndCount(other));
    EXPECT_EQ(view.HammingDistance(other), owned.HammingDistance(other));
    EXPECT_EQ(view.SetBits(), owned.SetBits());
    const std::vector<const BitVector*> operands = {&view, &other};
    const std::vector<const BitVector*> operands_owned = {&owned, &other};
    EXPECT_EQ(BitVector::AndCountMany(operands),
              BitVector::AndCountMany(operands_owned));
  }
}

TEST(BitVectorViewTest, CopyingAViewMaterializesAnIndependentOwner) {
  Rng rng(7);
  BitVector owned = rng.RandomBits(300);
  const BitVector view = BitVector::View(owned.data(), 300);

  BitVector copy = view;  // deep copy, no longer borrows
  EXPECT_FALSE(copy.is_view());
  EXPECT_EQ(copy, owned);
  EXPECT_NE(copy.data(), view.data());

  // Mutating the copy is legal and leaves the viewed storage untouched.
  const bool bit = copy.Get(5);
  copy.Flip(5);
  EXPECT_EQ(owned.Get(5), bit);

  // Copy-assignment materializes too (the CountRange prefix pattern:
  // `prefix = columns[a]; prefix &= columns[b];` must work when the
  // columns are borrowed views).
  BitVector prefix;
  prefix = view;
  prefix &= owned;
  EXPECT_EQ(prefix, owned);
}

TEST(BitVectorViewTest, MoveKeepsBorrowedWordsAlive) {
  Rng rng(21);
  const BitVector owned = rng.RandomBits(150);
  BitVector view = BitVector::View(owned.data(), 150);
  const BitVector moved = std::move(view);
  EXPECT_TRUE(moved.is_view());
  EXPECT_EQ(moved, owned);
}

TEST(BitVectorViewDeathTest, MutatingAViewAborts) {
  const BitVector owned(128);
  BitVector view = BitVector::View(owned.data(), 128);
  EXPECT_DEATH(view.Set(3, true), "");
  EXPECT_DEATH(view.Flip(3), "");
  EXPECT_DEATH(view.Clear(), "");
  BitVector other(128);
  EXPECT_DEATH(view &= other, "");
}

// ---- storage kinds: an owning vector of at most kInlineWords words
// keeps them in the object, a larger one on the heap. Every copy and
// move between {empty, inline, heap, view} must preserve the bits, leave
// the two objects independent, and keep data() null exactly at size 0.

constexpr std::size_t kStorageSizes[] = {0,   1,   63,  64, 65,
                                         127, 128, 129, 200};

// One source or target of a copy/move: an owning vector, or a view over
// words owned by `backing` (never a BitVector, as in production).
struct Fixture {
  std::vector<std::uint64_t> backing;
  BitVector vec;
  std::string bits;  // what vec holds, for comparisons after a move
};

std::vector<std::unique_ptr<Fixture>> StorageFixtures(Rng& rng) {
  std::vector<std::unique_ptr<Fixture>> out;
  for (const std::size_t size : kStorageSizes) {
    for (const bool view : {false, true}) {
      auto f = std::make_unique<Fixture>();
      const BitVector bits = rng.RandomBits(size);
      if (view) {
        f->backing.assign(bits.data(), bits.data() + bits.num_words());
        f->vec = BitVector::View(f->backing.data(), size);
      } else {
        f->vec = bits;
      }
      f->bits = bits.ToString();
      out.push_back(std::move(f));
    }
  }
  return out;
}

// data() is null exactly when an owning vector is empty, and an inline
// vector's words live inside the object.
void ExpectStorageInvariants(const BitVector& v, const std::string& where) {
  if (v.is_view()) return;
  EXPECT_EQ(v.data() == nullptr, v.size() == 0) << where;
  if (v.size() != 0 && v.num_words() <= BitVector::kInlineWords) {
    const auto object = reinterpret_cast<std::uintptr_t>(&v);
    const auto words = reinterpret_cast<std::uintptr_t>(v.data());
    EXPECT_TRUE(words >= object && words < object + sizeof(BitVector))
        << where << ": inline words outside the object";
  }
}

// Writes to an owning target must never reach the source's storage.
void ExpectIndependent(BitVector& target, const Fixture& source,
                       const std::string& where) {
  if (target.is_view() || target.size() == 0) return;
  target.Flip(0);
  EXPECT_EQ(source.vec.ToString(), source.bits) << where;
  target.Flip(0);
}

TEST(BitVectorStorageTest, CopiesBetweenEveryKindAreIndependentOwners) {
  Rng rng(31);
  auto sources = StorageFixtures(rng);
  for (const auto& source : sources) {
    for (std::size_t t = 0; t < 2 * std::size(kStorageSizes); ++t) {
      const std::string where =
          "source " + std::to_string(source->bits.size()) +
          (source->vec.is_view() ? " view" : " owning") + ", target #" +
          std::to_string(t);
      {
        BitVector copy(source->vec);
        EXPECT_FALSE(copy.is_view()) << where;
        EXPECT_EQ(copy.ToString(), source->bits) << where;
        ExpectStorageInvariants(copy, where);
        ExpectIndependent(copy, *source, where);
      }
      auto targets = StorageFixtures(rng);
      BitVector& target = targets[t]->vec;
      target = source->vec;
      EXPECT_FALSE(target.is_view()) << where;
      EXPECT_EQ(target.ToString(), source->bits) << where;
      EXPECT_EQ(source->vec.ToString(), source->bits) << where;
      ExpectStorageInvariants(target, where);
      ExpectIndependent(target, *source, where);
    }
  }
}

TEST(BitVectorStorageTest, MovesBetweenEveryKindKeepBitsAndEmptyTheSource) {
  Rng rng(32);
  for (std::size_t s = 0; s < 2 * std::size(kStorageSizes); ++s) {
    for (std::size_t t = 0; t < 2 * std::size(kStorageSizes); ++t) {
      for (const bool assign : {false, true}) {
        auto sources = StorageFixtures(rng);
        auto targets = StorageFixtures(rng);
        Fixture& source = *sources[s];
        const bool was_view = source.vec.is_view();
        const std::string where =
            "source #" + std::to_string(s) + ", target #" +
            std::to_string(t) + (assign ? " move-assign" : " move-construct");
        BitVector moved_ctor;
        BitVector* result = &targets[t]->vec;
        if (assign) {
          *result = std::move(source.vec);
        } else {
          moved_ctor = BitVector(std::move(source.vec));
          result = &moved_ctor;
        }
        EXPECT_EQ(result->is_view(), was_view) << where;
        EXPECT_EQ(result->ToString(), source.bits) << where;
        ExpectStorageInvariants(*result, where);
        // The moved-from source is an empty owning vector...
        EXPECT_EQ(source.vec.size(), 0u) << where;
        EXPECT_EQ(source.vec.data(), nullptr) << where;
        EXPECT_FALSE(source.vec.is_view()) << where;
        // ...that is fully usable, and reusing it leaves the result alone
        // (an inline result's words must not point into the source).
        source.vec = BitVector(source.bits.size());
        if (!source.vec.empty()) source.vec.Flip(0);
        EXPECT_EQ(result->ToString(), source.bits) << where;
        if (!result->is_view() && !result->empty()) {
          result->Flip(0);
          EXPECT_EQ(source.vec.Count(), source.bits.empty() ? 0u : 1u)
              << where;
        }
      }
    }
  }
}

TEST(BitVectorStorageTest, SelfAssignmentKeepsEveryKind) {
  Rng rng(33);
  auto fixtures = StorageFixtures(rng);
  for (const auto& f : fixtures) {
    BitVector& v = f->vec;
    const bool view = v.is_view();
    BitVector& alias = v;
    v = alias;
    EXPECT_EQ(v.ToString(), f->bits);
    EXPECT_EQ(v.is_view(), view);
    v = std::move(alias);
    EXPECT_EQ(v.ToString(), f->bits);
    EXPECT_EQ(v.is_view(), view);
    ExpectStorageInvariants(v, f->bits);
  }
}

TEST(BitVectorStorageTest, AdoptWordsMasksStrayTailBitsAtEveryWordCount) {
  for (std::size_t words = 1; words <= 3; ++words) {
    for (const std::size_t tail : {1u, 5u, 63u, 64u}) {
      const std::size_t bits = 64 * (words - 1) + tail;
      std::vector<std::uint64_t> all_ones(words, ~std::uint64_t{0});
      const std::uint64_t* original = all_ones.data();
      const BitVector v = BitVector::AdoptWords(std::move(all_ones), bits);
      EXPECT_EQ(v.size(), bits);
      EXPECT_EQ(v.Count(), bits) << "words=" << words << " tail=" << tail;
      EXPECT_EQ(v.data()[words - 1] >> (tail - 1) >> 1, 0u)
          << "stray tail bits survived: words=" << words;
      // Up to kInlineWords the words are copied in; beyond, adopted.
      EXPECT_EQ(v.data() == original, words > BitVector::kInlineWords);
      ExpectStorageInvariants(v, std::to_string(bits));
      EXPECT_EQ(v, BitVector::FromString(std::string(bits, '1')));
    }
  }
  EXPECT_EQ(BitVector::AdoptWords({}, 0).data(), nullptr);
}

TEST(BitVectorStorageDeathTest, MovedViewsStillRefuseMutation) {
  const std::vector<std::uint64_t> backing = {0x5, 0x6};
  BitVector view = BitVector::View(backing.data(), 100);
  BitVector constructed(std::move(view));
  EXPECT_DEATH(constructed.Set(1, true), "");
  BitVector assigned(64);  // an inline owner, overwritten by the view
  assigned = std::move(constructed);
  ASSERT_TRUE(assigned.is_view());
  EXPECT_DEATH(assigned.Flip(0), "");
  EXPECT_DEATH(assigned.Clear(), "");
  EXPECT_EQ(backing[0], 0x5u);
}

}  // namespace
}  // namespace ifsketch::util
