#include "util/bitio.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace ifsketch::util {
namespace {

TEST(BitIoTest, EmptyWriterYieldsEmptyVector) {
  BitWriter w;
  EXPECT_EQ(w.BitCount(), 0u);
  EXPECT_EQ(w.Finish().size(), 0u);
}

TEST(BitIoTest, SingleBitsRoundTrip) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBit(true);
  const BitVector bits = w.Finish();
  BitReader r2(bits);
  EXPECT_TRUE(r2.ReadBit());
  EXPECT_FALSE(r2.ReadBit());
  EXPECT_TRUE(r2.ReadBit());
  EXPECT_EQ(r2.Remaining(), 0u);
}

TEST(BitIoTest, UintRoundTripVariousWidths) {
  BitWriter w;
  w.WriteUint(0, 1);
  w.WriteUint(1, 1);
  w.WriteUint(5, 3);
  w.WriteUint(1023, 10);
  w.WriteUint(0xdeadbeefcafef00dULL, 64);
  const BitVector bits = w.Finish();
  EXPECT_EQ(bits.size(), 1u + 1 + 3 + 10 + 64);
  BitReader r(bits);
  EXPECT_EQ(r.ReadUint(1), 0u);
  EXPECT_EQ(r.ReadUint(1), 1u);
  EXPECT_EQ(r.ReadUint(3), 5u);
  EXPECT_EQ(r.ReadUint(10), 1023u);
  EXPECT_EQ(r.ReadUint(64), 0xdeadbeefcafef00dULL);
}

TEST(BitIoTest, WriteBitsRoundTrip) {
  Rng rng(3);
  const BitVector payload = rng.RandomBits(137);
  BitWriter w;
  w.WriteUint(42, 7);
  w.WriteBits(payload);
  const BitVector bits = w.Finish();
  BitReader r(bits);
  EXPECT_EQ(r.ReadUint(7), 42u);
  EXPECT_EQ(r.ReadBits(137), payload);
}

TEST(BitIoTest, QuantizedFrequencyWithinResolution) {
  for (const double f : {0.0, 0.1, 0.25, 0.333, 0.5, 0.9, 1.0}) {
    for (const int width : {4, 8, 16, 24}) {
      BitWriter w;
      w.WriteQuantized(f, width);
      const BitVector bits = w.Finish();
      BitReader r(bits);
      const double back = r.ReadQuantized(width);
      const double resolution = 1.0 / ((1ull << width) - 1);
      EXPECT_NEAR(back, f, resolution) << "f=" << f << " width=" << width;
    }
  }
}

TEST(BitIoTest, BitCountTracksWrites) {
  BitWriter w;
  w.WriteBit(true);
  EXPECT_EQ(w.BitCount(), 1u);
  w.WriteUint(0, 13);
  EXPECT_EQ(w.BitCount(), 14u);
  w.WriteQuantized(0.5, 8);
  EXPECT_EQ(w.BitCount(), 22u);
}

TEST(BitIoTest, ReaderPositionAdvances) {
  BitWriter w;
  w.WriteUint(99, 20);
  const BitVector bits = w.Finish();
  BitReader r(bits);
  EXPECT_EQ(r.Position(), 0u);
  r.ReadUint(5);
  EXPECT_EQ(r.Position(), 5u);
  EXPECT_EQ(r.Remaining(), 15u);
}

TEST(BitIoTest, RandomizedMixedRoundTrip) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    BitWriter w;
    std::vector<std::uint64_t> values;
    std::vector<int> widths;
    const int fields = 1 + static_cast<int>(rng.UniformInt(20));
    for (int f = 0; f < fields; ++f) {
      const int width = 1 + static_cast<int>(rng.UniformInt(63));
      const std::uint64_t value =
          rng.Next() & ((width == 64) ? ~0ull : ((1ull << width) - 1));
      w.WriteUint(value, width);
      values.push_back(value);
      widths.push_back(width);
    }
    const BitVector bits = w.Finish();
    BitReader r(bits);
    for (int f = 0; f < fields; ++f) {
      EXPECT_EQ(r.ReadUint(widths[f]), values[f]);
    }
    EXPECT_EQ(r.Remaining(), 0u);
  }
}

// ---- word-level writer/reader against a bit-at-a-time reference.

// The reference packs one bit per step, as the writer once did.
class ReferenceBits {
 public:
  void WriteUint(std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) bits_.push_back((value >> i) & 1u);
  }
  void WriteBits(const BitVector& v) {
    for (std::size_t i = 0; i < v.size(); ++i) bits_.push_back(v.Get(i));
  }
  BitVector Finish() const {
    BitVector out(bits_.size());
    for (std::size_t i = 0; i < bits_.size(); ++i) out.Set(i, bits_[i]);
    return out;
  }

 private:
  std::vector<bool> bits_;
};

std::uint64_t LowBits(std::uint64_t value, int width) {
  return width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
}

TEST(BitIoTest, UintAtEveryOffsetAndWidthMatchesReference) {
  Rng rng(11);
  for (int offset = 0; offset < 64; ++offset) {
    for (int width = 0; width <= 64; ++width) {
      SCOPED_TRACE(testing::Message()
                   << "offset=" << offset << " width=" << width);
      const std::uint64_t prefix = rng.Next();
      const std::uint64_t value = rng.Next();  // high bits must be ignored
      const std::uint64_t suffix = rng.Next();
      BitWriter w;
      ReferenceBits ref;
      w.WriteUint(prefix, offset);
      w.WriteUint(value, width);
      w.WriteUint(suffix, 37);
      ref.WriteUint(prefix, offset);
      ref.WriteUint(value, width);
      ref.WriteUint(suffix, 37);
      ASSERT_EQ(w.BitCount(), static_cast<std::size_t>(offset + width + 37));
      const BitVector bits = w.Finish();
      ASSERT_EQ(bits, ref.Finish());

      BitReader r(bits);
      ASSERT_EQ(r.ReadUint(offset), LowBits(prefix, offset));
      ASSERT_EQ(r.ReadUint(width), LowBits(value, width));
      ASSERT_EQ(r.ReadUint(37), LowBits(suffix, 37));
      ASSERT_EQ(r.Remaining(), 0u);
    }
  }
}

TEST(BitIoTest, BitsOfEveryLengthAtEveryOffsetMatchReference) {
  Rng rng(12);
  for (std::size_t length = 0; length <= 257; ++length) {
    for (int offset = 0; offset < 64; ++offset) {
      SCOPED_TRACE(testing::Message()
                   << "length=" << length << " offset=" << offset);
      const std::uint64_t prefix = rng.Next();
      const BitVector payload = rng.RandomBits(length);
      BitWriter w;
      ReferenceBits ref;
      w.WriteUint(prefix, offset);
      w.WriteBits(payload);
      w.WriteBit(true);  // a trailing field must land after the payload
      ref.WriteUint(prefix, offset);
      ref.WriteBits(payload);
      ref.WriteUint(1, 1);
      const BitVector bits = w.Finish();
      ASSERT_EQ(bits, ref.Finish());

      BitReader r(bits);
      ASSERT_EQ(r.ReadUint(offset), LowBits(prefix, offset));
      const BitVector back = r.ReadBits(length);
      ASSERT_FALSE(back.is_view());
      ASSERT_EQ(back, payload);
      ASSERT_TRUE(r.ReadBit());
      ASSERT_EQ(r.Remaining(), 0u);
    }
  }
}

TEST(BitIoTest, FinishLeavesTheWriterUsable) {
  BitWriter w;
  w.WriteUint(0x2a, 7);
  const BitVector first = w.Finish();
  w.WriteUint(0x1, 1);
  EXPECT_EQ(first.size(), 7u);
  EXPECT_EQ(w.Finish().size(), 8u);
}

TEST(BitIoTest, WidthOver64Aborts) {
  BitWriter w;
  EXPECT_DEATH(w.WriteUint(0, 65), "");
  const BitVector bits(128);
  BitReader r(bits);
  EXPECT_DEATH(r.ReadUint(65), "");
}

TEST(BitIoTest, ReadingOneBitPastTheEndAborts) {
  const BitVector bits(100);
  for (const std::size_t skip : {0, 1, 36, 63, 64, 99, 100}) {
    SCOPED_TRACE(skip);
    BitReader r(bits);
    r.ReadBits(skip);
    const std::size_t left = 100 - skip;
    if (left < 64) {
      EXPECT_DEATH(r.ReadUint(static_cast<int>(left) + 1), "");
    }
    EXPECT_DEATH(r.ReadBits(left + 1), "");
    if (left == 0) {
      EXPECT_DEATH(r.ReadBit(), "");
    }
    EXPECT_EQ(r.ReadBits(left).size(), left);  // exactly the rest is fine
  }
}

}  // namespace
}  // namespace ifsketch::util
