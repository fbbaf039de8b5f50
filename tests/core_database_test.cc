#include "core/database.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ifsketch::core {
namespace {

using util::BitVector;

Database MakeDb(const std::vector<std::string>& rows) {
  std::vector<BitVector> bits;
  for (const auto& r : rows) bits.push_back(BitVector::FromString(r));
  return Database::FromRows(std::move(bits));
}

TEST(DatabaseTest, EmptyDatabase) {
  Database db;
  EXPECT_EQ(db.num_rows(), 0u);
  EXPECT_EQ(db.num_columns(), 0u);
  EXPECT_EQ(db.Frequency(Itemset(0)), 0.0);
}

TEST(DatabaseTest, ZeroInitialized) {
  Database db(3, 5);
  EXPECT_EQ(db.num_rows(), 3u);
  EXPECT_EQ(db.num_columns(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(db.Row(i).Count(), 0u);
  }
}

TEST(DatabaseTest, SetAndGet) {
  Database db(2, 4);
  db.Set(1, 2, true);
  EXPECT_TRUE(db.Get(1, 2));
  EXPECT_FALSE(db.Get(0, 2));
  db.Set(1, 2, false);
  EXPECT_FALSE(db.Get(1, 2));
}

TEST(DatabaseTest, FrequencyExamplesFromDefinition) {
  // Rows containing T = {0, 2}: rows 0 and 2 -> f = 2/4.
  const Database db = MakeDb({"101", "100", "111", "010"});
  EXPECT_DOUBLE_EQ(db.Frequency(Itemset(3, {0, 2})), 0.5);
  EXPECT_DOUBLE_EQ(db.Frequency(Itemset(3, {0})), 0.75);
  EXPECT_DOUBLE_EQ(db.Frequency(Itemset(3, {1})), 0.5);
  EXPECT_DOUBLE_EQ(db.Frequency(Itemset(3, {0, 1, 2})), 0.25);
  EXPECT_DOUBLE_EQ(db.Frequency(Itemset(3)), 1.0);  // empty itemset
}

TEST(DatabaseTest, SupportCount) {
  const Database db = MakeDb({"11", "10", "11", "00"});
  EXPECT_EQ(db.SupportCount(Itemset(2, {0, 1})), 2u);
  EXPECT_EQ(db.SupportCount(Itemset(2, {0})), 3u);
}

TEST(DatabaseTest, AppendRowSetsWidth) {
  Database db;
  db.AppendRow(BitVector::FromString("1010"));
  EXPECT_EQ(db.num_columns(), 4u);
  EXPECT_EQ(db.num_rows(), 1u);
  db.AppendRow(BitVector::FromString("0101"));
  EXPECT_EQ(db.num_rows(), 2u);
}

TEST(DatabaseTest, ColumnExtraction) {
  const Database db = MakeDb({"10", "11", "01"});
  EXPECT_EQ(db.Column(0).ToString(), "110");
  EXPECT_EQ(db.Column(1).ToString(), "011");
}

TEST(DatabaseTest, SetColumnRoundTrip) {
  Database db(3, 2);
  db.SetColumn(1, BitVector::FromString("101"));
  EXPECT_EQ(db.Column(1).ToString(), "101");
  EXPECT_EQ(db.Column(0).ToString(), "000");
}

TEST(DatabaseTest, HStackGluesColumns) {
  const Database left = MakeDb({"10", "01"});
  const Database right = MakeDb({"111", "000"});
  const Database joined = Database::HStack(left, right);
  EXPECT_EQ(joined.num_rows(), 2u);
  EXPECT_EQ(joined.num_columns(), 5u);
  EXPECT_EQ(joined.Row(0).ToString(), "10111");
  EXPECT_EQ(joined.Row(1).ToString(), "01000");
}

TEST(DatabaseTest, VStackGluesRows) {
  const Database top = MakeDb({"10"});
  const Database bottom = MakeDb({"01", "11"});
  const Database joined = Database::VStack(top, bottom);
  EXPECT_EQ(joined.num_rows(), 3u);
  EXPECT_EQ(joined.Row(2).ToString(), "11");
}

TEST(DatabaseTest, DuplicateRowsPreservesFrequencies) {
  const Database db = MakeDb({"10", "11", "00"});
  const Database dup = db.DuplicateRows(5);
  EXPECT_EQ(dup.num_rows(), 15u);
  for (const auto& t :
       {Itemset(2, {0}), Itemset(2, {1}), Itemset(2, {0, 1})}) {
    EXPECT_DOUBLE_EQ(dup.Frequency(t), db.Frequency(t));
  }
}

TEST(DatabaseTest, SliceColumnsKeepsRange) {
  const Database db = MakeDb({"110101", "001011"});
  const Database mid = db.SliceColumns(2, 3);
  EXPECT_EQ(mid.num_columns(), 3u);
  EXPECT_EQ(mid.Row(0).ToString(), "010");
  EXPECT_EQ(mid.Row(1).ToString(), "101");
}

TEST(DatabaseTest, PayloadBits) {
  EXPECT_EQ(Database(7, 11).PayloadBits(), 77u);
}

TEST(DatabaseTest, EqualityIsContentBased) {
  EXPECT_EQ(MakeDb({"10", "01"}), MakeDb({"10", "01"}));
  EXPECT_FALSE(MakeDb({"10"}) == MakeDb({"01"}));
  EXPECT_FALSE(MakeDb({"10"}) == MakeDb({"10", "10"}));
}

// Property: frequency is monotone non-increasing under itemset growth.
TEST(DatabaseTest, FrequencyMonotoneInItemset) {
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Database db(30, 12);
    for (std::size_t i = 0; i < 30; ++i) {
      for (std::size_t j = 0; j < 12; ++j) {
        if (rng.Bernoulli(0.5)) db.Set(i, j, true);
      }
    }
    Itemset t(12);
    double prev = db.Frequency(t);
    for (std::size_t a : rng.SampleWithoutReplacement(12, 5)) {
      t.Add(a);
      const double cur = db.Frequency(t);
      EXPECT_LE(cur, prev + 1e-12);
      prev = cur;
    }
  }
}

// Property: HStack frequencies multiply for independent halves when the
// itemset splits across them... (not true in general; instead check that
// an itemset confined to one half has the same frequency as in that half).
TEST(DatabaseTest, HStackPreservesHalfFrequencies) {
  util::Rng rng(22);
  Database left(20, 6);
  Database right(20, 5);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (rng.Bernoulli(0.4)) left.Set(i, j, true);
    }
    for (std::size_t j = 0; j < 5; ++j) {
      if (rng.Bernoulli(0.4)) right.Set(i, j, true);
    }
  }
  const Database joined = Database::HStack(left, right);
  const Itemset tl(6, {1, 4});
  EXPECT_DOUBLE_EQ(joined.Frequency(tl.ShiftInto(11, 0)),
                   left.Frequency(tl));
  const Itemset tr(5, {0, 3});
  EXPECT_DOUBLE_EQ(joined.Frequency(tr.ShiftInto(11, 6)),
                   right.Frequency(tr));
}

// ---- flat row store: views, self-appends, and the structural moves
// checked against a row-by-row reference built from owning row copies.

std::vector<BitVector> OwnedRows(const Database& db) {
  std::vector<BitVector> rows;
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    const BitVector view = db.Row(i);
    rows.push_back(view);  // copying an lvalue view deep-copies
  }
  return rows;
}

Database RandomDb(std::size_t n, std::size_t d, util::Rng& rng) {
  Database db(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) db.Set(i, j, rng.Bernoulli(0.5));
  }
  return db;
}

// The reference result of a structural move: the rows it must hold, and
// the width FromRows gives them (0 when there are no rows).
void ExpectRows(const Database& got, const std::vector<BitVector>& want,
                std::size_t d) {
  EXPECT_EQ(got.num_rows(), want.size());
  EXPECT_EQ(got.num_columns(), want.empty() ? 0 : d);
  EXPECT_EQ(OwnedRows(got), want);
}

TEST(DatabaseTest, RowIsAReadOnlyView) {
  Database db(3, 70);
  db.Set(1, 69, true);
  const BitVector row = db.Row(1);  // initialized from a prvalue: a view
  EXPECT_TRUE(row.is_view());
  EXPECT_TRUE(row.Get(69));
  EXPECT_EQ(row.Count(), 1u);
  const BitVector owned(row);  // the documented way to own a row
  EXPECT_FALSE(owned.is_view());
  EXPECT_EQ(owned, row);
  db.Set(1, 0, true);  // the view sees writes; the copy does not
  EXPECT_EQ(row.Count(), 2u);
  EXPECT_EQ(owned.Count(), 1u);
}

TEST(DatabaseTest, MutatingARowViewAborts) {
  Database db(2, 8);
  EXPECT_DEATH(db.Row(0).Set(3, true), "");
}

TEST(DatabaseTest, AppendRowOfItsOwnRowSurvivesGrowth) {
  util::Rng rng(41);
  for (const std::size_t d : {1, 64, 65, 130}) {
    SCOPED_TRACE(d);
    Database db = RandomDb(2, d, rng);
    const std::vector<BitVector> original = OwnedRows(db);
    // Each append may reallocate the storage the argument views.
    for (int i = 0; i < 200; ++i) {
      db.AppendRow(db.Row(static_cast<std::size_t>(i) % 2));
    }
    ASSERT_EQ(db.num_rows(), 202u);
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      EXPECT_EQ(db.Row(i), original[i % 2]) << i;
    }
  }
}

TEST(DatabaseTest, StructuralMovesMatchRowByRowReference) {
  util::Rng rng(43);
  for (const std::size_t n : {0, 1, 7}) {
    for (const std::size_t d : {0, 64, 65, 128}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d);
      const Database a = RandomDb(n, d, rng);
      const Database b = RandomDb(n, d, rng);
      const Database c = RandomDb(n, 65, rng);
      const std::vector<BitVector> ra = OwnedRows(a);
      const std::vector<BitVector> rb = OwnedRows(b);
      const std::vector<BitVector> rc = OwnedRows(c);

      // operator== agrees with row-wise equality.
      EXPECT_EQ(a == b, ra == rb);
      if (n > 0) {
        EXPECT_TRUE(a == Database::FromRows(ra));
      }
      if (n > 0 && d > 0) {
        Database flipped = a;
        flipped.Set(n - 1, d - 1, !a.Get(n - 1, d - 1));
        EXPECT_FALSE(flipped == a);
      }
      EXPECT_FALSE(Database(n, d) == Database(n + 1, d));

      std::vector<BitVector> want;
      for (std::size_t i = 0; i < n; ++i) want.push_back(ra[i].Concat(rc[i]));
      ExpectRows(Database::HStack(a, c), want, d + 65);

      want = ra;
      want.insert(want.end(), rb.begin(), rb.end());
      ExpectRows(Database::VStack(a, b), want, d);

      want.clear();
      for (const BitVector& row : ra) {
        for (int t = 0; t < 3; ++t) want.push_back(row);
      }
      ExpectRows(a.DuplicateRows(3), want, d);

      if (d > 0) {
        want.clear();
        for (const BitVector& row : ra) want.push_back(row.Slice(1, d - 1));
        const Database sliced = a.SliceColumns(1, d - 1);
        EXPECT_EQ(sliced.num_columns(), d - 1);  // kept even with no rows
        EXPECT_EQ(OwnedRows(sliced), want);
      }
    }
  }
}

}  // namespace
}  // namespace ifsketch::core
