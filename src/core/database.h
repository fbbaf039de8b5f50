// Binary databases D in ({0,1}^d)^n.
//
// Rows are packed bit vectors of width d. Itemset frequency f_T(D) is the
// fraction of rows containing T (§1.3). The structural operations
// (horizontal / vertical stacking, row duplication, column extraction) are
// exactly the moves the lower-bound constructions perform on databases.
//
// Storage is one flat word array: row i occupies words [i*W, (i+1)*W),
// W = ceil(d/64), in BitVector layout (bit j of the row in word j/64 at
// position j%64, bits past d zero). A 100k x 64 database is one 800 KB
// block rather than 100k separately allocated rows.
#ifndef IFSKETCH_CORE_DATABASE_H_
#define IFSKETCH_CORE_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/itemset.h"
#include "util/bitvector.h"

namespace ifsketch::core {

/// An n-row, d-column binary database.
class Database {
 public:
  Database() = default;

  /// All-zero database with n rows and d columns.
  Database(std::size_t n, std::size_t d);

  /// Takes ownership of `rows`; all rows must share one width.
  static Database FromRows(std::vector<util::BitVector> rows);

  /// Decodes a row-major bit string (bits.size() / d rows of d bits --
  /// the payload layout of RELEASE-DB and the sample summaries), the row
  /// counterpart of ColumnStore::FromRowMajorBits. Preconditions: d > 0,
  /// bits.size() divisible by d.
  static Database FromRowMajorBits(const util::BitVector& bits, std::size_t d);

  std::size_t num_rows() const { return n_; }
  std::size_t num_columns() const { return d_; }

  /// Row i (the paper's D(i)) as a read-only BitVector::View of the
  /// database's words: no allocation, valid until the database is
  /// destroyed or grows (AppendRow), and mutating it aborts. To own a
  /// row, copy the view as an lvalue:
  ///   const util::BitVector view = db.Row(i);
  ///   util::BitVector owned(view);
  /// Initializing straight from the call (`util::BitVector(db.Row(i))`,
  /// `auto r = db.Row(i)`) elides the copy, and moving a view moves its
  /// view-ness, so those stay views.
  util::BitVector Row(std::size_t i) const {
    return util::BitVector::View(words_.data() + i * stride_, d_);
  }

  /// Entry D(i, j).
  bool Get(std::size_t i, std::size_t j) const {
    return (words_[i * stride_ + (j >> 6)] >> (j & 63)) & 1u;
  }
  void Set(std::size_t i, std::size_t j, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (j & 63);
    std::uint64_t& word = words_[i * stride_ + (j >> 6)];
    word = v ? (word | mask) : (word & ~mask);
  }

  /// Appends a copy of a row of width d (the first row of a database
  /// with no columns sets d). The row may be a view of this database.
  void AppendRow(const util::BitVector& row);

  /// Column j as an n-bit vector.
  util::BitVector Column(std::size_t j) const;

  /// Overwrites column j from an n-bit vector.
  void SetColumn(std::size_t j, const util::BitVector& column);

  /// f_T(D): the fraction of rows containing T. T's universe must equal d.
  /// Returns 0 for an empty database.
  double Frequency(const Itemset& t) const;

  /// The number of rows containing T (the unnormalized count).
  std::size_t SupportCount(const Itemset& t) const;

  /// Horizontal concatenation: rows of `left` and `right` glued side by
  /// side. Preconditions: same n.
  static Database HStack(const Database& left, const Database& right);

  /// Vertical concatenation: all rows of `top` then all rows of `bottom`.
  /// Preconditions: same d.
  static Database VStack(const Database& top, const Database& bottom);

  /// Each row repeated `times` consecutively (the duplication move that
  /// extends Theorem 13 from n = 1/eps to larger n).
  Database DuplicateRows(std::size_t times) const;

  /// The database restricted to columns [begin, begin+len).
  Database SliceColumns(std::size_t begin, std::size_t len) const;

  /// Exact equality of contents.
  friend bool operator==(const Database& a, const Database& b) {
    return a.d_ == b.d_ && a.n_ == b.n_ && a.words_ == b.words_;
  }

  /// Total payload size n*d in bits (what RELEASE-DB costs).
  std::size_t PayloadBits() const { return n_ * d_; }

 private:
  /// An all-zero n x d database (the shared constructor body).
  void Reset(std::size_t n, std::size_t d);

  std::uint64_t* RowWords(std::size_t i) { return words_.data() + i * stride_; }

  std::size_t d_ = 0;
  std::size_t n_ = 0;
  std::size_t stride_ = 0;  // words per row, ceil(d/64)
  std::vector<std::uint64_t> words_;  // n_ * stride_ words
};

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_DATABASE_H_
