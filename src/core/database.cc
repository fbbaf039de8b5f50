#include "core/database.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace ifsketch::core {

Database::Database(std::size_t n, std::size_t d) { Reset(n, d); }

void Database::Reset(std::size_t n, std::size_t d) {
  d_ = d;
  n_ = n;
  stride_ = (d + 63) / 64;
  words_.assign(n * stride_, 0);
}

Database Database::FromRows(std::vector<util::BitVector> rows) {
  Database db;
  db.Reset(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    IFSKETCH_CHECK_EQ(rows[i].size(), db.d_);
    std::copy_n(rows[i].data(), db.stride_, db.RowWords(i));
  }
  return db;
}

void Database::AppendRow(const util::BitVector& row) {
  if (n_ == 0 && d_ == 0) Reset(0, row.size());
  IFSKETCH_CHECK_EQ(row.size(), d_);
  // `row` may view this database's own words (AppendRow(db.Row(i))),
  // which the resize below can move: locate it by offset first.
  const std::uint64_t* src = row.data();
  const std::uint64_t* begin = words_.data();
  const bool own = std::less_equal<>()(begin, src) &&
                   std::less<>()(src, begin + words_.size());
  const std::size_t offset = own ? static_cast<std::size_t>(src - begin) : 0;
  words_.resize(words_.size() + stride_);
  if (own) src = words_.data() + offset;
  std::copy_n(src, stride_, RowWords(n_));
  ++n_;
}

util::BitVector Database::Column(std::size_t j) const {
  IFSKETCH_CHECK_LT(j, d_);
  util::BitVector col(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (Get(i, j)) col.Set(i, true);
  }
  return col;
}

void Database::SetColumn(std::size_t j, const util::BitVector& column) {
  IFSKETCH_CHECK_LT(j, d_);
  IFSKETCH_CHECK_EQ(column.size(), n_);
  for (std::size_t i = 0; i < n_; ++i) Set(i, j, column.Get(i));
}

double Database::Frequency(const Itemset& t) const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(SupportCount(t)) / static_cast<double>(n_);
}

std::size_t Database::SupportCount(const Itemset& t) const {
  IFSKETCH_CHECK_EQ(t.universe(), d_);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (t.ContainedIn(Row(i))) ++count;
  }
  return count;
}

// The structural moves below build their result row by row through
// AppendRow, so a result with no rows has d = 0 (as FromRows of an empty
// row list does), except SliceColumns, which keeps d = len.

Database Database::HStack(const Database& left, const Database& right) {
  IFSKETCH_CHECK_EQ(left.num_rows(), right.num_rows());
  Database db;
  for (std::size_t i = 0; i < left.num_rows(); ++i) {
    db.AppendRow(left.Row(i).Concat(right.Row(i)));
  }
  return db;
}

Database Database::VStack(const Database& top, const Database& bottom) {
  IFSKETCH_CHECK_EQ(top.num_columns(), bottom.num_columns());
  Database db;
  for (std::size_t i = 0; i < top.num_rows(); ++i) db.AppendRow(top.Row(i));
  for (std::size_t i = 0; i < bottom.num_rows(); ++i) {
    db.AppendRow(bottom.Row(i));
  }
  return db;
}

Database Database::DuplicateRows(std::size_t times) const {
  IFSKETCH_CHECK_GT(times, 0u);
  Database db;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t t = 0; t < times; ++t) db.AppendRow(Row(i));
  }
  return db;
}

Database Database::SliceColumns(std::size_t begin, std::size_t len) const {
  Database db;
  if (n_ == 0) db.Reset(0, len);
  for (std::size_t i = 0; i < n_; ++i) db.AppendRow(Row(i).Slice(begin, len));
  return db;
}

}  // namespace ifsketch::core
