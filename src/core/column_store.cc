#include "core/column_store.h"

#include <bit>
#include <cstdint>

#include "util/check.h"
#include "util/thread_pool.h"

namespace ifsketch::core {

std::size_t FanOutGrain(std::size_t queries, std::size_t words) {
  if (words < 2 * kFanOutChunkWords) return queries;
  // ceil(queries * kFanOutChunkWords / words); words >= 2 chunks keeps
  // the quotient below queries / 2.
  return (queries * kFanOutChunkWords + words - 1) / words;
}

ColumnStore::ColumnStore(const Database& db) : n_(db.num_rows()) {
  columns_.assign(db.num_columns(), util::BitVector(n_));
  // One pass over the row words; each set bit scatters into its column.
  for (std::size_t i = 0; i < n_; ++i) {
    const util::BitVector& row = db.Row(i);
    const std::uint64_t* words = row.data();
    for (std::size_t wi = 0; wi < row.num_words(); ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const std::size_t j =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
        columns_[j].Set(i, true);
        w &= w - 1;
      }
    }
  }
}

ColumnStore::ColumnStore(std::size_t n, std::vector<util::BitVector> columns)
    : n_(n), columns_(std::move(columns)) {
  for (const auto& c : columns_) {
    IFSKETCH_CHECK_EQ(c.size(), n_);
  }
}

ColumnStore ColumnStore::FromColumnWords(const std::uint64_t* base,
                                         std::size_t rows, std::size_t d,
                                         std::size_t stride_words) {
  IFSKETCH_CHECK_GE(stride_words, (rows + 63) / 64);
  std::vector<util::BitVector> columns;
  columns.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    columns.push_back(util::BitVector::View(base + j * stride_words, rows));
  }
  return ColumnStore(rows, std::move(columns));
}

ColumnStore ColumnStore::FromRowMajorBits(const util::BitVector& bits,
                                          std::size_t d) {
  IFSKETCH_CHECK_GT(d, 0u);
  IFSKETCH_CHECK_EQ(bits.size() % d, 0u);
  const std::size_t n = bits.size() / d;
  std::vector<util::BitVector> columns(d, util::BitVector(n));
  const std::uint64_t* words = bits.data();
  for (std::size_t wi = 0; wi < bits.num_words(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const std::size_t bit =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      columns[bit % d].Set(bit / d, true);
      w &= w - 1;
    }
  }
  return ColumnStore(n, std::move(columns));
}

std::size_t ColumnStore::SupportCount(const Itemset& t) const {
  IFSKETCH_CHECK_EQ(t.universe(), columns_.size());
  const auto attrs = t.Attributes();
  if (attrs.empty()) return n_;
  if (attrs.size() == 1) return columns_[attrs[0]].Count();
  std::vector<const util::BitVector*> operands;
  operands.reserve(attrs.size());
  for (std::size_t a : attrs) operands.push_back(&columns_[a]);
  return util::BitVector::AndCountMany(operands);
}

void ColumnStore::SupportCounts(const std::vector<Itemset>& ts,
                                std::vector<std::size_t>* counts) const {
  counts->resize(ts.size());
  std::size_t* out = counts->data();
  util::ThreadPool::Default().ParallelFor(
      0, ts.size(), FanOutGrain(ts.size(), BatchWords(ts)),
      [this, &ts, out](std::size_t first, std::size_t last) {
        CountRange(ts, first, last, out);
      });
}

std::size_t ColumnStore::BatchWords(const std::vector<Itemset>& ts) const {
  // Universe checks hoisted out of the counting kernel: one cheap
  // pre-pass keeps the hot loop free of per-query validation.
  std::size_t attrs = 0;
  for (const Itemset& t : ts) {
    IFSKETCH_CHECK_EQ(t.universe(), columns_.size());
    attrs += t.size();
  }
  return attrs * ((n_ + 63) / 64);
}

void ColumnStore::CountRange(const std::vector<Itemset>& ts,
                             std::size_t first, std::size_t last,
                             std::size_t* counts) const {
  // Chunk-local prefix accumulator: `prefix` is the AND of all but the
  // last attribute of the query in `prefix_attrs` (empty = no cached
  // prefix). Chunk boundaries only forgo a reuse opportunity; every
  // path computes the exact same popcount.
  util::BitVector prefix;
  std::vector<std::size_t> prefix_attrs;
  std::vector<const util::BitVector*> operands;
  std::vector<std::size_t> attrs;
  std::vector<std::size_t> next_attrs;
  if (first < last) ts[first].AttributesInto(&attrs);
  for (std::size_t q = first; q < last; ++q) {
    const bool has_next = q + 1 < last;
    if (has_next) ts[q + 1].AttributesInto(&next_attrs);
    if (attrs.empty()) {
      counts[q] = n_;
    } else if (attrs.size() == 1) {
      counts[q] = columns_[attrs[0]].Count();
    } else if (attrs.size() == 2) {
      counts[q] = columns_[attrs[0]].AndCount(columns_[attrs[1]]);
    } else if (SharesAprioriPrefix(prefix_attrs, attrs)) {
      // Sibling of the query that built `prefix`: one fused AND-popcount.
      counts[q] = prefix.AndCount(columns_[attrs.back()]);
    } else if (has_next && SharesAprioriPrefix(attrs, next_attrs)) {
      // Head of a sibling run: materialize the prefix once, then this
      // query and each sibling cost one column AND each.
      prefix = columns_[attrs[0]];
      for (std::size_t i = 1; i + 1 < attrs.size(); ++i) {
        prefix &= columns_[attrs[i]];
      }
      prefix_attrs = attrs;
      counts[q] = prefix.AndCount(columns_[attrs.back()]);
    } else {
      // Isolated query: fused multi-operand kernel, single pass, no
      // accumulator materialized.
      operands.clear();
      for (std::size_t a : attrs) operands.push_back(&columns_[a]);
      counts[q] = util::BitVector::AndCountMany(operands);
      prefix_attrs.clear();
    }
    attrs.swap(next_attrs);
  }
}

double ColumnStore::Frequency(const Itemset& t) const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(SupportCount(t)) / static_cast<double>(n_);
}

}  // namespace ifsketch::core
