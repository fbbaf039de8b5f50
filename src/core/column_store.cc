#include "core/column_store.h"

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/kernels.h"
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
  // pre-pass keeps the hot loop free of per-query validation. Sizes are
  // summed with an inline popcount over the indicator words (one or two
  // for d <= 128), not a kernel dispatch per query.
  std::size_t attrs = 0;
  for (const Itemset& t : ts) {
    IFSKETCH_CHECK_EQ(t.universe(), columns_.size());
    const util::BitVector& indicator = t.indicator();
    const std::uint64_t* words = indicator.data();
    for (std::size_t i = 0; i < indicator.num_words(); ++i) {
      attrs += static_cast<std::size_t>(std::popcount(words[i]));
    }
  }
  return attrs * ((n_ + 63) / 64);
}

namespace {

// Queries of up to this many attributes are counted from a fixed array;
// larger ones fall back to SupportCount.
constexpr std::size_t kLeanAttrs = 16;

// One query's ascending attributes, read straight from its indicator
// words. size > kLeanAttrs marks a query too large for `attr` (only the
// first kLeanAttrs are stored then).
struct QueryAttrs {
  std::size_t size = 0;
  std::array<std::size_t, kLeanAttrs> attr{};

  std::span<const std::size_t> span() const { return {attr.data(), size}; }
};

void ReadAttrs(const Itemset& t, QueryAttrs* out) {
  const util::BitVector& indicator = t.indicator();
  const std::uint64_t* words = indicator.data();
  std::size_t size = 0;
  for (std::size_t wi = 0; wi < indicator.num_words(); ++wi) {
    for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
      if (size == kLeanAttrs) {
        out->size = kLeanAttrs + 1;
        return;
      }
      out->attr[size++] =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
    }
  }
  out->size = size;
}

}  // namespace

void ColumnStore::CountRange(const std::vector<Itemset>& ts,
                             std::size_t first, std::size_t last,
                             std::size_t* counts) const {
  // The kernels run on raw column words: one vtable load per range, and
  // no per-query size checks (BatchWords already checked every universe,
  // and every column is n_ bits).
  const util::BitKernels& kernels = util::ActiveKernels();
  const std::size_t words = (n_ + 63) / 64;
  const auto column = [this](std::size_t j) { return columns_[j].data(); };
  // Chunk-local prefix accumulator: `prefix` is the AND of all but the
  // last attribute of the query in `prefix_attrs` (size 0 = no cached
  // prefix). Chunk boundaries only forgo a reuse opportunity; every
  // path computes the exact same popcount.
  util::BitVector prefix;
  QueryAttrs prefix_attrs;
  QueryAttrs buffers[2];
  QueryAttrs* attrs = &buffers[0];
  QueryAttrs* next_attrs = &buffers[1];
  std::array<const std::uint64_t*, kLeanAttrs> operands;
  if (first < last) ReadAttrs(ts[first], attrs);
  for (std::size_t q = first; q < last; ++q) {
    const bool has_next = q + 1 < last;
    if (has_next) ReadAttrs(ts[q + 1], next_attrs);
    const std::size_t size = attrs->size;
    const std::size_t* a = attrs->attr.data();
    if (size == 0) {
      counts[q] = n_;
    } else if (size == 1) {
      counts[q] = kernels.popcount_words(column(a[0]), words);
    } else if (size == 2) {
      counts[q] = kernels.and_count(column(a[0]), column(a[1]), words);
    } else if (size > kLeanAttrs) {
      counts[q] = SupportCount(ts[q]);
      prefix_attrs.size = 0;
    } else if (SharesAprioriPrefix(prefix_attrs.span(), attrs->span())) {
      // Sibling of the query that built `prefix`: one fused AND-popcount.
      counts[q] = kernels.and_count(prefix.data(), column(a[size - 1]), words);
    } else if (has_next && next_attrs->size == size &&
               SharesAprioriPrefix(attrs->span(), next_attrs->span())) {
      // Head of a sibling run: materialize the prefix once, then this
      // query and each sibling cost one column AND each.
      prefix = columns_[a[0]];
      for (std::size_t i = 1; i + 1 < size; ++i) prefix &= columns_[a[i]];
      prefix_attrs = *attrs;
      counts[q] = kernels.and_count(prefix.data(), column(a[size - 1]), words);
    } else {
      // Isolated query: fused multi-operand kernel, single pass, no
      // accumulator materialized.
      for (std::size_t i = 0; i < size; ++i) operands[i] = column(a[i]);
      counts[q] = kernels.and_count_many(operands.data(), size, words);
      prefix_attrs.size = 0;
    }
    std::swap(attrs, next_attrs);
  }
}

double ColumnStore::Frequency(const Itemset& t) const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(SupportCount(t)) / static_cast<double>(n_);
}

}  // namespace ifsketch::core
