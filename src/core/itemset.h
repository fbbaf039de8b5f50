// Itemsets (subsets of the attribute universe [d]).
//
// Following the paper's notation (§1.3), an itemset T ⊆ [d] is used
// interchangeably with its indicator vector in {0,1}^d. A row "contains" T
// when it has a 1 in every column of T.
#ifndef IFSKETCH_CORE_ITEMSET_H_
#define IFSKETCH_CORE_ITEMSET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/bitvector.h"

namespace ifsketch::core {

/// A subset of attributes over a universe of `d` columns.
class Itemset {
 public:
  Itemset() = default;

  /// The empty itemset over universe size d (contained in every row).
  explicit Itemset(std::size_t d) : indicator_(d) {}

  /// Itemset with the given attribute indices set. Indices must be < d.
  Itemset(std::size_t d, const std::vector<std::size_t>& attributes);

  /// Wraps an existing indicator vector.
  static Itemset FromIndicator(util::BitVector indicator);

  /// Universe size d.
  std::size_t universe() const { return indicator_.size(); }

  /// Cardinality |T|.
  std::size_t size() const { return indicator_.Count(); }

  /// Whether attribute i is in the set.
  bool Has(std::size_t i) const { return indicator_.Get(i); }

  /// Adds attribute i.
  void Add(std::size_t i) { indicator_.Set(i, true); }

  /// Ascending attribute indices.
  std::vector<std::size_t> Attributes() const { return indicator_.SetBits(); }

  /// Attributes() into caller scratch, reusing its capacity: the batched
  /// query kernels call this once per query without allocating.
  void AttributesInto(std::vector<std::size_t>* out) const {
    indicator_.SetBitsInto(out);
  }

  /// The indicator vector in {0,1}^d.
  const util::BitVector& indicator() const { return indicator_; }

  /// Set union. Preconditions: same universe.
  Itemset Union(const Itemset& other) const;

  /// This itemset re-embedded into a universe of `new_d` attributes with
  /// every index shifted by `offset` (used by the amplification
  /// constructions, e.g. T'_i = {j + 2d : j in T_i} in Theorem 15).
  Itemset ShiftInto(std::size_t new_d, std::size_t offset) const;

  /// True if the row (a d-bit vector) contains this itemset.
  bool ContainedIn(const util::BitVector& row) const {
    return row.Contains(indicator_);
  }

  friend bool operator==(const Itemset& a, const Itemset& b) {
    return a.indicator_ == b.indicator_;
  }

  /// Rendering like "{2,5,9}/d=16" (debug/test helper).
  std::string ToString() const;

 private:
  util::BitVector indicator_;
};

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_ITEMSET_H_
