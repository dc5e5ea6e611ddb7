#ifndef PXML_UTIL_ID_SET_H_
#define PXML_UTIL_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace pxml {

/// A canonical (sorted, duplicate-free) set of 32-bit ids.
///
/// This is the key type for OPF tables: a potential child set c in PC(o)
/// is an IdSet of object ids. Canonical ordering gives deterministic
/// iteration, O(log n) membership, cheap set algebra, and a stable hash so
/// IdSet can key hash maps.
class IdSet {
 public:
  using value_type = std::uint32_t;
  using const_iterator = std::vector<value_type>::const_iterator;

  IdSet() = default;

  /// Builds a set from arbitrary (possibly unsorted / duplicated) ids.
  explicit IdSet(std::vector<value_type> ids);
  IdSet(std::initializer_list<value_type> ids);

  /// The empty set.
  static IdSet Empty() { return IdSet(); }

  bool empty() const { return ids_.empty(); }
  std::size_t size() const { return ids_.size(); }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }

  /// The i-th smallest element.
  value_type operator[](std::size_t i) const { return ids_[i]; }

  bool Contains(value_type id) const;

  /// Inserts `id` in place; false if it was already present. Appending
  /// ids in ascending order costs amortized O(1) each.
  bool Insert(value_type id);
  /// Returns a copy with `id` inserted.
  IdSet With(value_type id) const;
  /// Returns a copy with `id` removed (no-op if absent).
  IdSet Without(value_type id) const;

  IdSet Union(const IdSet& other) const;
  IdSet Intersect(const IdSet& other) const;

  /// Calls `visit(id)` for every id in this ∩ other, ascending, without
  /// materializing the intersection — the allocation-free counterpart of
  /// `for (id : Intersect(other))` for hot loops. Visiting order is
  /// identical to iterating `Intersect(other)`, so replacing one with the
  /// other cannot perturb a floating-point accumulation.
  template <typename Visitor>
  void ForEachIntersecting(const IdSet& other, Visitor&& visit) const {
    auto a = ids_.begin();
    auto b = other.ids_.begin();
    while (a != ids_.end() && b != other.ids_.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        visit(*a);
        ++a;
        ++b;
      }
    }
  }
  /// Elements of this set not in `other`.
  IdSet Difference(const IdSet& other) const;
  /// True iff every element of this set is in `other`.
  bool IsSubsetOf(const IdSet& other) const;

  /// The underlying sorted id vector.
  const std::vector<value_type>& ids() const { return ids_; }

  /// Stable hash (FNV-1a over the sorted elements).
  std::size_t Hash() const;

  /// "{1,5,9}".
  std::string ToString() const;

  friend bool operator==(const IdSet& a, const IdSet& b) {
    return a.ids_ == b.ids_;
  }
  friend bool operator!=(const IdSet& a, const IdSet& b) { return !(a == b); }
  /// Lexicographic order on the sorted contents; gives OPF tables a
  /// deterministic canonical row order.
  friend bool operator<(const IdSet& a, const IdSet& b) {
    return a.ids_ < b.ids_;
  }

 private:
  std::vector<value_type> ids_;
};

/// Hasher so IdSet can key std::unordered_map.
struct IdSetHash {
  std::size_t operator()(const IdSet& s) const { return s.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const IdSet& set);

}  // namespace pxml

#endif  // PXML_UTIL_ID_SET_H_
