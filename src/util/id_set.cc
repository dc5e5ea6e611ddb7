#include "util/id_set.h"

#include <algorithm>
#include <sstream>

namespace pxml {

IdSet::IdSet(std::vector<value_type> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

IdSet::IdSet(std::initializer_list<value_type> ids)
    : IdSet(std::vector<value_type>(ids)) {}

bool IdSet::Contains(value_type id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool IdSet::Insert(value_type id) {
  if (ids_.empty() || ids_.back() < id) {
    ids_.push_back(id);
    return true;
  }
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (*it == id) return false;
  ids_.insert(it, id);
  return true;
}

IdSet IdSet::With(value_type id) const {
  if (Contains(id)) return *this;
  IdSet out;
  out.ids_.reserve(ids_.size() + 1);
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  out.ids_.insert(out.ids_.end(), ids_.begin(), it);
  out.ids_.push_back(id);
  out.ids_.insert(out.ids_.end(), it, ids_.end());
  return out;
}

IdSet IdSet::Without(value_type id) const {
  IdSet out;
  out.ids_.reserve(ids_.size());
  for (value_type v : ids_) {
    if (v != id) out.ids_.push_back(v);
  }
  return out;
}

IdSet IdSet::Union(const IdSet& other) const {
  IdSet out;
  out.ids_.reserve(ids_.size() + other.ids_.size());
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

IdSet IdSet::Intersect(const IdSet& other) const {
  IdSet out;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

IdSet IdSet::Difference(const IdSet& other) const {
  IdSet out;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

bool IdSet::IsSubsetOf(const IdSet& other) const {
  return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

std::size_t IdSet::Hash() const {
  // FNV-1a over the element bytes.
  std::size_t h = 1469598103934665603ull;
  for (value_type v : ids_) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string IdSet::ToString() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (i > 0) os << ',';
    os << ids_[i];
  }
  os << '}';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IdSet& set) {
  return os << set.ToString();
}

}  // namespace pxml
