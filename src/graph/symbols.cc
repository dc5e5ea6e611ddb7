#include "graph/symbols.h"

#include <algorithm>

#include "util/strings.h"

namespace pxml {

std::uint32_t SymbolTable::Intern(std::string_view name) {
  // One hash probe: insert the next id unless the name is already there.
  auto [it, inserted] = index_.try_emplace(
      std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

std::optional<std::uint32_t> SymbolTable::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Result<TypeId> Dictionary::DefineType(std::string_view name,
                                      std::vector<Value> domain) {
  if (domain.empty()) {
    return Status::InvalidArgument(
        StrCat("type '", name, "' must have a non-empty domain"));
  }
  std::vector<Value> sorted = domain;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument(
        StrCat("type '", name, "' has duplicate domain values"));
  }
  TypeId id = types_.Intern(name);
  if (id >= domains_.size()) domains_.resize(id + 1);
  domains_[id] = std::move(domain);
  return id;
}

bool Dictionary::DomainContains(TypeId t, const Value& v) const {
  if (t >= domains_.size()) return false;
  const std::vector<Value>& dom = domains_[t];
  return std::find(dom.begin(), dom.end(), v) != dom.end();
}

}  // namespace pxml
