#include "core/probabilistic_instance.h"

#include <atomic>
#include <sstream>
#include <utility>

#include "util/strings.h"

namespace pxml {

namespace {

/// Makes `p` the sole owner of its pointee before a write: allocates it
/// if null, clones it if a copy still shares it. A use count of 1 may
/// have been reached by another thread releasing its copy (an epoch
/// reclaimed by a reader); the acquire fence orders this thread's write
/// after that thread's reads.
template <class T>
T& Unshare(std::shared_ptr<T>& p) {
  if (p == nullptr) {
    p = std::make_shared<T>();
  } else if (p.use_count() != 1) {
    p = std::make_shared<T>(*p);
  } else {
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *p;
}

}  // namespace

template <class T>
void ProbabilisticInstance::ChunkedTable<T>::Set(
    ObjectId o, std::shared_ptr<const T> value) {
  const std::size_t c = o / kChunkSize;
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  Unshare(chunks_[c])[o % kChunkSize] = std::move(value);
}

const WeakInstance& ProbabilisticInstance::EmptyWeak() {
  static const WeakInstance empty;
  return empty;
}

WeakInstance& ProbabilisticInstance::MutableWeak() { return Unshare(weak_); }

void ProbabilisticInstance::NoteLocalChange(ObjectId o) {
  ++version_;
  const WeakInstance& weak = std::as_const(*this).weak();
  // Stamp o and every potential ancestor with the new version. On a tree
  // this is one root-ward walk (O(depth)); on a DAG the version guard
  // makes diamond re-visits O(1).
  std::vector<ObjectId> stack{o};
  while (!stack.empty()) {
    ObjectId x = stack.back();
    stack.pop_back();
    if (x >= subtree_change_.size()) subtree_change_.resize(x + 1, 0);
    if (subtree_change_[x] == version_) continue;
    subtree_change_[x] = version_;
    for (ObjectId p : weak.PotentialParents(x)) stack.push_back(p);
  }
}

Status ProbabilisticInstance::SetOpf(ObjectId o, std::unique_ptr<Opf> opf) {
  if (!std::as_const(*this).weak().Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  if (opf == nullptr) {
    return Status::InvalidArgument("OPF must not be null");
  }
  opfs_.Set(o, std::shared_ptr<const Opf>(std::move(opf)));
  NoteLocalChange(o);
  return Status::Ok();
}

Status ProbabilisticInstance::SetVpf(ObjectId o, Vpf vpf) {
  if (!std::as_const(*this).weak().Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  vpfs_.Set(o, std::make_shared<const Vpf>(std::move(vpf)));
  NoteLocalChange(o);
  return Status::Ok();
}

std::size_t ProbabilisticInstance::TotalOpfEntries() const {
  std::size_t n = 0;
  for (const auto& chunk : opfs_.chunks()) {
    if (chunk == nullptr) continue;
    for (const auto& opf : *chunk) {
      if (opf) n += opf->NumEntries();
    }
  }
  return n;
}

std::string ProbabilisticInstance::ToString() const {
  std::ostringstream os;
  os << weak().ToString();
  for (ObjectId o : weak().Objects()) {
    if (const Opf* opf = GetOpf(o)) {
      os << dict().ObjectName(o) << ": " << opf->ToString(dict()) << '\n';
    } else if (const Vpf* vpf = GetVpf(o)) {
      os << dict().ObjectName(o) << ": VPF " << vpf->ToString() << '\n';
    }
  }
  return os.str();
}

}  // namespace pxml
