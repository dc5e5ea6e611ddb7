#ifndef PXML_CORE_PROBABILISTIC_INSTANCE_H_
#define PXML_CORE_PROBABILISTIC_INSTANCE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/weak_instance.h"
#include "prob/opf.h"
#include "prob/vpf.h"
#include "util/status.h"

namespace pxml {

/// A probabilistic instance I = (V, lch, tau, val, card, ℘) (Def 3.11):
/// a weak instance plus a local interpretation ℘ assigning every non-leaf
/// object an OPF over PC(o) and every leaf object a VPF over dom(tau(o)).
///
/// Copies share structure instead of duplicating it. The weak instance W
/// (with its dictionary) is held by a shared_ptr, and ℘ by two tables of
/// fixed kChunkSize-slot chunks of shared_ptrs to immutable OPF/VPF
/// entries. Copying an instance therefore costs one pointer for W, one
/// per chunk of each table, and the flat per-object version vector.
/// Writes are copy-on-write: mutable_weak() and mutable_dict() clone W,
/// and SetOpf/SetVpf clone the one chunk they write, but only while a
/// copy still shares it, so copies stay isolated. A MutationGuard's
/// working copy and an algebra result that rewrites a few OPFs (Select)
/// share everything else with their input. Reads go through the const
/// weak()/dict(), which never clone and never bump a version, whatever
/// the constness of the instance.
///
/// Sharing adds one rule: a WeakInstance& or Dictionary& from
/// mutable_weak()/mutable_dict() must not be used after the instance is
/// copied, because it would write through to the copy. Take a fresh
/// reference after the copy instead. (Conversely, a const reference
/// taken before a mutable access that clones W keeps reading the W the
/// copies share.) A moved-from instance is a valid, empty instance.
///
/// Versioning (for incremental refreezing, DESIGN.md §8): every mutation
/// that goes through this API bumps a monotone version counter, and each
/// SetOpf/SetVpf additionally stamps the changed object *and all of its
/// potential ancestors* with the new version (per-object dirty tracking —
/// O(depth) per update on a tree). A per-subtree result compiled at
/// version V for object o (a FrozenInstance kernel) is still valid iff
/// SubtreeChangeVersion(o) <= V. Structural edits obtained through
/// mutable_weak() cannot be tracked per object, so they conservatively
/// bump a separate structure_version() that forces a full Freeze.
class ProbabilisticInstance {
 public:
  /// Slots per shared ℘ chunk: a copy costs one pointer per chunk, a
  /// first write to a shared chunk copies its slots.
  static constexpr std::size_t kChunkSize = 512;

  /// Structural access for construction and surgery: clones W first if
  /// a copy still shares it, and conservatively marks the structure (and
  /// thus every snapshot compiled from it) dirty.
  WeakInstance& mutable_weak() {
    ++version_;
    ++structure_version_;
    return MutableWeak();
  }
  const WeakInstance& weak() const {
    return weak_ != nullptr ? *weak_ : EmptyWeak();
  }

  /// Clones W first if a copy still shares it; bumps no version.
  Dictionary& mutable_dict() { return MutableWeak().dict(); }
  const Dictionary& dict() const { return weak().dict(); }

  /// Installs ℘(o) for a non-leaf object. The OPF's support is *not*
  /// validated here (see ValidateProbabilisticInstance).
  Status SetOpf(ObjectId o, std::unique_ptr<Opf> opf);

  /// Installs ℘(o) for a leaf object.
  Status SetVpf(ObjectId o, Vpf vpf);

  /// ℘(o) as an OPF; nullptr if none installed.
  const Opf* GetOpf(ObjectId o) const { return opfs_.Get(o); }
  /// ℘(o) as a VPF; nullptr if none installed.
  const Vpf* GetVpf(ObjectId o) const { return vpfs_.Get(o); }

  /// Replaces ℘(o) for a non-leaf (same as SetOpf; reads as an update).
  Status ReplaceOpf(ObjectId o, std::unique_ptr<Opf> opf) {
    return SetOpf(o, std::move(opf));
  }

  /// Total number of OPF rows across all objects (the "number of entries
  /// in a local interpretation" the paper's experiments count).
  std::size_t TotalOpfEntries() const;

  /// Monotone mutation counter: bumped by every SetOpf/SetVpf and every
  /// mutable_weak() access. Two equal versions mean "no mutation went
  /// through this API in between".
  std::uint64_t version() const { return version_; }

  /// Bumped whenever the weak structure may have changed (a
  /// mutable_weak() access). ℘-only updates (SetOpf/SetVpf) leave it
  /// untouched.
  std::uint64_t structure_version() const { return structure_version_; }

  /// The version at which ℘ last changed anywhere in the potential
  /// subtree rooted at o (o itself included); 0 if never.
  std::uint64_t SubtreeChangeVersion(ObjectId o) const {
    return o < subtree_change_.size() ? subtree_change_[o] : 0;
  }

  /// Multi-line human-readable rendering.
  std::string ToString() const;

 private:
  /// A per-object table of shared immutable entries, split into chunks
  /// that copies of the table share.
  template <class T>
  class ChunkedTable {
   public:
    using Chunk = std::array<std::shared_ptr<const T>, kChunkSize>;

    const T* Get(ObjectId o) const {
      const std::size_t c = o / kChunkSize;
      if (c >= chunks_.size() || chunks_[c] == nullptr) return nullptr;
      return (*chunks_[c])[o % kChunkSize].get();
    }
    /// Replaces slot o, cloning its chunk first if a copy shares it.
    void Set(ObjectId o, std::shared_ptr<const T> value);
    const std::vector<std::shared_ptr<Chunk>>& chunks() const {
      return chunks_;
    }

   private:
    std::vector<std::shared_ptr<Chunk>> chunks_;  // null: all slots empty
  };

  /// The weak instance every default-constructed or moved-from instance
  /// reads through.
  static const WeakInstance& EmptyWeak();
  /// W, made sole-owned (allocated or cloned) before a write.
  WeakInstance& MutableWeak();
  /// Stamps o and all its potential ancestors with a fresh version.
  void NoteLocalChange(ObjectId o);

  std::shared_ptr<WeakInstance> weak_;  // null: the empty weak instance
  ChunkedTable<Opf> opfs_;
  ChunkedTable<Vpf> vpfs_;

  std::uint64_t version_ = 0;
  std::uint64_t structure_version_ = 0;
  // subtree_change_[o] = version of the latest SetOpf/SetVpf at o or any
  // of its potential descendants (maintained by an ancestor walk on set).
  std::vector<std::uint64_t> subtree_change_;
};

}  // namespace pxml

#endif  // PXML_CORE_PROBABILISTIC_INSTANCE_H_
