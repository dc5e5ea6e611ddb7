#ifndef PXML_CORE_PROBABILISTIC_INSTANCE_H_
#define PXML_CORE_PROBABILISTIC_INSTANCE_H_

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
/// Copyable with a copy-on-write local interpretation: ℘ entries are
/// immutable once installed (the Opf interface is fully const), so a
/// copy shares them by reference and only the per-object pointer arrays
/// and the weak structure are duplicated. SetOpf/SetVpf *replace* the
/// shared pointer — they never mutate the pointee — so copies stay
/// isolated. This is what makes a MutationGuard's private working copy
/// (and the benchmark's "copy the input instance" phase) cheap on large
/// interpretations.
///
/// Versioning (for incremental refreezing, DESIGN.md §8): every mutation
/// that goes through this API bumps a monotone version counter, and each
/// SetOpf/SetVpf additionally stamps the changed object *and all of its
/// potential ancestors* with the new version (per-object dirty tracking —
/// O(depth) per update on a tree). A per-subtree result compiled at
/// version V for object o (a FrozenInstance kernel) is still valid iff
/// SubtreeChangeVersion(o) <= V. Structural edits obtained through the
/// non-const weak() accessor cannot be tracked per object, so they
/// conservatively bump a separate structure_version() that forces a full
/// Freeze.
class ProbabilisticInstance {
 public:
  ProbabilisticInstance() = default;

  ProbabilisticInstance(const ProbabilisticInstance& other);
  ProbabilisticInstance& operator=(const ProbabilisticInstance& other);
  ProbabilisticInstance(ProbabilisticInstance&&) = default;
  ProbabilisticInstance& operator=(ProbabilisticInstance&&) = default;

  /// Non-const structural access: hands out the weak instance for
  /// construction/surgery, so it conservatively marks the structure (and
  /// thus every snapshot compiled from it) dirty.
  WeakInstance& weak() {
    ++version_;
    ++structure_version_;
    return weak_;
  }
  const WeakInstance& weak() const { return weak_; }

  Dictionary& dict() { return weak_.dict(); }
  const Dictionary& dict() const { return weak_.dict(); }

  /// Installs ℘(o) for a non-leaf object. The OPF's support is *not*
  /// validated here (see ValidateProbabilisticInstance).
  Status SetOpf(ObjectId o, std::unique_ptr<Opf> opf);

  /// Installs ℘(o) for a leaf object.
  Status SetVpf(ObjectId o, Vpf vpf);

  /// ℘(o) as an OPF; nullptr if none installed.
  const Opf* GetOpf(ObjectId o) const;
  /// ℘(o) as a VPF; nullptr if none installed.
  const Vpf* GetVpf(ObjectId o) const;

  /// Replaces ℘(o) for a non-leaf (same as SetOpf; reads as an update).
  Status ReplaceOpf(ObjectId o, std::unique_ptr<Opf> opf) {
    return SetOpf(o, std::move(opf));
  }

  /// Total number of OPF rows across all objects (the "number of entries
  /// in a local interpretation" the paper's experiments count).
  std::size_t TotalOpfEntries() const;

  /// Monotone mutation counter: bumped by every SetOpf/SetVpf and every
  /// non-const weak() access. Two equal versions mean "no mutation went
  /// through this API in between".
  std::uint64_t version() const { return version_; }

  /// Bumped whenever the weak structure may have changed (non-const
  /// weak() access). ℘-only updates (SetOpf/SetVpf) leave it untouched.
  std::uint64_t structure_version() const { return structure_version_; }

  /// The version at which ℘ last changed anywhere in the potential
  /// subtree rooted at o (o itself included); 0 if never.
  std::uint64_t SubtreeChangeVersion(ObjectId o) const {
    return o < subtree_change_.size() ? subtree_change_[o] : 0;
  }

  /// Multi-line human-readable rendering.
  std::string ToString() const;

 private:
  WeakInstance weak_;
  // ℘ storage, indexed by ObjectId. Entries are shared-immutable: copies
  // of the instance alias them, and updates swap the pointer.
  std::vector<std::shared_ptr<const Opf>> opfs_;
  std::vector<std::shared_ptr<const Vpf>> vpfs_;

  std::uint64_t version_ = 0;
  std::uint64_t structure_version_ = 0;
  // subtree_change_[o] = version of the latest SetOpf/SetVpf at o or any
  // of its potential descendants (maintained by an ancestor walk on set).
  std::vector<std::uint64_t> subtree_change_;

  void EnsureSize(ObjectId o);
  /// Stamps o and all its potential ancestors with a fresh version.
  void NoteLocalChange(ObjectId o);
};

}  // namespace pxml

#endif  // PXML_CORE_PROBABILISTIC_INSTANCE_H_
