#ifndef PXML_QUERY_FROZEN_H_
#define PXML_QUERY_FROZEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/probabilistic_instance.h"
#include "graph/path.h"
#include "query/epsilon.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pxml {

/// The compiled form of one object's OPF inside a FrozenInstance
/// (DESIGN.md §9). `begin`/`end` index a kind-specific flat array:
/// explicit rows, independent (child, p) entries, or per-label factor
/// blocks. One byte of tag replaces a virtual dispatch + dynamic_cast
/// per evaluation.
enum class FrozenOpfKind : std::uint8_t {
  kLeaf = 0,     ///< no lch entries — never evaluated
  kMissing,      ///< non-leaf without ℘(o): evaluating it is an error
  kExplicit,    ///< packed row spans; ε costs O(2^b · b)
  kIndependent,  ///< (child, p) span; ε costs O(b)
  kPerLabel,     ///< per-label row blocks; ε costs Σ_l 2^{b_l}
};

/// A reusable scratch arena for one ε-propagation / marginalization pass.
/// All buffers keep their capacity between passes, so a warmed-up arena
/// makes re-queries allocation-free; capacity growth is tallied in
/// `bytes_grown` so the zero-allocation claim is counter-verifiable
/// (wall clock is unobservable in a 1-CPU container).
struct EpsilonScratch {
  // ε propagation over the frozen form. (The projection marginalization
  // pass keeps its per-object buffers in per-worker thread-local storage
  // instead — its frontier objects run concurrently on pool workers and
  // need private accumulators.)
  //
  // The hot arrays the vector kernels read (eps, mark) use the 64-byte
  // aligned allocator: vector loads are aligned, and no two pooled
  // arenas — leased to sibling workers — ever share a cache line.
  simd::AlignedVector<double> eps;
  simd::AlignedVector<std::uint8_t> mark;  // pruned-layer membership bitmap
  std::vector<std::vector<ObjectId>> layers;
  std::vector<Status> statuses;

  /// Bytes of heap capacity grown since the last Take (0 once warm).
  std::uint64_t bytes_grown = 0;

  std::uint64_t TakeBytesGrown() {
    std::uint64_t b = bytes_grown;
    bytes_grown = 0;
    return b;
  }

  /// resize-with-accounting: any capacity growth is charged to
  /// `bytes_grown` before the resize happens. The allocator parameter
  /// keeps one template serving both the plain and the 64-byte-aligned
  /// vectors above.
  template <typename T, typename Alloc>
  void SizeTo(std::vector<T, Alloc>& v, std::size_t n) {
    if (v.capacity() < n) {
      bytes_grown += (n - v.capacity()) * sizeof(T);
      v.reserve(n);
    }
    v.resize(n);
  }
  template <typename T, typename Alloc>
  void FillTo(std::vector<T, Alloc>& v, std::size_t n, const T& value) {
    if (v.capacity() < n) {
      bytes_grown += (n - v.capacity()) * sizeof(T);
      v.reserve(n);
    }
    v.assign(n, value);
  }
};

/// A mutex-guarded freelist of scratch arenas, owned by the
/// QueryEngine facade. Acquire() pops a warmed arena (or
/// allocates a cold one on first use); the Lease returns it on
/// destruction, so concurrent queries each get a private arena and
/// steady-state query traffic never allocates scratch.
class EpsilonScratchPool {
 public:
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->Release(std::move(scratch_));
    }

    EpsilonScratch* get() { return scratch_.get(); }
    EpsilonScratch* operator->() { return scratch_.get(); }

   private:
    friend class EpsilonScratchPool;
    Lease(EpsilonScratchPool* pool, std::unique_ptr<EpsilonScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}

    EpsilonScratchPool* pool_;
    std::unique_ptr<EpsilonScratch> scratch_;
  };

  Lease Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<EpsilonScratch> s = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(s));
      }
    }
    return Lease(this, std::make_unique<EpsilonScratch>());
  }

 private:
  void Release(std::unique_ptr<EpsilonScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<EpsilonScratch>> free_;
};

/// An immutable compiled snapshot of a tree-shaped probabilistic
/// instance: the weak structure flattened into CSR-style contiguous
/// child/label arrays (laid out in bottom-up topological order, so a
/// bottom-up pass streams forward through memory), and every OPF
/// compiled into a tagged kernel descriptor — explicit tables as packed
/// row spans, independent OPFs as (child, p) arrays, per-label products
/// as per-label row blocks with their precomputed factor masses. The hot
/// ε/marginalization loops over this form perform no virtual dispatch,
/// no dynamic_cast, and no per-evaluation materialization.
///
/// Snapshot contract: Freeze captures the instance's version() and
/// structure_version(); InSyncWith() is true exactly while no mutation
/// has gone through the instance API since. Consumers must check
/// InSyncWith before trusting the snapshot and fall back to the generic
/// interpreter (or refreeze) when it fails — QueryEngine pairs each
/// published epoch's instance with its frozen form, using Refreeze to
/// carry the clean kernels forward across ℘-only mutations.
///
/// Determinism: the explicit and independent kernels replay the generic
/// interpreter's exact per-object accumulation order, so their ε values
/// are bit-identical to the unfrozen path at every thread count. The
/// per-label kernel uses the factored recurrence
///   ε_o = Π_l mass_l − Π_l S_l,   S_l = Σ_{c_l} P_l(c_l) Π_{j ∈ c_l ∩ R}
///         (1 − ε_j)
/// (cost Σ_l 2^{b_l} instead of the generic Π_l 2^{b_l}); it is equal in
/// exact arithmetic but associates differently, so per-label ε agrees
/// with the generic path to ~1e-12 rather than bit-for-bit.
class FrozenInstance {
 public:
  /// One contiguous run of same-label potential children of an object.
  struct LabelRange {
    LabelId label;
    std::uint32_t begin;  // into child_ids()
    std::uint32_t end;
  };

  /// The per-object kernel tag + span (see FrozenOpfKind).
  struct Kernel {
    FrozenOpfKind kind = FrozenOpfKind::kLeaf;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// One per-label factor block: its rows live in the shared explicit
  /// row arrays; `mass` is the factor's total probability (1 for a
  /// normalized factor), the constant an off-path factor contributes to
  /// the factored recurrence. The fields below `mass` are Freeze-time
  /// lookup tables (ComputeKernelTables) that hoist work the scalar
  /// recurrence redid per evaluation: `excl_mass` is the product of the
  /// *other* factors' masses (ascending factor order), `on_ops` the
  /// row-op count this factor charges when it is the on-path factor,
  /// `bits` its child-universe size b_l, and `vec` whether the vector
  /// backends may use the 2^{b_l} subset-product table for it
  /// (b_l ≤ kMaxVectorBits and every row mapped to a universe mask).
  struct Factor {
    LabelId label;
    std::uint32_t row_begin;
    std::uint32_t row_end;
    double mass;
    double excl_mass = 1.0;
    std::uint64_t on_ops = 0;
    std::uint32_t bits = 0;
    bool vec = false;
    /// True when row r's universe mask is exactly r − row_begin (the
    /// full-subset-enumeration layout of §7.1 workloads): the vector
    /// backends then read the subset table sequentially instead of
    /// through a gather — same documented reduction order, same bits.
    bool dense = false;
  };

  /// Largest per-label child universe the vector backends expand into a
  /// subset-product table (2^bits doubles of per-worker scratch; 12 keeps
  /// the table inside L1). Wider factors fall back to the scalar
  /// reference kernel.
  static constexpr std::uint32_t kMaxVectorBits = 12;

  /// Compiles a snapshot. Requires a tree-shaped weak instance
  /// (kNotATree otherwise — the generic interpreter remains the only
  /// route for DAGs). Missing OPFs freeze as kMissing and only fail if a
  /// query actually evaluates them, mirroring the generic path.
  static Result<FrozenInstance> Freeze(const ProbabilisticInstance& instance);

  /// Incrementally compiles a snapshot of `instance` from a previous
  /// snapshot with the *same weak structure* (kFailedPrecondition if
  /// `instance.structure_version()` moved since `prev` froze — callers
  /// fall back to a full Freeze). The CSR structure arrays are copied
  /// wholesale; an object's kernel is recompiled only if a ℘ update
  /// touched its subtree after `prev` froze
  /// (SubtreeChangeVersion(o) > prev.frozen_version() — the dirty spine,
  /// O(depth) objects for a single-OPF update), and every clean kernel's
  /// row data is bulk-copied with offset fixups. Since the topo order and
  /// the per-object compilation are unchanged, the result is
  /// bit-identical to a full Freeze of `instance`. Reuse/recompile counts
  /// land on pxml.frozen.refreeze_{reused,recompiled}.
  static Result<FrozenInstance> Refreeze(const FrozenInstance& prev,
                                         const ProbabilisticInstance& instance);

  /// The instance versions captured at freeze time.
  std::uint64_t frozen_version() const { return version_; }
  std::uint64_t frozen_structure_version() const { return structure_version_; }

  /// True iff no mutation has gone through `instance`'s API since this
  /// snapshot was frozen (℘ updates bump version(); structural surgery
  /// additionally bumps structure_version()).
  bool InSyncWith(const ProbabilisticInstance& instance) const {
    return instance.version() == version_ &&
           instance.structure_version() == structure_version_;
  }

  /// Builds the pruned path layers K_0..K_n of `path` into
  /// scratch->layers over the frozen CSR structure (each layer
  /// ascending; scratch->mark is used as pruning scratch and left
  /// zeroed). Content-identical to PrunedWeakPathLayers over the weak
  /// instance this snapshot froze — CheckWeakTree at Freeze time
  /// guarantees the tree shape the duplicate-free collect relies on —
  /// but without materializing IdSets, so root-anchored queries can
  /// discover their final-layer targets in O(|K|) instead of paying the
  /// generic union/intersection walk per call. `path.start` must be a
  /// frozen object id.
  void BuildPrunedLayers(const PathExpression& path,
                         EpsilonScratch* scratch) const;

  std::size_t num_ids() const { return kernels_.size(); }
  ObjectId root() const { return root_; }

  /// Objects in bottom-up topological order (every object after all of
  /// its potential descendants) — the layout order of the row arrays.
  const std::vector<ObjectId>& topo_order() const { return topo_order_; }

  const Kernel& kernel(ObjectId o) const { return kernels_[o]; }

  /// The compiled kernel mix as a compact tag, e.g.
  /// "explicit:12,independent:4,per_label:2" (kinds with zero objects are
  /// omitted; leaves/missing are structural, not kernels, and never
  /// listed). This is the `kernel` tag a QueryProfile carries.
  std::string KernelMix() const;

  /// CSR structure: the label ranges of o, ascending by label.
  std::span<const LabelRange> labels_of(ObjectId o) const {
    return {label_ranges_.data() + obj_labels_[o].begin,
            label_ranges_.data() + obj_labels_[o].end};
  }
  /// lch(o, l), ascending; empty span if absent.
  std::span<const ObjectId> children(ObjectId o, LabelId l) const {
    for (const LabelRange& r : labels_of(o)) {
      if (r.label == l) {
        return {child_ids_.data() + r.begin, child_ids_.data() + r.end};
      }
    }
    return {};
  }

  // Explicit rows (also the backing store of per-label factor blocks).
  double row_prob(std::uint32_t r) const { return row_prob_[r]; }
  std::span<const ObjectId> row_children(std::uint32_t r) const {
    return {row_children_.data() + row_child_begin_[r],
            row_children_.data() + row_child_begin_[r + 1]};
  }
  std::size_t num_rows() const { return row_prob_.size(); }
  /// Raw row arrays for the vector kernels (contiguous per factor).
  const double* row_prob_data() const { return row_prob_.data(); }
  const std::uint32_t* row_mask_data() const { return row_mask_.data(); }

  // Independent entries.
  std::span<const ObjectId> ind_children(const Kernel& k) const {
    return {ind_child_.data() + k.begin, ind_child_.data() + k.end};
  }
  std::span<const double> ind_probs(const Kernel& k) const {
    return {ind_prob_.data() + k.begin, ind_prob_.data() + k.end};
  }

  // Per-label factor blocks.
  std::span<const Factor> factors(const Kernel& k) const {
    return {factors_.data() + k.begin, factors_.data() + k.end};
  }

  /// Π_l mass_l of a per-label kernel, multiplied in ascending factor
  /// order at table-build time — the same bits the scalar recurrence's
  /// inline product produces. 1.0 for every other kind.
  double per_label_mass_all(ObjectId o) const {
    return per_label_mass_all_[o];
  }
  /// The bitmask of row r's children over its factor's ascending child
  /// universe (meaningful only for rows of `vec` per-label factors).
  std::uint32_t row_mask(std::uint32_t r) const { return row_mask_[r]; }

 private:
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  FrozenInstance() = default;

  /// Compiles ℘(o) into a kernel appended to fz's row/ind/factor arrays.
  /// `pc_label[c]` must be l + 1 for every declared potential child c of
  /// o under label l (the row-verification oracle), 0 for everything
  /// else; `leaf` says o has no lch entries.
  static Status CompileKernel(FrozenInstance& fz,
                              const ProbabilisticInstance& instance,
                              ObjectId o, bool leaf,
                              const std::vector<std::uint32_t>& pc_label,
                              Kernel& out);

  std::vector<Span> obj_labels_;  // per object, into label_ranges_
  std::vector<LabelRange> label_ranges_;
  std::vector<ObjectId> child_ids_;

  std::vector<Kernel> kernels_;  // indexed by ObjectId

  std::vector<double> row_prob_;
  std::vector<std::uint32_t> row_child_begin_;  // rows + 1
  std::vector<ObjectId> row_children_;

  std::vector<ObjectId> ind_child_;
  std::vector<double> ind_prob_;

  std::vector<Factor> factors_;

  std::vector<ObjectId> topo_order_;
  ObjectId root_ = kInvalidId;
  std::uint64_t version_ = 0;
  std::uint64_t structure_version_ = 0;

  /// ℘-dependent lookup tables (ComputeKernelTables; rebuilt by both
  /// Freeze and Refreeze after kernel compilation).
  std::vector<double> per_label_mass_all_;     // indexed by ObjectId
  std::vector<std::uint32_t> row_mask_;        // parallel to row_prob_

  void ComputeKernelTables();
};

/// The frozen-form ε-propagation pass: semantics of
/// EpsilonPropagator::RootEpsilon evaluated with the compiled kernels
/// and a reusable scratch arena. `frozen` must be in sync with
/// `instance` (the caller — normally EpsilonPropagator — checks).
/// `scratch` must be non-null; `stats` is optional and counts exactly as
/// in the generic pass.
/// A non-null `trace` records the pass as an "epsilon" span with the
/// pass counters attached (dispatch="frozen"). A non-null `control` makes
/// the pass cooperative (deadline/budget/cancellation, util/cancel.h);
/// null costs one branch per per-object evaluation.
Result<double> FrozenRootEpsilon(const FrozenInstance& frozen,
                                 const ProbabilisticInstance& instance,
                                 const PathExpression& path,
                                 std::span<const TargetEps> targets,
                                 const ParallelOptions& parallel,
                                 EpsilonStats* stats, EpsilonScratch* scratch,
                                 obs::TraceSession* trace = nullptr,
                                 QueryControl* control = nullptr);

}  // namespace pxml

#endif  // PXML_QUERY_FROZEN_H_
