#ifndef PXML_QUERY_EPSILON_H_
#define PXML_QUERY_EPSILON_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "core/probabilistic_instance.h"
#include "graph/path.h"
#include "obs/trace.h"
#include "prob/value.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pxml {

/// One query target and its "survival" probability: the chance the target
/// locally satisfies the query given it exists (1.0 for plain existence,
/// the VPF mass of matching values for value queries, the OPF mass of
/// in-range child counts for cardinality conditions).
struct TargetEps {
  ObjectId object = kInvalidId;
  double eps = 0.0;
};

/// Operation counters for ε-propagation passes. `recomputed` is the
/// number of per-object ε evaluations actually performed — the quantity
/// the Fig 7b-style incremental-update experiments assert on (wall clock
/// is unobservable in a 1-CPU container). Atomic because intra-query
/// parallel passes update them from several workers; totals are exact.
struct EpsilonStats {
  std::atomic<std::uint64_t> recomputed{0};
  /// Per-row OPF work: +1 per support row visited during an ε evaluation
  /// plus +1 per child slot of that row (for independent OPFs, +1 per
  /// (child, p) entry; for per-label factors, +1 per factor). The
  /// representation-specialization wins assert on the ratio of this
  /// counter between the generic and frozen paths.
  std::atomic<std::uint64_t> opf_row_ops{0};
  /// Transient OpfEntry rows constructed to serve an evaluation: compact
  /// representations streamed through Opf::ForEachEntry count one per
  /// enumerated row; ExplicitOpf rows iterated in place and frozen
  /// kernels count zero.
  std::atomic<std::uint64_t> entries_materialized{0};
  /// Tracked hot-path heap bytes: scratch-arena capacity growth on the
  /// frozen path (zero once warm) and, on the generic path, the size of
  /// the per-pass ε table, the per-object retained sets and any
  /// materialized transient rows. Not a full malloc audit — a lower
  /// bound that is exactly 0 for a warmed-up frozen re-query.
  std::atomic<std::uint64_t> bytes_allocated{0};
  /// ε passes answered by the frozen kernels (vs the generic interpreter).
  std::atomic<std::uint64_t> frozen_passes{0};
  /// ε passes handled by the generic interpreter (successful or not). A
  /// frozen pass that failed validation before its frozen_passes bump
  /// counts under neither, matching the historical frozen_passes rule.
  std::atomic<std::uint64_t> generic_passes{0};
};

/// Folds a pass-local tally into the caller's stats (if any), mirrors it
/// into the global `pxml.epsilon.*` registry counters, and attaches the
/// counters as args on `span` (a no-op span when tracing is off).
/// Every ε pass — generic or frozen — flushes through here exactly once,
/// which is what makes registry deltas reconcile exactly with the legacy
/// EpsilonStats totals (`bench_frozen_kernels --check`).
void FlushEpsilonPass(const EpsilonStats& tally, EpsilonStats* out,
                      obs::TraceSpan& span, bool frozen);

class FrozenInstance;
struct EpsilonScratch;

/// The ε-propagation engine of Section 6.2. For a tree-shaped
/// probabilistic instance, a path expression p, and per-target "survival"
/// probabilities, it computes bottom-up for every object o on a potential
/// match of p
///
///   ε_o = P(the subtree of o contains a surviving target | o exists)
///       = Σ_c ℘(o)(c) · (1 − Π_{j ∈ c ∩ R(o)} (1 − ε_j))
///
/// (children survive independently in a tree), and returns ε_root.
///
/// With a ThreadPool in `parallel`, wide levels of the bottom-up pass are
/// partitioned across workers: objects in one pruned layer lie in
/// disjoint subtrees, so their ε values depend only on the (already
/// finalized) layer below and each per-object sum stays sequential —
/// the result is bit-identical to the serial pass regardless of
/// scheduling. The final root combine is inherently sequential.
///
/// The propagator is stateless: every pass evaluates every object of the
/// pruned layers once, and nothing survives between passes.
class EpsilonPropagator {
 public:
  /// With a `frozen` snapshot that is in sync with `instance`
  /// (FrozenInstance::InSyncWith), RootEpsilon runs the compiled kernels
  /// over the snapshot with the (required, in that case) `scratch` arena
  /// instead of interpreting OPFs — same results (bit-identical for
  /// explicit/independent OPFs, 1e-12 for per-label products, see
  /// DESIGN.md §9). An out-of-sync snapshot silently falls back to the
  /// generic interpreter, so a stale pointer can cost speed, never
  /// correctness.
  ///
  /// A non-null `trace` records each pass as an "epsilon" span with the
  /// pass's counters attached; null (the default) is the zero-cost
  /// disabled path.
  ///
  /// A non-null `control` makes the pass cooperative: every per-object ε
  /// evaluation charges its row-ops through the control, so a cancelled,
  /// deadline-blown, or over-budget query stops within the bounded check
  /// interval (util/cancel.h) instead of running the pass to completion.
  explicit EpsilonPropagator(const ProbabilisticInstance& instance,
                             ParallelOptions parallel = {},
                             EpsilonStats* stats = nullptr,
                             const FrozenInstance* frozen = nullptr,
                             EpsilonScratch* scratch = nullptr,
                             obs::TraceSession* trace = nullptr,
                             QueryControl* control = nullptr)
      : instance_(instance),
        parallel_(parallel),
        stats_(stats),
        frozen_(frozen),
        scratch_(scratch),
        trace_(trace),
        control_(control) {}

  /// ε_root for the given path with the given target survival
  /// probabilities. Targets must all lie in the path's final pruned
  /// layer; other final-layer objects are treated as non-matching
  /// (ε = 0). Requires a tree-shaped weak instance (kNotATree otherwise);
  /// a target off the path is kBadPath.
  Result<double> RootEpsilon(const PathExpression& path,
                             std::span<const TargetEps> targets) const;

 private:
  /// The generic interpreter pass, counting into `tally` (which the
  /// public wrapper flushes once, at pass end).
  Result<double> RootEpsilonGeneric(const PathExpression& path,
                                    std::span<const TargetEps> targets,
                                    EpsilonStats& tally) const;

  const ProbabilisticInstance& instance_;
  ParallelOptions parallel_;
  EpsilonStats* stats_;
  const FrozenInstance* frozen_;
  EpsilonScratch* scratch_;
  obs::TraceSession* trace_;
  QueryControl* control_;
};

}  // namespace pxml

#endif  // PXML_QUERY_EPSILON_H_
