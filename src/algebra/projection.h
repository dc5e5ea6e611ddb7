#ifndef PXML_ALGEBRA_PROJECTION_H_
#define PXML_ALGEBRA_PROJECTION_H_

#include <cstddef>
#include <cstdint>

#include "core/probabilistic_instance.h"
#include "graph/path.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pxml {

class FrozenInstance;

/// Phase timings and counters for one projection, matching the cost
/// breakdown of the paper's Section 7 experiments.
struct ProjectionStats {
  /// Seconds spent locating the objects satisfying the path expression.
  double locate_seconds = 0.0;
  /// Seconds spent building the projected structure (new weak instance).
  double structure_seconds = 0.0;
  /// Seconds spent in the bottom-up update of the local interpretation ℘
  /// (the quantity plotted in Fig 7(b)).
  double update_seconds = 0.0;
  /// Objects kept in the result.
  std::size_t kept_objects = 0;
  /// OPF rows read while updating ℘ ("entries processed" in §7.2).
  std::size_t processed_entries = 0;
  /// Row visits + per-row child touches in the marginalization pass —
  /// the representation-sensitive work metric (DESIGN.md §9). The
  /// frozen per-label kernel only visits the on-path factor's rows, so
  /// this drops by roughly Π_{off} 2^{b_l} versus the generic pass.
  std::uint64_t opf_row_ops = 0;
  /// OpfEntry rows materialized through the ForEachEntry fallback
  /// (compact representations on the generic path). Zero whenever the
  /// pass ran on frozen kernels or a static ExplicitOpf fast path.
  std::uint64_t entries_materialized = 0;
  /// Bytes of heap growth attributable to the marginalization hot path
  /// (accumulator growth + fallback row materialization).
  /// Zero on warm re-queries over frozen kernels.
  std::uint64_t bytes_allocated = 0;
  /// 1 if the update pass ran on an in-sync FrozenInstance snapshot.
  std::uint64_t frozen_passes = 0;
};

/// Efficient ancestor projection Λ_p on a probabilistic instance
/// (Section 6.1): produces a new probabilistic instance whose possible-
/// worlds distribution equals the global-semantics projection of Def 5.3,
/// computed by one bottom-up pass instead of world enumeration.
///
/// The pass, per the paper:
///   * marginalization — project each OPF row onto the retained children;
///   * ε-computation  — ε_o = P(o still has a child after projection);
///   * normalization  — condition non-root OPFs on having a child
///     (setting ℘'(o)(∅) = 0 and rescaling by ε_o); the root is *not*
///     normalized, so ℘'(r)(∅) is the probability that no object
///     satisfies p;
///   * card update    — tighten card to the support of the new OPF.
///
/// Requires the weak instance graph to be a tree (the paper's stated
/// assumption for the efficient algorithms); returns Unimplemented
/// otherwise — use the global ProjectWorlds oracle for DAGs.
///
/// `frozen` (optional) routes the marginalization pass through the
/// compiled kernels of an in-sync FrozenInstance snapshot (query/frozen.h):
/// explicit tables replay the generic accumulation bit-for-bit from packed
/// row spans; independent OPFs use the closed-form product
/// acc[S] = Π_{c∈S} p_c ε_c · Π_{c∈R\S} (1 − p_c ε_c); per-label products
/// marginalize only the on-path factor's rows and scale by the off-path
/// masses, so compact representations agree with the generic pass to
/// ~1e-12 rather than bit-for-bit. An out-of-sync (or null) snapshot falls
/// back to the generic interpreter.
///
/// A non-null `trace` records the projection's three phases as
/// "locate"/"update"/"structure" spans with their counters attached
/// (obs/trace.h); null is the zero-cost disabled path. Independent of
/// tracing, a successful projection flushes its counters into the
/// `pxml.projection.*` registry metrics.
///
/// A non-null `control` makes the marginalization pass cooperative
/// (deadline/budget/cancellation, util/cancel.h): every per-object
/// update charges its row-ops, so a doomed projection stops within the
/// bounded check interval. Null costs one branch per object update.
Result<ProbabilisticInstance> AncestorProject(
    const ProbabilisticInstance& instance, const PathExpression& path,
    ProjectionStats* stats = nullptr, const FrozenInstance* frozen = nullptr,
    obs::TraceSession* trace = nullptr, QueryControl* control = nullptr);

/// Efficient descendant projection: ancestor projection, plus every
/// target keeps its original subtree (whose local interpretation is
/// unchanged — targets survive with probability 1, so nothing below them
/// needs updating).
Result<ProbabilisticInstance> DescendantProject(
    const ProbabilisticInstance& instance, const PathExpression& path,
    ProjectionStats* stats = nullptr);

/// Efficient single projection: the result keeps only the root and the
/// objects satisfying p, attached directly to the root by p's final
/// label; the root's OPF is the *joint* distribution over which target
/// subsets occur, computed by one bottom-up subset-distribution pass
/// (targets in disjoint subtrees combine by independence; targets under
/// a shared ancestor stay correlated through its OPF).
///
/// The result's OPF has one row per reachable target subset, so the pass
/// is capped at `max_targets` (default 20) potential matches — beyond
/// that, fall back to the worlds oracle (ProjectWorlds, kSingle).
Result<ProbabilisticInstance> SingleProject(
    const ProbabilisticInstance& instance, const PathExpression& path,
    ProjectionStats* stats = nullptr, std::size_t max_targets = 20);

}  // namespace pxml

#endif  // PXML_ALGEBRA_PROJECTION_H_
