#ifndef PXML_QUERY_POINT_QUERIES_H_
#define PXML_QUERY_POINT_QUERIES_H_

#include <vector>

#include "algebra/selection_global.h"
#include "core/probabilistic_instance.h"
#include "graph/path.h"
#include "prob/value.h"
#include "query/epsilon.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pxml {

/// Probabilistic point queries (Section 6.2). All efficient variants
/// require a tree-shaped weak instance and run one ε-propagation pass
/// over the path ancestors; the *ViaWorlds variants are the exponential
/// possible-worlds oracles used for testing and for the global-vs-local
/// ablation benchmark.
///
/// Each efficient variant accepts ParallelOptions: with a pool, the
/// ε-propagation pass is partitioned over independent subtrees (see
/// EpsilonPropagator); the default is the serial path and the result is
/// bit-identical either way.
///
/// The free functions are the convenience entry points (and what the
/// QueryEngine facade wraps): `hooks` optionally plugs in the facade's
/// operation counters, frozen snapshot, tracing and serving control; the
/// defaults run the generic interpreter uncounted.

/// Optional observability and dispatch plumbing for one query evaluation.
/// `frozen` + `scratch` (both or neither) route the ε pass through the
/// compiled kernels of an in-sync FrozenInstance snapshot (see
/// query/frozen.h); an out-of-sync snapshot falls back to the generic
/// interpreter.
struct EpsilonHooks {
  EpsilonStats* stats = nullptr;
  const FrozenInstance* frozen = nullptr;
  EpsilonScratch* scratch = nullptr;
  /// Records the ε pass as a trace span when non-null (see obs/trace.h);
  /// null is the zero-cost disabled path.
  obs::TraceSession* trace = nullptr;
  /// Cooperative deadline/budget/cancellation gate for this query. The
  /// pass charges row-ops through it at every per-object evaluation and
  /// stops (with the control's sticky status) within the bounded check
  /// interval documented in util/cancel.h. Null = zero-cost disabled
  /// path: one null-pointer branch per charge site.
  QueryControl* control = nullptr;
};

/// P(o ∈ p): the probability that object o satisfies path expression p in
/// a random compatible world (Def 6.1). Zero if o cannot match p.
Result<double> PointQuery(const ProbabilisticInstance& instance,
                          const PathExpression& path, ObjectId object,
                          const ParallelOptions& parallel = {},
                          const EpsilonHooks& hooks = {});

/// P(∃ o: o ∈ p): some object satisfies p.
Result<double> ExistsQuery(const ProbabilisticInstance& instance,
                           const PathExpression& path,
                           const ParallelOptions& parallel = {},
                           const EpsilonHooks& hooks = {});

/// P(∃ o ∈ p with val(o) = v): some leaf reached by p carries value v.
Result<double> ValueQuery(const ProbabilisticInstance& instance,
                          const PathExpression& path, const Value& value,
                          const ParallelOptions& parallel = {},
                          const EpsilonHooks& hooks = {});

/// P(some object at the end of `condition.path` satisfies the condition)
/// — the ε-propagation point query generalized to every condition kind:
/// object (= PointQuery), value with any comparison operator, and
/// cardinality. This is also the normalization constant of the matching
/// selection (Def 5.6).
Result<double> ConditionProbability(const ProbabilisticInstance& instance,
                                    const SelectionCondition& condition,
                                    const ParallelOptions& parallel = {},
                                    const EpsilonHooks& hooks = {});

/// The probability of a simple object chain r.o_1...o_k (Section 6.2's
/// warm-up): every listed object is a child of its predecessor. The chain
/// must start at the root.
Result<double> ChainProbability(const ProbabilisticInstance& instance,
                                const std::vector<ObjectId>& chain);

/// Oracle versions by world enumeration.
Result<double> ConditionProbabilityViaWorlds(
    const ProbabilisticInstance& instance,
    const SelectionCondition& condition);
Result<double> PointQueryViaWorlds(const ProbabilisticInstance& instance,
                                   const PathExpression& path,
                                   ObjectId object);
Result<double> ExistsQueryViaWorlds(const ProbabilisticInstance& instance,
                                    const PathExpression& path);
Result<double> ValueQueryViaWorlds(const ProbabilisticInstance& instance,
                                   const PathExpression& path,
                                   const Value& value);

}  // namespace pxml

#endif  // PXML_QUERY_POINT_QUERIES_H_
