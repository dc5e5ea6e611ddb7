#include "query/point_queries.h"

#include <algorithm>

#include "algebra/selection_global.h"
#include "core/semantics.h"
#include "query/epsilon.h"
#include "query/frozen.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// True when root-anchored target discovery can run over the frozen CSR
/// layers instead of the generic IdSet union/intersection walk: a
/// synced snapshot plus a scratch to build into, and a path starting at
/// the frozen root (the only start the frozen pass accepts, and always
/// a present object — so the generic walk's UnknownObject validation
/// cannot differ). The layers are content-identical either way
/// (FrozenInstance::BuildPrunedLayers), so answers keep their exact
/// bits; only the per-query discovery cost changes from O(weak lch
/// unions) to O(|K|).
bool UseFrozenLayers(const ProbabilisticInstance& instance,
                     const PathExpression& path, const EpsilonHooks& hooks) {
  return hooks.frozen != nullptr && hooks.scratch != nullptr &&
         hooks.frozen->InSyncWith(instance) &&
         path.start == hooks.frozen->root();
}

}  // namespace

Result<double> PointQuery(const ProbabilisticInstance& instance,
                          const PathExpression& path, ObjectId object,
                          const ParallelOptions& parallel,
                          const EpsilonHooks& hooks) {
  if (UseFrozenLayers(instance, path, hooks)) {
    hooks.frozen->BuildPrunedLayers(path, hooks.scratch);
    const std::vector<ObjectId>& last =
        hooks.scratch->layers[path.labels.size()];
    if (!std::binary_search(last.begin(), last.end(), object)) return 0.0;
  } else {
    PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                          PrunedWeakPathLayers(instance.weak(), path));
    if (!layers.back().Contains(object)) return 0.0;
  }
  EpsilonPropagator prop(instance, parallel, hooks.stats, hooks.frozen,
                         hooks.scratch, hooks.trace, hooks.control);
  const TargetEps target{object, 1.0};
  return prop.RootEpsilon(path, std::span<const TargetEps>(&target, 1));
}

Result<double> ExistsQuery(const ProbabilisticInstance& instance,
                           const PathExpression& path,
                           const ParallelOptions& parallel,
                           const EpsilonHooks& hooks) {
  std::vector<TargetEps> targets;
  if (UseFrozenLayers(instance, path, hooks)) {
    hooks.frozen->BuildPrunedLayers(path, hooks.scratch);
    const std::vector<ObjectId>& last =
        hooks.scratch->layers[path.labels.size()];
    targets.reserve(last.size());
    for (ObjectId o : last) targets.push_back(TargetEps{o, 1.0});
  } else {
    PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                          PrunedWeakPathLayers(instance.weak(), path));
    targets.reserve(layers.back().size());
    for (ObjectId o : layers.back()) targets.push_back(TargetEps{o, 1.0});
  }
  if (targets.empty()) return 0.0;
  EpsilonPropagator prop(instance, parallel, hooks.stats, hooks.frozen,
                         hooks.scratch, hooks.trace, hooks.control);
  return prop.RootEpsilon(path, targets);
}

Result<double> ValueQuery(const ProbabilisticInstance& instance,
                          const PathExpression& path, const Value& value,
                          const ParallelOptions& parallel,
                          const EpsilonHooks& hooks) {
  return ConditionProbability(
      instance, SelectionCondition::ValueEquals(path, value), parallel,
      hooks);
}

Result<double> ConditionProbability(const ProbabilisticInstance& instance,
                                    const SelectionCondition& condition,
                                    const ParallelOptions& parallel,
                                    const EpsilonHooks& hooks) {
  if (condition.kind == SelectionCondition::Kind::kObject) {
    return PointQuery(instance, condition.path, condition.object, parallel,
                      hooks);
  }
  const WeakInstance& weak = instance.weak();
  PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                        PrunedWeakPathLayers(weak, condition.path));
  std::vector<TargetEps> targets;
  for (ObjectId o : layers.back()) {
    // The per-target survival scans below stream VPF entries or the
    // (possibly exponential) OPF support; keep them cooperative too.
    if (hooks.control != nullptr) {
      PXML_RETURN_IF_ERROR(hooks.control->Charge(1));
    }
    // The target's "survival" probability is the chance it satisfies the
    // condition locally, given it exists.
    double e = 0.0;
    if (condition.kind == SelectionCondition::Kind::kValue) {
      if (!weak.IsLeaf(o)) continue;
      const Vpf* vpf = instance.GetVpf(o);
      if (vpf == nullptr) continue;
      for (const Vpf::Entry& entry : vpf->Entries()) {
        if (EvalValueOp(entry.value, condition.value_op, condition.value)) {
          e += entry.prob;
        }
      }
    } else {  // kCardinality
      if (weak.IsLeaf(o)) {
        e = condition.count_range.Contains(0) ? 1.0 : 0.0;
      } else {
        const Opf* opf = instance.GetOpf(o);
        if (opf == nullptr) {
          return Status::FailedPrecondition(
              StrCat("non-leaf '", weak.dict().ObjectName(o),
                     "' has no OPF"));
        }
        const IdSet& lch = weak.Lch(o, condition.count_label);
        Status stream_status;
        std::uint64_t rows = 0;
        opf->ForEachEntry([&](const OpfEntry& row) {
          if (!stream_status.ok()) return;
          std::uint32_t k = 0;
          row.child_set.ForEachIntersecting(lch,
                                            [&](ObjectId) { ++k; });
          if (condition.count_range.Contains(k)) e += row.prob;
          if (hooks.control != nullptr && ++rows % 1024 == 0) {
            stream_status = hooks.control->Charge(1024);
          }
        });
        PXML_RETURN_IF_ERROR(stream_status);
      }
    }
    targets.push_back(TargetEps{o, e});
  }
  if (targets.empty()) return 0.0;
  EpsilonPropagator prop(instance, parallel, hooks.stats, hooks.frozen,
                         hooks.scratch, hooks.trace, hooks.control);
  return prop.RootEpsilon(condition.path, targets);
}

Result<double> ChainProbability(const ProbabilisticInstance& instance,
                                const std::vector<ObjectId>& chain) {
  const WeakInstance& weak = instance.weak();
  if (chain.empty() || chain.front() != weak.root()) {
    return Status::InvalidArgument("chain must start at the root");
  }
  double p = 1.0;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const Opf* opf = instance.GetOpf(chain[i]);
    if (opf == nullptr) {
      return Status::FailedPrecondition(
          StrCat("non-leaf '", weak.dict().ObjectName(chain[i]),
                 "' has no OPF"));
    }
    p *= opf->MarginalChildProb(chain[i + 1]);
    if (p == 0.0) return 0.0;
  }
  return p;
}

Result<double> ConditionProbabilityViaWorlds(
    const ProbabilisticInstance& instance,
    const SelectionCondition& condition) {
  PXML_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(instance));
  double p = 0.0;
  for (const World& w : worlds) {
    PXML_ASSIGN_OR_RETURN(bool sat, InstanceSatisfies(w.instance, condition));
    if (sat) p += w.prob;
  }
  return p;
}

Result<double> PointQueryViaWorlds(const ProbabilisticInstance& instance,
                                   const PathExpression& path,
                                   ObjectId object) {
  return ConditionProbabilityViaWorlds(
      instance, SelectionCondition::ObjectEquals(path, object));
}

Result<double> ExistsQueryViaWorlds(const ProbabilisticInstance& instance,
                                    const PathExpression& path) {
  PXML_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(instance));
  double p = 0.0;
  for (const World& w : worlds) {
    if (!w.instance.Present(path.start)) continue;
    PXML_ASSIGN_OR_RETURN(IdSet reached, EvaluatePath(w.instance, path));
    if (!reached.empty()) p += w.prob;
  }
  return p;
}

Result<double> ValueQueryViaWorlds(const ProbabilisticInstance& instance,
                                   const PathExpression& path,
                                   const Value& value) {
  return ConditionProbabilityViaWorlds(
      instance, SelectionCondition::ValueEquals(path, value));
}

}  // namespace pxml
