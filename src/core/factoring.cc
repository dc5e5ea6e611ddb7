#include "core/factoring.h"

#include <unordered_map>

#include "core/potential_children.h"
#include "prob/distribution.h"
#include "util/strings.h"

namespace pxml {

Result<ProbabilisticInstance> FactorGlobalInterpretation(
    const WeakInstance& weak, const std::vector<World>& global) {
  ProbabilisticInstance out;
  out.mutable_weak() = weak;

  for (ObjectId o : weak.Objects()) {
    double occur_mass = 0.0;
    if (!weak.IsLeaf(o)) {
      std::unordered_map<IdSet, double, IdSetHash> mass;
      for (const World& w : global) {
        if (!w.instance.Present(o)) continue;
        PXML_RETURN_IF_ERROR(CheckCompatible(weak, w.instance));
        occur_mass += w.prob;
        std::vector<std::uint32_t> kids;
        for (const Edge& e : w.instance.Children(o)) kids.push_back(e.child);
        mass[IdSet(std::move(kids))] += w.prob;
      }
      auto opf = std::make_unique<ExplicitOpf>();
      if (occur_mass > kProbEps) {
        for (const auto& [c, m] : mass) opf->Set(c, m / occur_mass);
      } else {
        // o never occurs: any distribution over PC(o) works; pick a point
        // mass on the canonically-first potential child set.
        PXML_ASSIGN_OR_RETURN(std::vector<IdSet> pc,
                              PotentialChildSets(weak, o));
        if (pc.empty()) {
          return Status::FailedPrecondition(
              StrCat("PC(", weak.dict().ObjectName(o), ") is empty"));
        }
        opf->Set(pc.front(), 1.0);
      }
      PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
    } else if (weak.TypeOf(o).has_value()) {
      Vpf vpf;
      std::unordered_map<Value, double, ValueHash> mass;
      for (const World& w : global) {
        if (!w.instance.Present(o)) continue;
        occur_mass += w.prob;
        auto v = w.instance.ValueOf(o);
        if (!v.has_value()) {
          return Status::FailedPrecondition(
              StrCat("leaf '", weak.dict().ObjectName(o),
                     "' occurs without a value"));
        }
        mass[*v] += w.prob;
      }
      if (occur_mass > kProbEps) {
        for (const auto& [v, m] : mass) vpf.Set(v, m / occur_mass);
      } else {
        vpf.Set(weak.dict().TypeDomain(*weak.TypeOf(o)).front(), 1.0);
      }
      PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
    }
  }
  return out;
}

Result<bool> GlobalSatisfiesWeakInstance(const WeakInstance& weak,
                                         const std::vector<World>& global) {
  PXML_ASSIGN_OR_RETURN(ProbabilisticInstance local,
                        FactorGlobalInterpretation(weak, global));
  for (const World& w : global) {
    PXML_ASSIGN_OR_RETURN(double p, WorldProbability(local, w.instance));
    if (!ProbNear(p, w.prob)) return false;
  }
  return true;
}

}  // namespace pxml
