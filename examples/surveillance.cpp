// The Section-3.2 scene-analysis example: an object-recognition system
// watches a scene that may contain a bridge and vehicles it cannot tell
// apart, so the OPF is *symmetric* in the vehicles — a distribution no
// per-child-independence model (ProTDB) can express, but PXML states
// directly.
//
// Run:  ./surveillance
#include <cstdio>
#include <memory>

#include "algebra/selection.h"
#include "bayes/network.h"
#include "core/probabilistic_instance.h"
#include "core/semantics.h"
#include "core/validation.h"
#include "query/point_queries.h"

namespace {

using namespace pxml;  // NOLINT — example brevity

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).ValueOrDie();
}

}  // namespace

int main() {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  Dictionary& dict = weak.dict();

  ObjectId scene = weak.AddObject("S1");
  ObjectId bridge = weak.AddObject("bridge1");
  ObjectId v1 = weak.AddObject("vehicle1");
  ObjectId v2 = weak.AddObject("vehicle2");
  ObjectId kind1 = weak.AddObject("kind1");
  Check(weak.SetRoot(scene));
  LabelId object = dict.InternLabel("object");
  LabelId kind = dict.InternLabel("kind");
  Check(weak.AddPotentialChild(scene, object, bridge));
  Check(weak.AddPotentialChild(scene, object, v1));
  Check(weak.AddPotentialChild(scene, object, v2));
  Check(weak.AddPotentialChild(v1, kind, kind1));
  Check(weak.SetCard(v1, kind, IntInterval(1, 1)));

  // The recognizer is 60% sure it saw "bridge plus exactly one vehicle",
  // and cannot distinguish the vehicles: the two single-vehicle scenes
  // get *equal* probability (the paper's indistinguishability example).
  auto opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{bridge, v1}, 0.3);
  opf->Set(IdSet{bridge, v2}, 0.3);
  opf->Set(IdSet{bridge, v1, v2}, 0.2);
  opf->Set(IdSet{bridge}, 0.1);
  opf->Set(IdSet(), 0.1);
  Check(inst.SetOpf(scene, std::move(opf)));

  auto kind_opf = std::make_unique<ExplicitOpf>();
  kind_opf->Set(IdSet{kind1}, 1.0);
  Check(inst.SetOpf(v1, std::move(kind_opf)));

  TypeId kind_type = Unwrap(
      dict.DefineType("vehicle-kind", {Value("truck"), Value("tank")}));
  Check(weak.SetLeafType(kind1, kind_type));
  Vpf vpf;
  vpf.Set(Value("truck"), 0.7);
  vpf.Set(Value("tank"), 0.3);
  Check(inst.SetVpf(kind1, std::move(vpf)));

  Check(ValidateProbabilisticInstance(inst));
  std::printf("scene model: %zu objects\n", weak.num_objects());
  std::printf("symmetric OPF: P({bridge1,vehicle1}) = P({bridge1,vehicle2})"
              " = 0.3\n\n");

  // Queries via epsilon propagation (the weak instance is a tree).
  PathExpression objects_path;
  objects_path.start = scene;
  objects_path.labels = {object};
  std::printf("P(bridge in scene)   = %.3f\n",
              Unwrap(PointQuery(inst, objects_path, bridge)));
  std::printf("P(vehicle1 in scene) = %.3f\n",
              Unwrap(PointQuery(inst, objects_path, v1)));
  std::printf("P(some object)       = %.3f\n",
              Unwrap(ExistsQuery(inst, objects_path)));

  PathExpression kind_path;
  kind_path.start = scene;
  kind_path.labels = {object, kind};
  std::printf("P(vehicle1 is a tank)= %.3f\n",
              Unwrap(ValueQuery(inst, kind_path, Value("tank"))));

  // Bayesian-network route: joint events the tree pass cannot answer in
  // one sweep.
  BayesNet net = Unwrap(BayesNet::Compile(inst));
  std::printf("P(both vehicles)     = %.3f  (BN joint query)\n",
              Unwrap(net.ProbAllPresent({v1, v2})));

  // Conditioning: an analyst confirms vehicle1 is in the scene.
  SelectionCondition confirmed =
      SelectionCondition::ObjectEquals(objects_path, v1);
  ProbabilisticInstance updated = Unwrap(Select(inst, confirmed));
  std::printf("\nafter confirming vehicle1:\n");
  std::printf("P(bridge in scene)   = %.3f\n",
              Unwrap(PointQuery(updated, objects_path, bridge)));
  std::printf("P(vehicle2 in scene) = %.3f\n",
              Unwrap(PointQuery(updated, objects_path, v2)));
  return 0;
}
