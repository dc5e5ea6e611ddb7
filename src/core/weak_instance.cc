#include "core/weak_instance.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"
#include "util/strings.h"

namespace pxml {

namespace {
const IdSet kEmptySet;
}  // namespace

void WeakInstance::EnsureSize(ObjectId o) {
  if (o >= nodes_.size()) nodes_.resize(o + 1);
}

ObjectId WeakInstance::AddObject(std::string_view name) {
  ObjectId o = dict_.InternObject(name);
  EnsureSize(o);
  if (!nodes_[o].present) {
    nodes_[o].present = true;
    ++num_present_;
  }
  return o;
}

Status WeakInstance::AddObjectById(ObjectId o) {
  if (o >= dict_.num_objects()) {
    return Status::NotFound(StrCat("object id ", o, " not in dictionary"));
  }
  EnsureSize(o);
  if (!nodes_[o].present) {
    nodes_[o].present = true;
    ++num_present_;
  }
  return Status::Ok();
}

Status WeakInstance::SetRoot(ObjectId o) {
  if (!Present(o)) {
    return Status::NotFound(StrCat("root object id ", o, " not present"));
  }
  root_ = o;
  return Status::Ok();
}

std::vector<ObjectId> WeakInstance::Objects() const {
  std::vector<ObjectId> out;
  out.reserve(num_present_);
  for (ObjectId o = 0; o < nodes_.size(); ++o) {
    if (nodes_[o].present) out.push_back(o);
  }
  return out;
}

Status WeakInstance::AddPotentialChild(ObjectId o, LabelId l,
                                       ObjectId child) {
  if (!Present(o) || !Present(child)) {
    return Status::NotFound("lch endpoint not present in weak instance");
  }
  if (l >= dict_.num_labels()) {
    return Status::NotFound(StrCat("label id ", l, " not in dictionary"));
  }
  auto& lch = nodes_[o].lch;
  // o is already a parent of child iff child sits in one of o's own lch
  // sets: a few binary searches, where scanning child's parent list
  // would cost O(parents) per call.
  bool known_parent = false;
  for (const LchEntry& e : lch) {
    if (!e.children.Contains(child)) continue;
    if (e.label == l) return Status::Ok();
    known_parent = true;
  }
  auto it = std::lower_bound(
      lch.begin(), lch.end(), l,
      [](const LchEntry& e, LabelId key) { return e.label < key; });
  if (it == lch.end() || it->label != l) {
    it = lch.insert(it, LchEntry{l, IdSet()});
  }
  it->children.Insert(child);
  if (!known_parent) nodes_[child].parents.push_back(o);
  return Status::Ok();
}

const IdSet& WeakInstance::Lch(ObjectId o, LabelId l) const {
  if (!Present(o)) return kEmptySet;
  const auto& lch = nodes_[o].lch;
  auto it = std::lower_bound(
      lch.begin(), lch.end(), l,
      [](const LchEntry& e, LabelId key) { return e.label < key; });
  if (it != lch.end() && it->label == l) return it->children;
  return kEmptySet;
}

std::vector<LabelId> WeakInstance::LabelsOf(ObjectId o) const {
  std::vector<LabelId> out;
  if (!Present(o)) return out;
  for (const LchEntry& e : nodes_[o].lch) out.push_back(e.label);
  return out;
}

IdSet WeakInstance::AllPotentialChildren(ObjectId o) const {
  IdSet out;
  if (!Present(o)) return out;
  for (const LchEntry& e : nodes_[o].lch) out = out.Union(e.children);
  return out;
}

std::optional<LabelId> WeakInstance::ChildLabel(ObjectId o,
                                                ObjectId child) const {
  if (!Present(o)) return std::nullopt;
  for (const LchEntry& e : nodes_[o].lch) {
    if (e.children.Contains(child)) return e.label;
  }
  return std::nullopt;
}

Status WeakInstance::SetCard(ObjectId o, LabelId l, IntInterval interval) {
  if (!Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  if (!interval.valid()) {
    return Status::InvalidArgument(
        StrCat("invalid cardinality interval ", interval.ToString()));
  }
  card_.Set(o, l, interval);
  return Status::Ok();
}

Status WeakInstance::SetLeafType(ObjectId o, TypeId type) {
  if (!Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  if (type >= dict_.num_types()) {
    return Status::NotFound(StrCat("type id ", type, " not in dictionary"));
  }
  nodes_[o].type = type;
  return Status::Ok();
}

Status WeakInstance::SetLeafValue(ObjectId o, TypeId type, Value v) {
  PXML_RETURN_IF_ERROR(SetLeafType(o, type));
  if (!dict_.DomainContains(type, v)) {
    return Status::InvalidArgument(
        StrCat("value '", v.ToString(), "' not in dom(",
               dict_.TypeName(type), ")"));
  }
  nodes_[o].value = std::move(v);
  return Status::Ok();
}

std::optional<TypeId> WeakInstance::TypeOf(ObjectId o) const {
  if (!Present(o)) return std::nullopt;
  return nodes_[o].type;
}

std::optional<Value> WeakInstance::ValueOf(ObjectId o) const {
  if (!Present(o)) return std::nullopt;
  return nodes_[o].value;
}

std::string WeakInstance::ToString() const {
  std::ostringstream os;
  os << "weak instance root="
     << (HasRoot() ? dict_.ObjectName(root_) : std::string("<none>"))
     << " objects=" << num_present_ << '\n';
  for (ObjectId o : Objects()) {
    os << "  " << dict_.ObjectName(o);
    if (nodes_[o].type) os << " : " << dict_.TypeName(*nodes_[o].type);
    if (nodes_[o].value) os << " = " << nodes_[o].value->ToString();
    for (const LchEntry& e : nodes_[o].lch) {
      os << "  lch[" << dict_.LabelName(e.label) << "]=";
      os << '{';
      bool first = true;
      for (ObjectId c : e.children) {
        if (!first) os << ',';
        first = false;
        os << dict_.ObjectName(c);
      }
      os << '}' << " card=" << card_.Get(o, e.label).ToString();
    }
    os << '\n';
  }
  return os.str();
}

Result<SemistructuredInstance> WeakInstanceGraph(const WeakInstance& weak) {
  SemistructuredInstance graph;
  graph.SetDictionary(weak.dict());
  for (ObjectId o : weak.Objects()) {
    PXML_RETURN_IF_ERROR(graph.AddObjectById(o));
  }
  if (weak.HasRoot()) {
    PXML_RETURN_IF_ERROR(graph.SetRoot(weak.root()));
  }
  for (ObjectId o : weak.Objects()) {
    // PC(o) is non-empty iff PL(o, l) is non-empty for every label of o,
    // i.e. card(o, l).min <= |lch(o, l)|.
    bool pc_nonempty = true;
    for (LabelId l : weak.LabelsOf(o)) {
      if (weak.Card(o, l).min() > weak.Lch(o, l).size()) {
        pc_nonempty = false;
        break;
      }
    }
    if (!pc_nonempty) continue;
    for (LabelId l : weak.LabelsOf(o)) {
      // Some c in PC(o) contains child iff a set in PL(o, l) does, i.e.
      // the interval admits at least one element.
      if (weak.Card(o, l).max() == 0) continue;
      for (ObjectId child : weak.Lch(o, l)) {
        PXML_RETURN_IF_ERROR(graph.AddEdge(o, l, child));
      }
    }
  }
  return graph;
}

Status CheckWeakTree(const WeakInstance& weak) {
  if (!weak.HasRoot()) {
    return Status::NotATree("weak instance has no root");
  }
  PXML_ASSIGN_OR_RETURN(SemistructuredInstance graph,
                        WeakInstanceGraph(weak));
  return CheckTree(graph);
}

Result<std::vector<IdSet>> WeakPathLayers(const WeakInstance& weak,
                                          const PathExpression& path) {
  if (!weak.Present(path.start)) {
    return Status::UnknownObject(
        StrCat("path start object id ", path.start, " not present"));
  }
  std::vector<IdSet> layers;
  layers.reserve(path.labels.size() + 1);
  layers.push_back(IdSet{path.start});
  for (LabelId l : path.labels) {
    IdSet next;
    for (ObjectId o : layers.back()) {
      next = next.Union(weak.Lch(o, l));
    }
    layers.push_back(std::move(next));
  }
  return layers;
}

Result<std::vector<IdSet>> PrunedWeakPathLayers(const WeakInstance& weak,
                                                const PathExpression& path) {
  PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                        WeakPathLayers(weak, path));
  for (std::size_t i = layers.size() - 1; i-- > 0;) {
    LabelId l = path.labels[i];
    std::vector<std::uint32_t> kept;
    for (ObjectId o : layers[i]) {
      if (!weak.Lch(o, l).Intersect(layers[i + 1]).empty()) {
        kept.push_back(o);
      }
    }
    layers[i] = IdSet(std::move(kept));
  }
  return layers;
}

Status CheckAcyclic(const WeakInstance& weak) {
  PXML_ASSIGN_OR_RETURN(SemistructuredInstance graph,
                        WeakInstanceGraph(weak));
  if (!IsAcyclic(graph)) {
    return Status::FailedPrecondition(
        "weak instance graph contains a cycle (Def 4.3 violated)");
  }
  return Status::Ok();
}

}  // namespace pxml
