#include "algebra/cartesian_product.h"

#include <algorithm>

#include "util/strings.h"

namespace pxml {

namespace {

/// Id remapping tables from one source dictionary into a merged one.
struct IdMaps {
  std::vector<ObjectId> object;
  std::vector<LabelId> label;
  std::vector<TypeId> type;
};

/// Interns every symbol of `src` into `dst`, failing on duplicate object
/// names (when `fail_on_object_collision`) or conflicting type domains.
Result<IdMaps> MergeDictionary(const Dictionary& src, Dictionary* dst,
                               bool fail_on_object_collision) {
  IdMaps maps;
  maps.object.resize(src.num_objects());
  for (ObjectId o = 0; o < src.num_objects(); ++o) {
    const std::string& name = src.ObjectName(o);
    if (fail_on_object_collision && dst->FindObject(name).has_value()) {
      return Status::FailedPrecondition(
          StrCat("object name '", name,
                 "' occurs in both instances; rename first"));
    }
    maps.object[o] = dst->InternObject(name);
  }
  maps.label.resize(src.num_labels());
  for (LabelId l = 0; l < src.num_labels(); ++l) {
    maps.label[l] = dst->InternLabel(src.LabelName(l));
  }
  maps.type.resize(src.num_types());
  for (TypeId t = 0; t < src.num_types(); ++t) {
    const std::string& name = src.TypeName(t);
    auto existing = dst->FindType(name);
    if (existing.has_value()) {
      if (dst->TypeDomain(*existing) != src.TypeDomain(t)) {
        return Status::FailedPrecondition(
            StrCat("type '", name, "' has conflicting domains"));
      }
      maps.type[t] = *existing;
    } else {
      PXML_ASSIGN_OR_RETURN(maps.type[t],
                            dst->DefineType(name, src.TypeDomain(t)));
    }
  }
  return maps;
}

/// Copies `in`'s weak structure and local interpretation into `out`
/// through the id maps. When `reparent_root_to` is a valid id, the old
/// root's lch/card/leaf-data move onto that object instead of the old
/// root itself (and the old root's OPF is left for the caller to merge).
Status CopyMapped(const ProbabilisticInstance& in, const IdMaps& maps,
                  ObjectId reparent_root_to, ProbabilisticInstance* out) {
  const WeakInstance& weak = in.weak();
  const bool reparent = reparent_root_to != kInvalidId;
  auto target_of = [&](ObjectId o) {
    return (reparent && o == weak.root()) ? reparent_root_to
                                          : maps.object[o];
  };
  for (ObjectId o : weak.Objects()) {
    if (!(reparent && o == weak.root())) {
      PXML_RETURN_IF_ERROR(out->mutable_weak().AddObjectById(maps.object[o]));
    }
  }
  for (ObjectId o : weak.Objects()) {
    ObjectId to = target_of(o);
    for (LabelId l : weak.LabelsOf(o)) {
      for (ObjectId c : weak.Lch(o, l)) {
        PXML_RETURN_IF_ERROR(out->mutable_weak().AddPotentialChild(
            to, maps.label[l], maps.object[c]));
      }
    }
    if (weak.IsLeaf(o)) {
      auto type = weak.TypeOf(o);
      if (type.has_value()) {
        auto val = weak.ValueOf(o);
        if (val.has_value()) {
          PXML_RETURN_IF_ERROR(
              out->mutable_weak().SetLeafValue(to, maps.type[*type], *val));
        } else {
          PXML_RETURN_IF_ERROR(
              out->mutable_weak().SetLeafType(to, maps.type[*type]));
        }
      }
      if (const Vpf* vpf = in.GetVpf(o)) {
        PXML_RETURN_IF_ERROR(out->SetVpf(to, *vpf));
      }
    } else if (!(reparent && o == weak.root())) {
      if (const Opf* opf = in.GetOpf(o)) {
        PXML_RETURN_IF_ERROR(
            out->SetOpf(maps.object[o], opf->Remap(maps.object,
                                                   &maps.label)));
      }
    }
  }
  for (const CardinalityMap::Entry& e : weak.card().Entries()) {
    if (!weak.Present(e.object)) continue;
    PXML_RETURN_IF_ERROR(out->mutable_weak().SetCard(
        target_of(e.object), maps.label[e.label], e.interval));
  }
  return Status::Ok();
}

/// The root's OPF rows remapped into the merged dictionary; a leaf root
/// contributes the single row {∅ -> 1}.
std::vector<OpfEntry> RootEntries(const ProbabilisticInstance& in,
                                  const IdMaps& maps) {
  const Opf* opf = in.GetOpf(in.weak().root());
  if (opf == nullptr) return {OpfEntry{IdSet(), 1.0}};
  std::unique_ptr<Opf> remapped = opf->Remap(maps.object, &maps.label);
  return remapped->Entries();
}

}  // namespace

Result<ProbabilisticInstance> CartesianProduct(
    const ProbabilisticInstance& left, const ProbabilisticInstance& right,
    std::string_view new_root_name) {
  if (!left.weak().HasRoot() || !right.weak().HasRoot()) {
    return Status::FailedPrecondition("both instances need a root");
  }
  ProbabilisticInstance out;
  Dictionary& dict = out.mutable_dict();
  PXML_ASSIGN_OR_RETURN(IdMaps lmaps,
                        MergeDictionary(left.dict(), &dict, false));
  PXML_ASSIGN_OR_RETURN(IdMaps rmaps,
                        MergeDictionary(right.dict(), &dict, true));
  if (dict.FindObject(new_root_name).has_value()) {
    return Status::FailedPrecondition(
        StrCat("new root name '", new_root_name, "' collides"));
  }
  ObjectId root = out.mutable_weak().AddObject(new_root_name);
  PXML_RETURN_IF_ERROR(out.mutable_weak().SetRoot(root));

  PXML_RETURN_IF_ERROR(CopyMapped(left, lmaps, root, &out));
  PXML_RETURN_IF_ERROR(CopyMapped(right, rmaps, root, &out));

  // card''(r'', l): when both old roots constrain the same label, the
  // merged root sees the children of both, so the intervals add.
  for (LabelId l : out.weak().LabelsOf(root)) {
    const std::string& name = dict.LabelName(l);
    bool in_left = false;
    bool in_right = false;
    IntInterval li;
    IntInterval ri;
    if (auto ll = left.dict().FindLabel(name); ll.has_value()) {
      if (!left.weak().Lch(left.weak().root(), *ll).empty()) {
        in_left = true;
        li = left.weak().Card(left.weak().root(), *ll);
      }
    }
    if (auto rl = right.dict().FindLabel(name); rl.has_value()) {
      if (!right.weak().Lch(right.weak().root(), *rl).empty()) {
        in_right = true;
        ri = right.weak().Card(right.weak().root(), *rl);
      }
    }
    if (in_left && in_right) {
      std::uint32_t max =
          (li.max() == IntInterval::kUnbounded ||
           ri.max() == IntInterval::kUnbounded)
              ? IntInterval::kUnbounded
              : li.max() + ri.max();
      PXML_RETURN_IF_ERROR(out.mutable_weak().SetCard(
          root, l, IntInterval(li.min() + ri.min(), max)));
    }
  }

  // ℘''(r'')(c ∪ c') = ℘(r)(c) · ℘'(r')(c').
  auto product = std::make_unique<ExplicitOpf>();
  for (const OpfEntry& a : RootEntries(left, lmaps)) {
    for (const OpfEntry& b : RootEntries(right, rmaps)) {
      double p = a.prob * b.prob;
      if (p > 0.0) product->Set(a.child_set.Union(b.child_set), p);
    }
  }
  if (!out.weak().IsLeaf(root)) {
    PXML_RETURN_IF_ERROR(out.SetOpf(root, std::move(product)));
  }
  return out;
}

Result<std::vector<World>> CartesianProductWorlds(
    const std::vector<World>& left, const std::vector<World>& right,
    std::string_view new_root_name) {
  if (left.empty() || right.empty()) {
    return Status::InvalidArgument("world lists must be non-empty");
  }
  Dictionary dict;
  PXML_ASSIGN_OR_RETURN(
      IdMaps lmaps, MergeDictionary(left[0].instance.dict(), &dict, false));
  PXML_ASSIGN_OR_RETURN(
      IdMaps rmaps, MergeDictionary(right[0].instance.dict(), &dict, true));
  if (dict.FindObject(new_root_name).has_value()) {
    return Status::FailedPrecondition(
        StrCat("new root name '", new_root_name, "' collides"));
  }
  ObjectId root = dict.InternObject(new_root_name);

  auto copy_world = [&](const SemistructuredInstance& in, const IdMaps& maps,
                        SemistructuredInstance* w) -> Status {
    ObjectId old_root = in.root();
    auto target_of = [&](ObjectId o) {
      return o == old_root ? root : maps.object[o];
    };
    for (ObjectId o : in.Objects()) {
      if (o != old_root) {
        PXML_RETURN_IF_ERROR(w->AddObjectById(maps.object[o]));
      }
      auto type = in.TypeOf(o);
      auto val = in.ValueOf(o);
      if (type.has_value() && val.has_value()) {
        PXML_RETURN_IF_ERROR(
            w->SetLeafValue(target_of(o), maps.type[*type], *val));
      }
    }
    for (ObjectId o : in.Objects()) {
      for (const Edge& e : in.Children(o)) {
        PXML_RETURN_IF_ERROR(w->AddEdge(target_of(o), maps.label[e.label],
                                        maps.object[e.child]));
      }
    }
    return Status::Ok();
  };

  std::vector<World> out;
  out.reserve(left.size() * right.size());
  for (const World& a : left) {
    for (const World& b : right) {
      SemistructuredInstance merged;
      merged.SetDictionary(dict);
      PXML_RETURN_IF_ERROR(merged.AddObjectById(root));
      PXML_RETURN_IF_ERROR(merged.SetRoot(root));
      PXML_RETURN_IF_ERROR(copy_world(a.instance, lmaps, &merged));
      PXML_RETURN_IF_ERROR(copy_world(b.instance, rmaps, &merged));
      out.push_back(World{std::move(merged), a.prob * b.prob});
    }
  }
  return out;
}

Result<ProbabilisticInstance> RenameObjects(
    const ProbabilisticInstance& instance,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  const Dictionary& src = instance.dict();
  // New names must be fresh.
  for (const auto& [from, to] : renames) {
    if (!src.FindObject(from).has_value()) {
      return Status::NotFound(StrCat("no object named '", from, "'"));
    }
    if (src.FindObject(to).has_value()) {
      return Status::FailedPrecondition(
          StrCat("new name '", to, "' already in use"));
    }
  }
  ProbabilisticInstance out;
  Dictionary& dict = out.mutable_dict();
  IdMaps maps;
  maps.object.resize(src.num_objects());
  for (ObjectId o = 0; o < src.num_objects(); ++o) {
    std::string name = src.ObjectName(o);
    for (const auto& [from, to] : renames) {
      if (name == from) {
        name = to;
        break;
      }
    }
    maps.object[o] = dict.InternObject(name);
  }
  maps.label.resize(src.num_labels());
  for (LabelId l = 0; l < src.num_labels(); ++l) {
    maps.label[l] = dict.InternLabel(src.LabelName(l));
  }
  maps.type.resize(src.num_types());
  for (TypeId t = 0; t < src.num_types(); ++t) {
    PXML_ASSIGN_OR_RETURN(
        maps.type[t], dict.DefineType(src.TypeName(t), src.TypeDomain(t)));
  }
  PXML_RETURN_IF_ERROR(CopyMapped(instance, maps, kInvalidId, &out));
  PXML_RETURN_IF_ERROR(
      out.mutable_weak().SetRoot(maps.object[instance.weak().root()]));
  return out;
}

}  // namespace pxml
