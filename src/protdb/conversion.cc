#include "protdb/conversion.h"

#include <map>
#include <set>

#include "util/strings.h"

namespace pxml {

Result<ProbabilisticInstance> FromProtdb(const ProtdbDocument& doc,
                                         OpfRepresentation representation) {
  if (!doc.Present(doc.root())) {
    return Status::FailedPrecondition("document has no root");
  }
  const Dictionary& src = doc.dict();
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();

  // Collect the value domain of each type name across the document.
  std::map<std::string, std::set<Value>> domains;
  for (ObjectId o = 0; o < doc.num_nodes(); ++o) {
    auto type = doc.TypeNameOf(o);
    if (type.has_value()) domains[*type].insert(*doc.ValueOf(o));
  }
  std::map<std::string, TypeId> type_ids;
  for (const auto& [name, values] : domains) {
    PXML_ASSIGN_OR_RETURN(
        TypeId t, weak.dict().DefineType(
                      name, std::vector<Value>(values.begin(), values.end())));
    type_ids.emplace(name, t);
  }

  // Objects intern in the same order, so ids carry over.
  for (ObjectId o = 0; o < doc.num_nodes(); ++o) {
    ObjectId id = weak.AddObject(src.ObjectName(o));
    if (id != o) {
      return Status::Internal("object id mismatch during conversion");
    }
  }
  PXML_RETURN_IF_ERROR(weak.SetRoot(doc.root()));

  for (ObjectId o = 0; o < doc.num_nodes(); ++o) {
    const std::vector<ObjectId>& children = doc.ChildrenOf(o);
    if (children.empty()) {
      auto type = doc.TypeNameOf(o);
      if (type.has_value()) {
        PXML_RETURN_IF_ERROR(weak.SetLeafValue(o, type_ids.at(*type),
                                               *doc.ValueOf(o)));
        Vpf vpf;
        vpf.Set(*doc.ValueOf(o), 1.0);
        PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
      }
      continue;
    }
    // lch by tag; cardinalities stay unconstrained ([0, *]), matching
    // ProTDB's independent-existence semantics.
    for (ObjectId c : children) {
      LabelId l = weak.dict().InternLabel(src.LabelName(doc.LabelOf(c)));
      PXML_RETURN_IF_ERROR(weak.AddPotentialChild(o, l, c));
    }
    // The OPF in the requested representation.
    IndependentOpf independent;
    for (ObjectId c : children) {
      PXML_ASSIGN_OR_RETURN(double p, doc.ConditionalProb(c));
      PXML_RETURN_IF_ERROR(independent.AddChild(c, p));
    }
    switch (representation) {
      case OpfRepresentation::kIndependent: {
        PXML_RETURN_IF_ERROR(
            out.SetOpf(o, std::make_unique<IndependentOpf>(independent)));
        break;
      }
      case OpfRepresentation::kExplicit: {
        auto opf = std::make_unique<ExplicitOpf>(
            ExplicitOpf::FromEntries(independent.Entries()));
        PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
        break;
      }
      case OpfRepresentation::kPerLabel: {
        auto opf = std::make_unique<PerLabelProductOpf>();
        // One independent factor per distinct tag.
        std::map<LabelId, IndependentOpf> per_label;
        for (ObjectId c : children) {
          LabelId l =
              weak.dict().InternLabel(src.LabelName(doc.LabelOf(c)));
          PXML_ASSIGN_OR_RETURN(double p, doc.ConditionalProb(c));
          PXML_RETURN_IF_ERROR(per_label[l].AddChild(c, p));
        }
        for (const auto& [l, factor] : per_label) {
          PXML_RETURN_IF_ERROR(opf->AddLabelFactor(
              l, ExplicitOpf::FromEntries(factor.Entries())));
        }
        PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(opf)));
        break;
      }
    }
  }
  return out;
}

}  // namespace pxml
