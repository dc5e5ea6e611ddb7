#include "xml/parser.h"

#include "util/strings.h"
#include "xml/xml_text.h"

namespace pxml {

using xml_internal::ReadProb;
using xml_internal::ReadValue;
using xml_internal::StructureReader;
using xml_internal::XmlReader;

namespace {

/// The <row> children of the current element as one table.
Result<ExplicitOpf> ReadRows(StructureReader& doc, std::string_view in) {
  XmlReader& r = doc.reader();
  ExplicitOpf opf;
  PXML_RETURN_IF_ERROR(r.ForEachChild([&]() -> Status {
    if (r.name() != "row") {
      return r.Error(StrCat("unexpected <", r.name(), "> in ", in));
    }
    PXML_ASSIGN_OR_RETURN(double p, ReadProb(r, "p"));
    PXML_ASSIGN_OR_RETURN(IdSet c, doc.ReadChildSet());
    opf.Set(std::move(c), p);
    return Status::Ok();
  }));
  return opf;
}

Result<std::unique_ptr<Opf>> ReadOpf(StructureReader& doc,
                                     const Dictionary& dict) {
  XmlReader& r = doc.reader();
  const std::string_view rep = r.Attr("rep").value_or("explicit");
  if (rep == "explicit") {
    PXML_ASSIGN_OR_RETURN(ExplicitOpf opf, ReadRows(doc, "explicit OPF"));
    return std::unique_ptr<Opf>(std::make_unique<ExplicitOpf>(std::move(opf)));
  }
  if (rep == "independent") {
    auto opf = std::make_unique<IndependentOpf>();
    PXML_RETURN_IF_ERROR(r.ForEachChild([&]() -> Status {
      if (r.name() != "child") {
        return r.Error(
            StrCat("unexpected <", r.name(), "> in independent OPF"));
      }
      PXML_ASSIGN_OR_RETURN(double p, ReadProb(r, "p"));
      PXML_ASSIGN_OR_RETURN(IdSet ids, doc.ReadChildSet());
      if (ids.size() != 1) {
        return r.Error("<child> must name exactly one object");
      }
      return opf->AddChild(ids[0], p);
    }));
    return std::unique_ptr<Opf>(std::move(opf));
  }
  if (rep == "per-label") {
    auto opf = std::make_unique<PerLabelProductOpf>();
    PXML_RETURN_IF_ERROR(r.ForEachChild([&]() -> Status {
      if (r.name() != "factor") {
        return r.Error(StrCat("unexpected <", r.name(), "> in per-label OPF"));
      }
      PXML_ASSIGN_OR_RETURN(std::string_view label, r.Required("label"));
      const std::optional<LabelId> label_id = dict.FindLabel(label);
      if (!label_id.has_value()) {
        return r.Error(StrCat("unknown label '", label, "'"));
      }
      PXML_ASSIGN_OR_RETURN(ExplicitOpf table, ReadRows(doc, "per-label OPF"));
      return opf->AddLabelFactor(*label_id, std::move(table));
    }));
    return std::unique_ptr<Opf>(std::move(opf));
  }
  return r.Error(StrCat("unknown OPF representation '", rep, "'"));
}

}  // namespace

Result<ProbabilisticInstance> ParsePxml(std::string_view text) {
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();
  StructureReader doc(text, weak);
  XmlReader& r = doc.reader();
  PXML_RETURN_IF_ERROR(doc.Read("pxml", [&](ObjectId o) -> Status {
    if (r.name() == "opf") {
      PXML_ASSIGN_OR_RETURN(std::unique_ptr<Opf> opf,
                            ReadOpf(doc, weak.dict()));
      return out.SetOpf(o, std::move(opf));
    }
    if (r.name() == "witness") {
      const std::optional<std::string>& type_name = doc.object_type();
      if (!type_name.has_value()) {
        return r.Error("<witness> requires an object 'type'");
      }
      const std::optional<TypeId> type = weak.dict().FindType(*type_name);
      if (!type.has_value()) {
        return r.Error(StrCat("unknown type '", *type_name, "'"));
      }
      PXML_ASSIGN_OR_RETURN(Value v, ReadValue(r));
      return weak.SetLeafValue(o, *type, std::move(v));
    }
    if (r.name() == "vpf") {
      Vpf vpf;
      PXML_RETURN_IF_ERROR(r.ForEachChild([&]() -> Status {
        PXML_ASSIGN_OR_RETURN(double p, ReadProb(r, "p"));
        PXML_ASSIGN_OR_RETURN(Value v, ReadValue(r));
        vpf.Set(std::move(v), p);
        return Status::Ok();
      }));
      return out.SetVpf(o, std::move(vpf));
    }
    return r.Error(StrCat("unexpected <", r.name(), "> inside <object>"));
  }));
  return out;
}

Result<ProbabilisticInstance> ReadPxmlFile(const std::string& path) {
  PXML_ASSIGN_OR_RETURN(std::string text, xml_internal::ReadFileBytes(path));
  return ParsePxml(text);
}

}  // namespace pxml
