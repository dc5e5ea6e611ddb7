#include "xml/writer.h"

#include "xml/xml_text.h"

namespace pxml {

using xml_internal::Append;
using xml_internal::AppendDocument;
using xml_internal::AppendDouble;
using xml_internal::AppendEscaped;
using xml_internal::AppendNames;
using xml_internal::AppendValueElement;

namespace {

void AppendRows(std::string& out, const Dictionary& dict,
                const std::vector<OpfEntry>& rows) {
  for (const OpfEntry& e : rows) {
    AppendDouble(out, "   <row p=\"", e.prob, "\">");
    AppendNames(out, dict, e.child_set);
    out += "</row>\n";
  }
}

void AppendOpf(std::string& out, const Dictionary& dict, const Opf& opf) {
  Append(out, "  <opf rep=\"", opf.RepresentationName(), "\">\n");
  if (const auto* exp = dynamic_cast<const ExplicitOpf*>(&opf)) {
    AppendRows(out, dict, exp->rows());
  } else if (const auto* ind = dynamic_cast<const IndependentOpf*>(&opf)) {
    for (const auto& [child, p] : ind->children()) {
      AppendDouble(out, "   <child p=\"", p, "\">");
      AppendEscaped(out, "", dict.ObjectName(child), "</child>\n");
    }
  } else if (const auto* pl =
                 dynamic_cast<const PerLabelProductOpf*>(&opf)) {
    for (const auto& [label, table] : pl->factor_views()) {
      AppendEscaped(out, "   <factor label=\"", dict.LabelName(label), "\">\n");
      AppendRows(out, dict, table->rows());
      out += "   </factor>\n";
    }
  } else {
    // Unknown representation: fall back to the equivalent explicit table.
    AppendRows(out, dict, ExplicitOpf::FromEntries(opf.Entries()).rows());
  }
  out += "  </opf>\n";
}

}  // namespace

std::string SerializePxml(const ProbabilisticInstance& instance) {
  const WeakInstance& weak = instance.weak();
  const Dictionary& dict = weak.dict();
  std::string out;
  AppendDocument(out, weak, "pxml", [&](ObjectId o) {
    if (const Opf* opf = instance.GetOpf(o)) AppendOpf(out, dict, *opf);
    if (auto witness = weak.ValueOf(o)) {
      out += "  ";
      AppendValueElement(out, "witness", *witness, {});
      out += '\n';
    }
    if (const Vpf* vpf = instance.GetVpf(o)) {
      out += "  <vpf>";
      for (const Vpf::Entry& e : vpf->Entries()) {
        AppendValueElement(out, "val", e.value, {{"p", e.prob}});
      }
      out += "</vpf>\n";
    }
  });
  return out;
}

Status WritePxmlFile(const ProbabilisticInstance& instance,
                     const std::string& path) {
  return xml_internal::WriteFileBytes(path, SerializePxml(instance));
}

}  // namespace pxml
