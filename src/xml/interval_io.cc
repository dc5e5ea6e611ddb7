#include "xml/interval_io.h"

#include "util/strings.h"
#include "xml/xml_text.h"

namespace pxml {

using xml_internal::AppendDouble;
using xml_internal::ReadProb;
using xml_internal::XmlReader;

std::string SerializeIntervalPxml(const IntervalInstance& instance) {
  const WeakInstance& weak = instance.weak();
  const Dictionary& dict = weak.dict();
  std::string out;
  xml_internal::AppendDocument(out, weak, "ipxml", [&](ObjectId o) {
    if (const IntervalOpf* opf = instance.GetOpf(o)) {
      out += "  <iopf>\n";
      for (const IntervalOpf::Entry& e : opf->Entries()) {
        AppendDouble(out, "   <row lo=\"", e.prob.lo(), "\" hi=\"");
        AppendDouble(out, "", e.prob.hi(), "\">");
        xml_internal::AppendNames(out, dict, e.child_set);
        out += "</row>\n";
      }
      out += "  </iopf>\n";
    }
    if (const IntervalVpf* vpf = instance.GetVpf(o)) {
      out += "  <ivpf>";
      for (const IntervalVpf::Entry& e : vpf->Entries()) {
        xml_internal::AppendValueElement(
            out, "val", e.value, {{"lo", e.prob.lo()}, {"hi", e.prob.hi()}});
      }
      out += "</ivpf>\n";
    }
  });
  return out;
}

Status WriteIntervalPxmlFile(const IntervalInstance& instance,
                             const std::string& path) {
  return xml_internal::WriteFileBytes(path, SerializeIntervalPxml(instance));
}

Result<IntervalInstance> ParseIntervalPxml(std::string_view text) {
  IntervalInstance out;
  xml_internal::StructureReader doc(text, out.weak());
  XmlReader& r = doc.reader();
  const auto bounds = [&r]() -> Result<IntervalProb> {
    PXML_ASSIGN_OR_RETURN(double lo, ReadProb(r, "lo"));
    PXML_ASSIGN_OR_RETURN(double hi, ReadProb(r, "hi"));
    return IntervalProb::Make(lo, hi);
  };
  PXML_RETURN_IF_ERROR(doc.Read("ipxml", [&](ObjectId o) -> Status {
    if (r.name() == "iopf") {
      IntervalOpf opf;
      PXML_RETURN_IF_ERROR(r.ForEachChild([&]() -> Status {
        if (r.name() != "row") {
          return r.Error(StrCat("unexpected <", r.name(), "> in <iopf>"));
        }
        PXML_ASSIGN_OR_RETURN(IntervalProb prob, bounds());
        PXML_ASSIGN_OR_RETURN(IdSet c, doc.ReadChildSet());
        opf.Set(std::move(c), prob);
        return Status::Ok();
      }));
      return out.SetOpf(o, std::move(opf));
    }
    if (r.name() == "ivpf") {
      IntervalVpf vpf;
      PXML_RETURN_IF_ERROR(r.ForEachChild([&]() -> Status {
        PXML_ASSIGN_OR_RETURN(IntervalProb prob, bounds());
        PXML_ASSIGN_OR_RETURN(Value v, xml_internal::ReadValue(r));
        vpf.Set(std::move(v), prob);
        return Status::Ok();
      }));
      return out.SetVpf(o, std::move(vpf));
    }
    return r.Error(StrCat("unexpected <", r.name(), "> inside <object>"));
  }));
  return out;
}

Result<IntervalInstance> ReadIntervalPxmlFile(const std::string& path) {
  PXML_ASSIGN_OR_RETURN(std::string text, xml_internal::ReadFileBytes(path));
  return ParseIntervalPxml(text);
}

}  // namespace pxml
