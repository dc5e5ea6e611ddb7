#include "xml/xml_text.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "prob/distribution.h"
#include "util/strings.h"

namespace pxml {
namespace xml_internal {

namespace {

/// The entity AppendEscaped writes for `c`; empty if `c` stays as it is.
std::string_view EntityFor(char c) {
  constexpr std::uint64_t kEscaped =
      (1ull << '&') | (1ull << '<') | (1ull << '>') | (1ull << '"');
  const auto u = static_cast<unsigned char>(c);
  if (u >= 64 || ((kEscaped >> u) & 1) == 0) return {};  // the common case
  return c == '&' ? "&amp;" : c == '<' ? "&lt;" : c == '>' ? "&gt;" : "&quot;";
}

}  // namespace

// ------------------------------------------------------------- writing

void AppendEscaped(std::string& out, std::string_view text) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::string_view entity = EntityFor(text[i]);
    if (entity.empty()) continue;
    Append(out, text.substr(start, i - start), entity);
    start = i + 1;
  }
  out += text.substr(start);
}

void AppendEscaped(std::string& out, std::string_view before,
                   std::string_view text, std::string_view after) {
  out += before;
  AppendEscaped(out, text);
  out += after;
}

void AppendDouble(std::string& out, std::string_view before, double d,
                  std::string_view after) {
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), d,
                                  std::chars_format::general, 17)
                        .ptr;
  Append(out, before, std::string_view(buf, end - buf), after);
}

void AppendValueElement(
    std::string& out, std::string_view tag, const Value& v,
    std::initializer_list<std::pair<std::string_view, double>> probs) {
  // Value::Kind numbers s, i, d, b as 0..3.
  Append(out, '<', tag, " k=\"", "sidb"[static_cast<int>(v.kind())], '"');
  for (const auto& [name, p] : probs) {
    Append(out, ' ', name);
    AppendDouble(out, "=\"", p, "\"");
  }
  out += '>';
  if (v.is_double()) {
    AppendDouble(out, "", v.AsDouble(), "");
  } else {
    AppendEscaped(out, v.ToString());  // decimal for ints, true/false
  }
  Append(out, "</", tag, '>');
}

void AppendNames(std::string& out, const Dictionary& dict, const IdSet& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ' ';
    AppendEscaped(out, dict.ObjectName(ids[i]));
  }
}

void AppendDocument(std::string& out, const WeakInstance& weak,
                    std::string_view tag,
                    const std::function<void(ObjectId)>& body) {
  const Dictionary& dict = weak.dict();
  Append(out, '<', tag);
  AppendEscaped(out, " root=\"",
                weak.HasRoot() ? std::string_view(dict.ObjectName(weak.root()))
                               : std::string_view(),
                "\">\n <types>\n");
  // Types actually used by leaves.
  const std::vector<ObjectId> objects = weak.Objects();
  std::vector<bool> used(dict.num_types(), false);
  for (ObjectId o : objects) {
    if (auto t = weak.TypeOf(o)) used[*t] = true;
  }
  for (TypeId t = 0; t < dict.num_types(); ++t) {
    if (!used[t]) continue;
    AppendEscaped(out, "  <type name=\"", dict.TypeName(t), "\">");
    for (const Value& v : dict.TypeDomain(t)) {
      AppendValueElement(out, "val", v, {});
    }
    out += "</type>\n";
  }
  out += " </types>\n";
  for (ObjectId o : objects) {
    AppendEscaped(out, " <object id=\"", dict.ObjectName(o), "\"");
    if (auto type = weak.TypeOf(o)) {
      AppendEscaped(out, " type=\"", dict.TypeName(*type), "\"");
    }
    out += ">\n";
    for (LabelId l : weak.LabelsOf(o)) {
      AppendEscaped(out, "  <lch label=\"", dict.LabelName(l), "\"");
      const IntInterval card = weak.Card(o, l);
      if (!card.IsUnconstrained()) {  // %.17g prints a uint32 as decimal
        AppendDouble(out, " min=\"", card.min(), "\"");
        if (card.max() != IntInterval::kUnbounded) {
          AppendDouble(out, " max=\"", card.max(), "\"");
        }
      }
      out += '>';
      AppendNames(out, dict, weak.Lch(o, l));
      out += "</lch>\n";
    }
    body(o);
    out += " </object>\n";
  }
  Append(out, "</", tag, ">\n");
}

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (file == nullptr) {
    return Status::IoError(StrCat("cannot open '", path, "' for writing"));
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file.get()) == bytes.size();
  if (std::fclose(file.release()) != 0 || !written) {
    return Status::IoError(StrCat("write to '", path, "' failed"));
  }
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IoError(StrCat("cannot open '", path, "'"));
  }
  // A regular file takes one read of its size plus a byte that sees the
  // end; anything else (a pipe has no size) grows the buffer until then.
  std::error_code ec;  // set unless `path` is a regular file
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string bytes(ec ? 1 : size + 1, '\0');
  std::size_t used = 0;
  while ((used += std::fread(bytes.data() + used, 1, bytes.size() - used,
                             file.get())) == bytes.size()) {
    bytes.resize(2 * bytes.size());
  }
  if (std::ferror(file.get())) {
    return Status::IoError(StrCat("cannot read '", path, "'"));
  }
  bytes.resize(used);
  return bytes;
}

// ------------------------------------------------------------- reading

namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':';
}

/// `raw` with the entities AppendEscaped writes resolved; any other '&'
/// stays as it is.
void AppendUnescaped(std::string& out, std::string_view raw) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    for (char ch : {'&', '<', '>', '"'}) {
      const std::string_view entity = EntityFor(ch);
      if (c != '&' || raw.substr(i, entity.size()) != entity) continue;
      c = ch;
      i += entity.size() - 1;
      break;
    }
    out += c;
  }
}

}  // namespace

std::string_view XmlReader::ReadName() {
  const std::size_t start = pos_;
  while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

Status XmlReader::Error(std::string_view message) const {
  const auto end = text_.begin() + std::min(pos_, text_.size());
  const auto line = 1 + std::count(text_.begin(), end, '\n');
  return Status::ParseError(StrCat("line ", line, ": ", message));
}

Status XmlReader::ReadStartTag() {
  ++pos_;  // '<'
  name_ = ReadName();
  if (name_.empty()) return Error("expected element name");
  attrs_.clear();
  unescaped_.clear();
  for (;;) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    if (text_.substr(pos_, 2) == "/>" || text_.substr(pos_, 1) == ">") {
      self_closed_ = text_[pos_] == '/';
      pos_ += self_closed_ ? 2 : 1;
      break;
    }
    const std::string_view key = ReadName();
    if (key.empty()) return Error("expected attribute name");
    if (text_.substr(pos_, 2) != "=\"") {
      return Error(StrCat("expected =\"...\" after attribute '", key, "'"));
    }
    pos_ += 2;
    const std::size_t close = text_.find('"', pos_);
    if (close == std::string_view::npos) {
      return Error("unterminated attribute value");
    }
    std::string_view value = text_.substr(pos_, close - pos_);
    pos_ = close + 1;
    if (value.find('&') != std::string_view::npos) {
      std::string& buf = unescaped_.emplace_back();  // deque: never moves
      AppendUnescaped(buf, value);
      value = buf;
    }
    attrs_.emplace_back(key, value);
  }
  if (open_.size() == kMaxXmlDepth) {
    return Error(StrCat("elements nested deeper than ", kMaxXmlDepth,
                        " levels"));
  }
  open_.push_back(name_);
  return Status::Ok();
}

Status XmlReader::ReadEndTag() {
  pos_ += 2;  // "</"
  const std::string_view closing = ReadName();
  if (closing != open_.back()) {
    return Error(StrCat("mismatched closing tag '", closing, "' for '",
                        open_.back(), "'"));
  }
  if (text_.substr(pos_, 1) != ">") return Error("expected '>'");
  ++pos_;
  open_.pop_back();
  return Status::Ok();
}

Status XmlReader::Open() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  if (text_.substr(pos_, 1) != "<") return Error("expected '<'");
  return ReadStartTag();
}

bool XmlReader::CloseSelfClosed() {
  if (!self_closed_) return false;
  self_closed_ = false;
  open_.pop_back();
  return true;
}

Result<bool> XmlReader::NextChild() {
  if (CloseSelfClosed()) return false;
  pos_ = std::min(text_.find('<', pos_), text_.size());
  if (pos_ == text_.size()) return Error("unterminated element");
  if (text_.substr(pos_, 2) == "</") {
    PXML_RETURN_IF_ERROR(ReadEndTag());
    return false;
  }
  PXML_RETURN_IF_ERROR(ReadStartTag());
  return true;
}

Result<std::string_view> XmlReader::ReadText() {
  if (CloseSelfClosed()) return std::string_view();
  const std::size_t start = pos_;
  pos_ = std::min(text_.find('<', pos_), text_.size());
  if (pos_ == text_.size()) return Error("unterminated element");
  const std::string_view raw = text_.substr(start, pos_ - start);
  if (text_.substr(pos_, 2) != "</") {
    return Error(StrCat("<", open_.back(), "> may not contain elements"));
  }
  PXML_RETURN_IF_ERROR(ReadEndTag());
  if (raw.find('&') == std::string_view::npos) return raw;
  text_buf_.clear();
  AppendUnescaped(text_buf_, raw);
  return std::string_view(text_buf_);
}

Status XmlReader::Close() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  return pos_ == text_.size()
             ? Status::Ok()
             : Error("trailing content after the document element");
}

std::optional<std::string_view> XmlReader::Attr(std::string_view key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

Result<std::string_view> XmlReader::Required(std::string_view key) const {
  if (std::optional<std::string_view> v = Attr(key)) return *v;
  return Error(StrCat("<", name_, "> has no '", key, "' attribute"));
}

Result<double> ReadProb(const XmlReader& reader, std::string_view key) {
  PXML_ASSIGN_OR_RETURN(std::string_view text, reader.Required(key));
  const std::optional<double> v = ParseWhole<double>(text);
  if (!v.has_value() || !std::isfinite(*v) || *v < -kProbEps ||
      *v > 1.0 + kProbEps) {
    return reader.Error(StrCat("<", reader.name(), "> attribute '", key,
                               "' = '", text,
                               "' is not a probability in [0, 1]"));
  }
  return *v;
}

Result<Value> ReadValue(XmlReader& reader) {
  const std::string_view element = reader.name();
  const std::optional<std::string_view> kind = reader.Attr("k");
  if (!kind.has_value() || kind->size() != 1 ||
      std::string_view("sidb").find((*kind)[0]) == std::string_view::npos) {
    return reader.Error(
        StrCat("<", element, "> needs a 'k' attribute of s, i, d or b"));
  }
  const char k = (*kind)[0];
  PXML_ASSIGN_OR_RETURN(std::string_view text, reader.ReadText());
  const auto bad = [&](std::string_view what) {
    return reader.Error(
        StrCat("<", element, "> text '", text, "' is not ", what));
  };
  switch (k) {
    case 'i':
      if (auto v = ParseWhole<std::int64_t>(text)) return Value(*v);
      return bad("an integer");
    case 'd':
      if (auto v = ParseWhole<double>(text)) return Value(*v);
      return bad("a double");
    case 'b':
      if (text == "true" || text == "false") return Value(text == "true");
      return bad("'true' or 'false'");
  }
  return Value(std::string(text));  // k="s"
}

Status StructureReader::Read(std::string_view doc_tag, const PartFn& part) {
  // Pass 1: the document element, types, and every object's id.
  PXML_RETURN_IF_ERROR(reader_.Open());
  if (reader_.name() != doc_tag) {
    return reader_.Error(StrCat("expected <", doc_tag,
                                "> document element, got <", reader_.name(),
                                ">"));
  }
  PXML_ASSIGN_OR_RETURN(std::string_view root_attr, reader_.Required("root"));
  const std::string root_name(root_attr);
  std::vector<ObjectId> objects;
  PXML_RETURN_IF_ERROR(reader_.ForEachChild([&]() -> Status {
    if (reader_.name() == "types") return ReadTypes();
    if (reader_.name() == "object") {
      PXML_ASSIGN_OR_RETURN(std::string_view id, reader_.Required("id"));
      objects.push_back(weak_.AddObject(id));
    }
    return reader_.Skip();
  }));
  PXML_RETURN_IF_ERROR(reader_.Close());
  const std::optional<ObjectId> root = weak_.dict().FindObject(root_name);
  if (!root.has_value()) {
    return Status::ParseError(
        StrCat("root '", root_name, "' is not an <object>"));
  }
  PXML_RETURN_IF_ERROR(weak_.SetRoot(*root));

  // Pass 2: each object's structure and, through `part`, its ℘.
  reader_ = XmlReader(text_);
  PXML_RETURN_IF_ERROR(reader_.Open());
  std::size_t next = 0;
  PXML_RETURN_IF_ERROR(reader_.ForEachChild([&]() -> Status {
    if (reader_.name() != "object") return reader_.Skip();
    return ReadObject(objects[next++], part);
  }));
  return reader_.Close();
}

Status StructureReader::ReadTypes() {
  return reader_.ForEachChild([&]() -> Status {
    PXML_ASSIGN_OR_RETURN(std::string_view name, reader_.Required("name"));
    const std::string type_name(name);
    std::vector<Value> domain;
    PXML_RETURN_IF_ERROR(reader_.ForEachChild([&]() -> Status {
      PXML_ASSIGN_OR_RETURN(Value v, ReadValue(reader_));
      domain.push_back(std::move(v));
      return Status::Ok();
    }));
    return weak_.dict().DefineType(type_name, std::move(domain)).status();
  });
}

Status StructureReader::ReadObject(ObjectId o, const PartFn& part) {
  type_name_ = reader_.Attr("type");
  children_.clear();
  PXML_RETURN_IF_ERROR(reader_.ForEachChild([&]() -> Status {
    return reader_.name() == "lch" ? ReadLch(o) : part(o);
  }));
  // A typed object without a witness still needs its type recorded.
  if (type_name_.has_value() && !weak_.TypeOf(o).has_value()) {
    const std::optional<TypeId> t = weak_.dict().FindType(*type_name_);
    if (!t.has_value()) {
      return reader_.Error(StrCat("unknown type '", *type_name_, "'"));
    }
    PXML_RETURN_IF_ERROR(weak_.SetLeafType(o, *t));
  }
  return Status::Ok();
}

Status StructureReader::ReadLch(ObjectId o) {
  PXML_ASSIGN_OR_RETURN(std::string_view label, reader_.Required("label"));
  const LabelId l = weak_.dict().InternLabel(label);
  // ReadChildSet reads no tag, so these views stay valid.
  const std::optional<std::string_view> min = reader_.Attr("min");
  const std::optional<std::string_view> max = reader_.Attr("max");
  PXML_ASSIGN_OR_RETURN(IdSet children, ReadChildSet());
  for (ObjectId c : children) {
    PXML_RETURN_IF_ERROR(weak_.AddPotentialChild(o, l, c));
    children_.emplace_back(weak_.dict().ObjectName(c), c);
  }
  children_sorted_ = false;
  if (!min.has_value() && !max.has_value()) return Status::Ok();
  const auto bound = [&](std::string_view key,
                         std::optional<std::string_view> text,
                         std::uint32_t absent) -> Result<std::uint32_t> {
    if (!text.has_value()) return absent;
    if (auto n = ParseWhole<std::uint32_t>(*text)) return *n;
    return reader_.Error(StrCat("<lch> attribute '", key, "' = '", *text,
                                "' is not an unsigned decimal below 2^32"));
  };
  PXML_ASSIGN_OR_RETURN(std::uint32_t lo, bound("min", min, 0));
  PXML_ASSIGN_OR_RETURN(std::uint32_t hi,
                        bound("max", max, IntInterval::kUnbounded));
  return weak_.SetCard(o, l, IntInterval(lo, hi));
}

Result<IdSet> StructureReader::ReadChildSet() {
  const std::string_view element = reader_.name();
  PXML_ASSIGN_OR_RETURN(std::string_view text, reader_.ReadText());
  if (!children_sorted_) {
    std::sort(children_.begin(), children_.end());
    children_sorted_ = true;
  }
  ids_.clear();
  for (std::size_t i = 0;;) {
    while (i < text.size() && IsSpace(text[i])) ++i;
    if (i == text.size()) break;
    const std::size_t start = i;
    while (i < text.size() && !IsSpace(text[i])) ++i;
    const std::string_view name = text.substr(start, i - start);
    auto it = std::lower_bound(children_.begin(), children_.end(), name,
                               [](const auto& child, std::string_view key) {
                                 return child.first < key;
                               });
    if (it != children_.end() && it->first == name) {
      ids_.push_back(it->second);
    } else if (auto id = weak_.dict().FindObject(name)) {
      ids_.push_back(*id);
    } else {
      return reader_.Error(
          StrCat("<", element, "> names unknown object '", name, "'"));
    }
  }
  return IdSet(std::vector<ObjectId>(ids_.begin(), ids_.end()));
}

}  // namespace xml_internal
}  // namespace pxml
