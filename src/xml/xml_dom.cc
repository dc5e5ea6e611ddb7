#include "xml/xml_dom.h"

#include <cmath>
#include <cstdlib>

#include "prob/distribution.h"
#include "util/strings.h"

namespace pxml {
namespace xml_internal {

// ------------------------------------------------------- tiny XML parser

const std::string* XmlNode::Attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string XmlUnescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out += text[i];
      continue;
    }
    if (text.substr(i, 5) == "&amp;") {
      out += '&';
      i += 4;
    } else if (text.substr(i, 4) == "&lt;") {
      out += '<';
      i += 3;
    } else if (text.substr(i, 4) == "&gt;") {
      out += '>';
      i += 3;
    } else if (text.substr(i, 6) == "&quot;") {
      out += '"';
      i += 5;
    } else {
      out += '&';
    }
  }
  return out;
}

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  Result<XmlNode> ParseDocument() {
    SkipWhitespace();
    PXML_ASSIGN_OR_RETURN(XmlNode root, ParseElement(1));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after the document element");
    }
    return root;
  }

 private:
  Status Fail(std::string_view message) const {
    // Report a line number for easier debugging of hand-written files.
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return Status::ParseError(StrCat("line ", line, ": ", message));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static bool IsNameChar(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':';
  }

  std::string ParseName() {
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Parses the element at nesting level `depth` (the document element
  /// is level 1). Recursion is one frame per level, so the cap keeps a
  /// hostile document from exhausting the stack.
  Result<XmlNode> ParseElement(std::size_t depth) {
    if (depth > kMaxXmlDepth) {
      return Fail(StrCat("elements nested deeper than ", kMaxXmlDepth,
                         " levels"));
    }
    if (!Eat('<')) return Fail("expected '<'");
    XmlNode node;
    node.name = ParseName();
    if (node.name.empty()) return Fail("expected element name");
    for (;;) {
      SkipWhitespace();
      if (Eat('/')) {
        if (!Eat('>')) return Fail("expected '>' after '/'");
        return node;  // self-closing
      }
      if (Eat('>')) break;
      // Attribute.
      std::string key = ParseName();
      if (key.empty()) return Fail("expected attribute name");
      if (!Eat('=') || !Eat('"')) {
        return Fail(StrCat("expected =\"...\" after attribute '", key, "'"));
      }
      std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ == text_.size()) return Fail("unterminated attribute value");
      node.attrs.emplace_back(
          std::move(key), XmlUnescape(text_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
    }
    // Content: interleaved text and child elements until </name>.
    for (;;) {
      std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '<') ++pos_;
      node.text += XmlUnescape(text_.substr(start, pos_ - start));
      if (pos_ == text_.size()) return Fail("unterminated element");
      if (text_.substr(pos_, 2) == "</") {
        pos_ += 2;
        std::string closing = ParseName();
        if (closing != node.name) {
          return Fail(StrCat("mismatched closing tag '", closing,
                             "' for '", node.name, "'"));
        }
        if (!Eat('>')) return Fail("expected '>'");
        return node;
      }
      PXML_ASSIGN_OR_RETURN(XmlNode child, ParseElement(depth + 1));
      node.children.push_back(std::move(child));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------- PXML interpretation

Result<Value> ParseTypedValue(const XmlNode& node) {
  const std::string* kind = node.Attr("k");
  if (kind == nullptr || kind->size() != 1) {
    return Status::ParseError(
        StrCat("<", node.name, "> needs a one-letter 'k' attribute"));
  }
  const std::string& text = node.text;
  switch ((*kind)[0]) {
    case 's':
      return Value(text);
    case 'i': {
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str()) {
        return Status::ParseError(StrCat("bad integer '", text, "'"));
      }
      return Value(static_cast<std::int64_t>(v));
    }
    case 'd': {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str()) {
        return Status::ParseError(StrCat("bad double '", text, "'"));
      }
      return Value(v);
    }
    case 'b':
      return Value(text == "true");
    default:
      return Status::ParseError(StrCat("unknown value kind '", *kind, "'"));
  }
}

Result<double> ParseDoubleAttr(const XmlNode& node, std::string_view key) {
  const std::string* p = node.Attr(key);
  if (p == nullptr) {
    return Status::ParseError(
        StrCat("<", node.name, "> needs a '", key, "' attribute"));
  }
  char* end = nullptr;
  double v = std::strtod(p->c_str(), &end);
  if (end == p->c_str()) {
    return Status::ParseError(StrCat("bad number '", *p, "'"));
  }
  if (!std::isfinite(v) || v < -kProbEps || v > 1.0 + kProbEps) {
    return Status::ParseError(StrCat("<", node.name, "> attribute '", key,
                                     "' = '", *p,
                                     "' is not a probability in [0, 1]"));
  }
  return v;
}

/// Whitespace-separated object names in an element's text.
std::vector<std::string> SplitNames(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

Result<IdSet> ParseChildSet(const Dictionary& dict, const XmlNode& node) {
  std::vector<std::uint32_t> ids;
  for (const std::string& name : SplitNames(node.text)) {
    auto id = dict.FindObject(name);
    if (!id.has_value()) {
      return Status::ParseError(StrCat("unknown object '", name, "'"));
    }
    ids.push_back(*id);
  }
  return IdSet(std::move(ids));
}


Result<XmlNode> ParseXmlDocument(std::string_view text) {
  XmlParser parser(text);
  return parser.ParseDocument();
}

}  // namespace xml_internal
}  // namespace pxml
