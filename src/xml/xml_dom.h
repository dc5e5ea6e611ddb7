#ifndef PXML_XML_XML_DOM_H_
#define PXML_XML_XML_DOM_H_

// Internal minimal XML DOM shared by the PXML and IPXML readers. Not part
// of the public API (namespace xml_internal).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "graph/symbols.h"
#include "prob/value.h"
#include "util/id_set.h"
#include "util/status.h"

namespace pxml {
namespace xml_internal {

/// One parsed element: name, attributes, children, concatenated text.
struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<XmlNode> children;
  std::string text;

  const std::string* Attr(std::string_view key) const;
};

/// Deepest element nesting ParseXmlDocument accepts (the document
/// element is level 1). PXML and IPXML documents nest about 4 deep.
inline constexpr std::size_t kMaxXmlDepth = 64;

/// Parses a whole document (one root element, no prolog/comments).
/// Nesting deeper than kMaxXmlDepth is a ParseError.
Result<XmlNode> ParseXmlDocument(std::string_view text);

/// Reverses XmlEscape.
std::string XmlUnescape(std::string_view text);

/// Reads a typed value from an element with a one-letter `k` attribute
/// (s/i/d/b) and the value in the text content.
Result<Value> ParseTypedValue(const XmlNode& node);

/// Parses a probability attribute (`p`, `lo`, `hi`); fails if absent,
/// malformed, non-finite, or outside [−kProbEps, 1 + kProbEps].
Result<double> ParseDoubleAttr(const XmlNode& node, std::string_view key);

/// Whitespace-separated object names in an element's text, resolved
/// against the dictionary.
Result<IdSet> ParseChildSet(const Dictionary& dict, const XmlNode& node);

}  // namespace xml_internal
}  // namespace pxml

#endif  // PXML_XML_XML_DOM_H_
