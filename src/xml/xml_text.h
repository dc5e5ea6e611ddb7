#ifndef PXML_XML_XML_TEXT_H_
#define PXML_XML_XML_TEXT_H_

// Internal text layer shared by the PXML and IPXML formats (namespace
// xml_internal, not part of the public API): the appending writer's
// pieces, a pull tokenizer over the document text, and the structure
// reader that builds W from it. DESIGN.md §14 states the contract.

#include <cstddef>
#include <deque>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/weak_instance.h"
#include "prob/value.h"
#include "util/id_set.h"
#include "util/status.h"

namespace pxml {
namespace xml_internal {

// ------------------------------------------------------------- writing

/// Appends every part (chars, strings, views) to `out`.
template <class... Parts>
void Append(std::string& out, const Parts&... parts) {
  (out += ... += parts);
}

/// Appends `text` with &, <, > and " escaped; the second form puts
/// `before` and `after` around it.
void AppendEscaped(std::string& out, std::string_view text);
void AppendEscaped(std::string& out, std::string_view before,
                   std::string_view text, std::string_view after);

/// Appends `before`, then `d` exactly as %.17g prints it (which reparses
/// to the same bits), then `after`.
void AppendDouble(std::string& out, std::string_view before, double d,
                  std::string_view after);

/// Appends <tag k="X" name="p"...>value</tag>: a typed value with one
/// number attribute per entry of `probs`. Both formats write values here.
void AppendValueElement(
    std::string& out, std::string_view tag, const Value& v,
    std::initializer_list<std::pair<std::string_view, double>> probs);

/// Appends the escaped names of `ids`, space-separated.
void AppendNames(std::string& out, const Dictionary& dict, const IdSet& ids);

/// Appends a whole document with element `tag`: the root, the used types,
/// and per object its start tag, its lch lines, whatever `body` appends
/// for it, and its end tag.
void AppendDocument(std::string& out, const WeakInstance& weak,
                    std::string_view tag,
                    const std::function<void(ObjectId)>& body);

/// Writes `bytes` to `path` with one fwrite.
Status WriteFileBytes(const std::string& path, std::string_view bytes);

/// The contents of `path`: one sized read for a regular file.
Result<std::string> ReadFileBytes(const std::string& path);

// ------------------------------------------------------------- reading

/// Deepest element nesting the reader accepts (the document element is
/// level 1). PXML and IPXML documents nest about 4 deep.
inline constexpr std::size_t kMaxXmlDepth = 64;

/// A pull tokenizer over one document (one root element, no prolog or
/// comments): start tags with attribute views, and element text,
/// unescaped only where a '&' occurs. Views stay valid until the next
/// start tag is read. Every element NextChild opens must be closed by
/// ReadText, Skip, or a NextChild loop that runs until it returns false.
class XmlReader {
 public:
  explicit XmlReader(std::string_view text) : text_(text) {}

  /// Reads the document element's start tag.
  Status Open();
  /// Opens the next child element of the innermost open element, skipping
  /// text; false once that element's end tag has been consumed.
  Result<bool> NextChild();
  /// The text of the element just opened, which it closes. An element
  /// inside it is a ParseError.
  Result<std::string_view> ReadText();
  /// Closes the element just opened, skipping everything inside it.
  Status Skip() {
    return ForEachChild([this] { return Skip(); });
  }
  /// Checks that nothing but whitespace follows the document element.
  Status Close();

  /// Calls `fn()` on each child element of the element just opened, which
  /// `fn` must close, and then closes that element.
  template <class Fn>
  Status ForEachChild(Fn&& fn) {
    for (;;) {
      PXML_ASSIGN_OR_RETURN(bool more, NextChild());
      if (!more) return Status::Ok();
      PXML_RETURN_IF_ERROR(fn());
    }
  }

  /// The name of the last start tag read.
  std::string_view name() const { return name_; }
  /// An attribute of the last start tag read (the first, if repeated).
  std::optional<std::string_view> Attr(std::string_view key) const;
  /// Attr(key), or a ParseError naming the element if the tag lacks it.
  Result<std::string_view> Required(std::string_view key) const;

  /// A ParseError that says on which line the reader stands.
  Status Error(std::string_view message) const;

 private:
  Status ReadStartTag();
  Status ReadEndTag();
  /// Closes the innermost element if it was <x/>; true if it did.
  bool CloseSelfClosed();
  std::string_view ReadName();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<std::string_view> open_;  // names of the open elements
  bool self_closed_ = false;            // the innermost one was <x/>
  std::string_view name_;
  std::vector<std::pair<std::string_view, std::string_view>> attrs_;
  std::deque<std::string> unescaped_;  // attribute values that had a '&'
  std::string text_buf_;               // element text that had a '&'
};

/// The probability in attribute `key` of the current tag: the whole value
/// must be a finite number in [−kProbEps, 1 + kProbEps].
Result<double> ReadProb(const XmlReader& reader, std::string_view key);

/// The typed value of the current element (a one-letter `k` attribute,
/// s/i/d/b, and the text), which it closes.
Result<Value> ReadValue(XmlReader& reader);

/// Reads the structure both formats share: the document element and its
/// root, <types>, and per <object> its id, type and <lch> elements.
/// Objects take ids in <object> document order, even when an lch names a
/// later object, because a first pass interns types and object ids;
/// labels take ids in <lch> document order.
class StructureReader {
 public:
  /// Reads the rest of an <object>: called with reader() on each element
  /// of it other than <lch>, which it must close.
  using PartFn = std::function<Status(ObjectId)>;

  StructureReader(std::string_view text, WeakInstance& weak)
      : text_(text), reader_(text), weak_(weak) {}

  /// Reads the document, whose element must be <doc_tag>.
  Status Read(std::string_view doc_tag, const PartFn& part);

  XmlReader& reader() { return reader_; }
  /// The current object's type attribute, if it has one.
  const std::optional<std::string>& object_type() const { return type_name_; }
  /// Reads the current element's text as whitespace-separated object
  /// names, resolved against the current object's lch children first and
  /// the dictionary after.
  Result<IdSet> ReadChildSet();

 private:
  Status ReadTypes();
  Status ReadObject(ObjectId o, const PartFn& part);
  Status ReadLch(ObjectId o);

  std::string_view text_;
  XmlReader reader_;
  WeakInstance& weak_;
  std::optional<std::string> type_name_;
  // The current object's lch children by name: views of dictionary names,
  // which stay put because the second pass interns no object.
  std::vector<std::pair<std::string_view, ObjectId>> children_;
  bool children_sorted_ = true;
  std::vector<ObjectId> ids_;  // the ids ReadChildSet is collecting
};

}  // namespace xml_internal
}  // namespace pxml

#endif  // PXML_XML_XML_TEXT_H_
