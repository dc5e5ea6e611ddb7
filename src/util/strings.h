#ifndef PXML_UTIL_STRINGS_H_
#define PXML_UTIL_STRINGS_H_

#include <charconv>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace pxml {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// All of `text` as a T, read with std::from_chars: no sign on unsigned
/// types, no surrounding space, and nothing out of T's range.
template <class T>
std::optional<T> ParseWhole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// Streams all arguments into one string (a tiny StrCat).
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace pxml

#endif  // PXML_UTIL_STRINGS_H_
