#include "query/parser.h"

#include <cstdlib>

#include "algebra/projection.h"
#include "algebra/selection.h"
#include "query/aggregates.h"
#include "query/point_queries.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// Splits "lhs <op> rhs" on the first comparison operator outside
/// parentheses; two-character operators (!=, <=, >=) are matched first.
Status SplitComparison(std::string_view text, std::string_view* lhs,
                       ValueOp* op, std::string_view* rhs) {
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') --depth;
    if (depth != 0) continue;
    std::size_t len = 0;
    if (text.substr(i, 2) == "!=") {
      *op = ValueOp::kNe;
      len = 2;
    } else if (text.substr(i, 2) == "<=") {
      *op = ValueOp::kLe;
      len = 2;
    } else if (text.substr(i, 2) == ">=") {
      *op = ValueOp::kGe;
      len = 2;
    } else if (text[i] == '=') {
      *op = ValueOp::kEq;
      len = 1;
    } else if (text[i] == '<') {
      *op = ValueOp::kLt;
      len = 1;
    } else if (text[i] == '>') {
      *op = ValueOp::kGt;
      len = 1;
    }
    if (len > 0) {
      *lhs = StripWhitespace(text.substr(0, i));
      *rhs = StripWhitespace(text.substr(i + len));
      return Status::Ok();
    }
  }
  return Status::ParseError(
      StrCat("expected a comparison operator in condition: '", text, "'"));
}

/// Parses a count by the XML reader's rule: the whole token is an
/// unsigned decimal below 2^32.
Result<std::uint32_t> ParseCount(std::string_view text) {
  const std::string_view token = StripWhitespace(text);
  if (std::optional<std::uint32_t> v = ParseWhole<std::uint32_t>(token)) {
    return *v;
  }
  return Status::ParseError(StrCat(
      "expected an unsigned decimal below 2^32, got '", token, "'"));
}

/// Parses "count(path, label) in [lo,hi]" or "count(path, label) <op> k".
Result<SelectionCondition> ParseCardinalityCondition(const Dictionary& dict,
                                                     std::string_view text) {
  std::size_t close = text.find(')');
  if (close == std::string_view::npos) {
    return Status::ParseError("expected ')' in count(...)");
  }
  std::string_view inner = text.substr(6, close - 6);  // after "count("
  std::size_t comma = inner.rfind(',');
  if (comma == std::string_view::npos) {
    return Status::ParseError("count(...) needs 'path, label'");
  }
  PXML_ASSIGN_OR_RETURN(
      PathExpression path,
      ParsePathExpression(dict, StripWhitespace(inner.substr(0, comma))));
  std::string label_name(StripWhitespace(inner.substr(comma + 1)));
  auto label = dict.FindLabel(label_name);
  if (!label.has_value()) {
    return Status::NotFound(
        StrCat("'", label_name, "' is not a known label"));
  }
  std::string_view rest = StripWhitespace(text.substr(close + 1));
  IntInterval range;
  if (StartsWith(rest, "in ") || StartsWith(rest, "in[")) {
    std::string_view spec = StripWhitespace(rest.substr(2));
    if (spec.size() < 2 || spec.front() != '[' || spec.back() != ']') {
      return Status::ParseError("expected '[lo,hi]' after 'in'");
    }
    spec = spec.substr(1, spec.size() - 2);
    std::size_t mid = spec.find(',');
    if (mid == std::string_view::npos) {
      return Status::ParseError("expected '[lo,hi]'");
    }
    PXML_ASSIGN_OR_RETURN(std::uint32_t lo,
                          ParseCount(spec.substr(0, mid)));
    std::string_view hi_text = StripWhitespace(spec.substr(mid + 1));
    std::uint32_t hi = IntInterval::kUnbounded;
    if (hi_text != "*") {
      PXML_ASSIGN_OR_RETURN(hi, ParseCount(hi_text));
    }
    range = IntInterval(lo, hi);
  } else {
    std::string_view lhs_unused;
    std::string_view rhs;
    ValueOp op;
    PXML_RETURN_IF_ERROR(SplitComparison(rest, &lhs_unused, &op, &rhs));
    PXML_ASSIGN_OR_RETURN(std::uint32_t k, ParseCount(rhs));
    switch (op) {
      case ValueOp::kEq:
        range = IntInterval(k, k);
        break;
      case ValueOp::kLe:
        range = IntInterval(0, k);
        break;
      case ValueOp::kLt:
        if (k == 0) return Status::ParseError("count < 0 is unsatisfiable");
        range = IntInterval(0, k - 1);
        break;
      case ValueOp::kGe:
        range = IntInterval(k, IntInterval::kUnbounded);
        break;
      case ValueOp::kGt:
        if (k == IntInterval::kUnbounded) {
          return Status::ParseError(
              "count > 4294967295 is unsatisfiable");
        }
        range = IntInterval(k + 1, IntInterval::kUnbounded);
        break;
      case ValueOp::kNe:
        return Status::ParseError(
            "count != k is not an interval condition");
    }
  }
  if (!range.valid()) {
    return Status::ParseError("invalid count interval");
  }
  return SelectionCondition::CardinalityIn(std::move(path), *label, range);
}

}  // namespace

Result<PathExpression> ParsePathExpression(const Dictionary& dict,
                                           std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) {
    return Status::ParseError("empty path expression");
  }
  std::vector<std::string> parts = StrSplit(text, '.');
  for (const std::string& part : parts) {
    if (part.empty()) {
      return Status::ParseError(
          StrCat("empty component in path '", text, "'"));
    }
  }
  PathExpression path;
  auto start = dict.FindObject(parts[0]);
  if (!start.has_value()) {
    return Status::NotFound(
        StrCat("path start '", parts[0], "' is not a known object"));
  }
  path.start = *start;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    auto label = dict.FindLabel(parts[i]);
    if (!label.has_value()) {
      return Status::NotFound(
          StrCat("'", parts[i], "' is not a known label"));
    }
    path.labels.push_back(*label);
  }
  return path;
}

Value ParseValueLiteral(std::string_view text) {
  text = StripWhitespace(text);
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    return Value(std::string(text.substr(1, text.size() - 2)));
  }
  if (text == "true") return Value(true);
  if (text == "false") return Value(false);
  std::string s(text);
  char* end = nullptr;
  long long i = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() && *end == '\0') {
    return Value(static_cast<std::int64_t>(i));
  }
  end = nullptr;
  double d = std::strtod(s.c_str(), &end);
  if (end != s.c_str() && *end == '\0') return Value(d);
  return Value(std::move(s));
}

Result<SelectionCondition> ParseSelectionCondition(const Dictionary& dict,
                                                   std::string_view text) {
  text = StripWhitespace(text);
  if (StartsWith(text, "count(")) {
    return ParseCardinalityCondition(dict, text);
  }
  std::string_view lhs;
  std::string_view rhs;
  ValueOp op = ValueOp::kEq;
  PXML_RETURN_IF_ERROR(SplitComparison(text, &lhs, &op, &rhs));
  if (StartsWith(lhs, "val(")) {
    if (lhs.back() != ')') {
      return Status::ParseError(
          StrCat("expected closing ')' in '", lhs, "'"));
    }
    std::string_view inner = lhs.substr(4, lhs.size() - 5);
    PXML_ASSIGN_OR_RETURN(PathExpression path,
                          ParsePathExpression(dict, inner));
    return SelectionCondition::ValueCompare(std::move(path), op,
                                            ParseValueLiteral(rhs));
  }
  if (op != ValueOp::kEq) {
    return Status::ParseError(
        "object conditions only support '=' (p = o)");
  }
  PXML_ASSIGN_OR_RETURN(PathExpression path, ParsePathExpression(dict, lhs));
  auto object = dict.FindObject(std::string(rhs));
  if (!object.has_value()) {
    return Status::NotFound(
        StrCat("'", rhs, "' is not a known object"));
  }
  return SelectionCondition::ObjectEquals(std::move(path), *object);
}

std::string Query::ToString(const Dictionary& dict) const {
  switch (kind) {
    case Kind::kAncestorProject:
      return StrCat("project ", path.ToString(dict));
    case Kind::kDescendantProject:
      return StrCat("project descendant ", path.ToString(dict));
    case Kind::kSingleProject:
      return StrCat("project single ", path.ToString(dict));
    case Kind::kSelect:
      return StrCat("select ", condition.ToString(dict));
    case Kind::kPointProbability:
      return StrCat("prob ", path.ToString(dict), " = ",
                    dict.ObjectName(object));
    case Kind::kExistsProbability:
      return StrCat("prob exists ", path.ToString(dict));
    case Kind::kValueProbability:
    case Kind::kCountProbability:
      return StrCat("prob ", condition.ToString(dict));
    case Kind::kCountDistribution:
      return StrCat("dist ", path.ToString(dict));
  }
  return "<invalid query>";
}

Result<Query> ParseQuery(const Dictionary& dict, std::string_view text) {
  text = StripWhitespace(text);
  Query query;
  if (StartsWith(text, "project ")) {
    std::string_view rest = StripWhitespace(text.substr(8));
    if (StartsWith(rest, "descendant ")) {
      query.kind = Query::Kind::kDescendantProject;
      rest = StripWhitespace(rest.substr(11));
    } else if (StartsWith(rest, "single ")) {
      query.kind = Query::Kind::kSingleProject;
      rest = StripWhitespace(rest.substr(7));
    } else {
      query.kind = Query::Kind::kAncestorProject;
    }
    PXML_ASSIGN_OR_RETURN(query.path, ParsePathExpression(dict, rest));
    return query;
  }
  if (StartsWith(text, "select ")) {
    query.kind = Query::Kind::kSelect;
    PXML_ASSIGN_OR_RETURN(
        query.condition, ParseSelectionCondition(dict, text.substr(7)));
    query.path = query.condition.path;
    return query;
  }
  if (StartsWith(text, "dist ")) {
    query.kind = Query::Kind::kCountDistribution;
    PXML_ASSIGN_OR_RETURN(query.path,
                          ParsePathExpression(dict, text.substr(5)));
    return query;
  }
  if (StartsWith(text, "prob ")) {
    std::string_view rest = StripWhitespace(text.substr(5));
    if (StartsWith(rest, "exists ")) {
      query.kind = Query::Kind::kExistsProbability;
      PXML_ASSIGN_OR_RETURN(query.path,
                            ParsePathExpression(dict, rest.substr(7)));
      return query;
    }
    PXML_ASSIGN_OR_RETURN(SelectionCondition cond,
                          ParseSelectionCondition(dict, rest));
    query.path = cond.path;
    query.condition = cond;
    switch (cond.kind) {
      case SelectionCondition::Kind::kObject:
        query.kind = Query::Kind::kPointProbability;
        query.object = cond.object;
        break;
      case SelectionCondition::Kind::kValue:
        query.kind = Query::Kind::kValueProbability;
        query.value = cond.value;
        break;
      case SelectionCondition::Kind::kCardinality:
        query.kind = Query::Kind::kCountProbability;
        break;
    }
    return query;
  }
  return Status::ParseError(StrCat(
      "unrecognized query '", text,
      "' (expected: project / project descendant / select / prob / "
      "dist)"));
}

namespace {

/// Probability queries prefer the tree-only ε-propagation; on DAG-shaped
/// instances (kNotATree from the tree check) they fall back to the exact
/// possible-worlds oracle, which is exponential but always correct for
/// instances small enough to enumerate.
Result<double> ProbabilityWithFallback(const ProbabilisticInstance& instance,
                                       const SelectionCondition& condition) {
  Result<double> fast = ConditionProbability(instance, condition);
  if (fast.ok() || fast.status().code() != StatusCode::kNotATree) {
    return fast;
  }
  return ConditionProbabilityViaWorlds(instance, condition);
}

}  // namespace

Result<QueryOutput> ExecuteQuery(const ProbabilisticInstance& instance,
                                 const Query& query) {
  QueryOutput out;
  switch (query.kind) {
    case Query::Kind::kAncestorProject: {
      PXML_ASSIGN_OR_RETURN(out.instance,
                            AncestorProject(instance, query.path));
      return out;
    }
    case Query::Kind::kDescendantProject: {
      PXML_ASSIGN_OR_RETURN(out.instance,
                            DescendantProject(instance, query.path));
      return out;
    }
    case Query::Kind::kSingleProject: {
      PXML_ASSIGN_OR_RETURN(out.instance,
                            SingleProject(instance, query.path));
      return out;
    }
    case Query::Kind::kSelect: {
      PXML_ASSIGN_OR_RETURN(out.instance,
                            Select(instance, query.condition));
      return out;
    }
    case Query::Kind::kPointProbability: {
      PXML_ASSIGN_OR_RETURN(
          out.probability,
          ProbabilityWithFallback(
              instance,
              SelectionCondition::ObjectEquals(query.path, query.object)));
      return out;
    }
    case Query::Kind::kExistsProbability: {
      Result<double> fast = ExistsQuery(instance, query.path);
      if (!fast.ok() && fast.status().code() == StatusCode::kNotATree) {
        fast = ExistsQueryViaWorlds(instance, query.path);
      }
      PXML_ASSIGN_OR_RETURN(out.probability, std::move(fast));
      return out;
    }
    case Query::Kind::kValueProbability:
    case Query::Kind::kCountProbability: {
      PXML_ASSIGN_OR_RETURN(
          out.probability,
          ProbabilityWithFallback(instance, query.condition));
      return out;
    }
    case Query::Kind::kCountDistribution: {
      PXML_ASSIGN_OR_RETURN(out.distribution,
                            CountDistribution(instance, query.path));
      return out;
    }
  }
  return Status::Internal("unknown query kind");
}

}  // namespace pxml
