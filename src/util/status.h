#ifndef PXML_UTIL_STATUS_H_
#define PXML_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace pxml {

/// Error categories used across the PXML library. Modeled after the
/// RocksDB/Arrow convention: fallible operations return a Status (or a
/// Result<T>, see below) instead of throwing exceptions.
enum class StatusCode {
  kOk = 0,
  /// A caller-supplied argument is malformed (e.g. a probability outside
  /// [0,1], an empty path expression).
  kInvalidArgument,
  /// A referenced entity (object, label, type, value) does not exist.
  kNotFound,
  /// The operation would violate a model invariant (e.g. a cyclic weak
  /// instance graph, an OPF that does not sum to 1).
  kFailedPrecondition,
  /// The operation is defined but not supported for this input shape
  /// (e.g. the efficient tree algorithms applied to a non-tree DAG).
  kUnimplemented,
  /// Parsing of a textual artifact (query, serialized instance) failed.
  kParseError,
  /// An I/O operation failed.
  kIoError,
  /// Anything else.
  kInternal,

  // --- Query-layer taxonomy (callers dispatch on these codes instead of
  // string-matching messages; see DESIGN.md §8).

  /// The weak instance graph is not a tree, so the efficient Section-6
  /// algorithms (ε-propagation, ancestor projection, selection) do not
  /// apply — fall back to the possible-worlds / sampling routes.
  kNotATree,
  /// A query referenced an object id that is not present in the instance
  /// (path start, point-query target, mutation target).
  kUnknownObject,
  /// A path expression is malformed for the requested operation: it does
  /// not start at the root, or a named target cannot satisfy it.
  kBadPath,
  /// The query raced a mutation through the QueryEngine facade; the
  /// answer would reflect neither the old nor the new instance. Retry.
  kStale,

  // --- Serving taxonomy (deadlines, budgets, admission; DESIGN.md §11).

  /// The caller's CancellationToken was tripped while the query ran; the
  /// query stopped within the bounded check interval. Not retryable
  /// unless the caller re-issues with a fresh token.
  kCancelled,
  /// The request's deadline expired before (or while) the query ran.
  /// Retry with a larger deadline, or not at all.
  kDeadlineExceeded,
  /// The query exhausted its per-query row-op budget mid-evaluation.
  /// Retry with a larger budget or a cheaper query shape.
  kResourceExhausted,
  /// The admission controller shed the batch before any query ran (too
  /// many in-flight batches, or the pre-dispatch cost estimate over the
  /// cap). Safe to retry later.
  kRejected,
};

/// Human-readable name of a status code ("InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotATree(std::string msg) {
    return Status(StatusCode::kNotATree, std::move(msg));
  }
  static Status UnknownObject(std::string msg) {
    return Status(StatusCode::kUnknownObject, std::move(msg));
  }
  static Status BadPath(std::string msg) {
    return Status(StatusCode::kBadPath, std::move(msg));
  }
  static Status Stale(std::string msg) {
    return Status(StatusCode::kStale, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Rejected(std::string msg) {
    return Status(StatusCode::kRejected, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// A value-or-error: holds either a T or a non-OK Status.
///
/// Usage:
///   Result<Foo> r = MakeFoo(...);
///   if (!r.ok()) return r.status();
///   Foo& foo = r.value();
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit by design, mirroring absl::StatusOr).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status. Aborts in debug builds if the status
  /// is OK (an OK Result must carry a value).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  /// The error status; Status::Ok() if a value is present.
  const Status& status() const { return status_; }

  /// Precondition: ok().
  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Moves the value out. Precondition: ok().
  T ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ present.
};

/// Propagates a non-OK Status from an expression to the caller.
#define PXML_RETURN_IF_ERROR(expr)                 \
  do {                                             \
    ::pxml::Status _pxml_status = (expr);          \
    if (!_pxml_status.ok()) return _pxml_status;   \
  } while (0)

/// Evaluates a Result<T> expression; on error returns its Status, otherwise
/// binds the (moved) value to `lhs`.
#define PXML_ASSIGN_OR_RETURN(lhs, expr)              \
  PXML_ASSIGN_OR_RETURN_IMPL_(                        \
      PXML_STATUS_CONCAT_(_pxml_result, __LINE__), lhs, expr)

#define PXML_STATUS_CONCAT_INNER_(a, b) a##b
#define PXML_STATUS_CONCAT_(a, b) PXML_STATUS_CONCAT_INNER_(a, b)
#define PXML_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).ValueOrDie()

}  // namespace pxml

#endif  // PXML_UTIL_STATUS_H_
