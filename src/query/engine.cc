#include "query/engine.h"

#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <deque>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "query/frozen.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// Process CPU seconds across all threads (CLOCK_PROCESS_CPUTIME_ID).
double ProcessCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Status StaleStatus() {
  return Status::Stale(
      "a mutation is in progress on this engine (require_latest)");
}

// Epoch lifecycle metrics (cumulative across every engine in the
// process). live_snapshots is the number of Epoch objects currently
// alive — head epochs plus retired-but-still-pinned ones — so a steady
// value across an epoch-churning workload is the observable reclamation
// proof the leak tests assert on.
obs::Counter& EpochsPublished() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.epochs_published");
  return c;
}
obs::Counter& EpochsRetired() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.epochs_retired");
  return c;
}
obs::Gauge& LiveSnapshots() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("pxml.engine.live_snapshots");
  return g;
}
obs::Counter& ReaderPins() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.reader_pins");
  return c;
}
obs::Histogram& SnapshotAge() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("pxml.engine.snapshot_age_epochs");
  return h;
}
// Time a retiring epoch spends releasing its instance and frozen form,
// paid by whichever thread drops the last reference (often a reader).
obs::Histogram& EpochReclaimNs() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("pxml.engine.epoch_reclaim_ns");
  return h;
}

// Serving counters (DESIGN.md §11). admitted/rejected count *batches* at
// the admission decision; deadline_exceeded/cancelled/budget_exhausted
// count individual *queries* whose final status carries the trip code
// (including the fail-fast paths that answer a batch without dispatch).
obs::Counter& AdmittedBatches() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.admitted");
  return c;
}
obs::Counter& RejectedBatches() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.rejected");
  return c;
}
obs::Counter& DeadlineExceededQueries() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.deadline_exceeded");
  return c;
}
obs::Counter& CancelledQueries() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.cancelled");
  return c;
}
obs::Counter& BudgetExhaustedQueries() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.budget_exhausted");
  return c;
}
/// Arrival-to-shed latency of batches the admission controller turned
/// away — how long callers burn before learning they were shed.
obs::Histogram& ShedWaitNs() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("pxml.engine.shed_wait_ns");
  return h;
}
/// Live admitted-batch population (Increment on every successful Admit,
/// Decrement in ReleaseAdmission — reads 0 when the process is idle).
/// Cumulative across engines, like every registry metric.
obs::Gauge& InflightGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("pxml.engine.inflight");
  return g;
}
/// Executor backlog (queries of running batches that no thread has
/// claimed yet) sampled at each batch arrival, so an operator can see the
/// pressure a batch arrived into.
obs::Gauge& BacklogGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("pxml.engine.backlog");
  return g;
}
/// Queries the tail sampler retained into a slow-query log.
obs::Counter& SlowQueriesRetained() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.slow_queries");
  return c;
}

/// Folds a 128-bit canonical fingerprint into the flight record's word.
std::uint64_t FoldFp(const Fingerprint& fp) { return fp.lo ^ fp.hi; }

std::int8_t ClampPriority(int priority) {
  if (priority > 127) return 127;
  if (priority < -128) return -128;
  return static_cast<std::int8_t>(priority);
}

/// Whether a status is a serving trip (deadline/budget/cancel/admission/
/// staleness) as opposed to a query-shape error — the slow-query log's
/// "reason" classification.
bool IsServingTrip(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
    case StatusCode::kRejected:
    case StatusCode::kStale:
      return true;
    default:
      return false;
  }
}

/// Tallies one answer's serving trip code (no-op for every other code).
void CountTripCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      DeadlineExceededQueries().Increment();
      break;
    case StatusCode::kCancelled:
      CancelledQueries().Increment();
      break;
    case StatusCode::kResourceExhausted:
      BudgetExhaustedQueries().Increment();
      break;
    default:
      break;
  }
}

const char* KindName(BatchQuery::Kind kind) {
  switch (kind) {
    case BatchQuery::Kind::kPoint:
      return "point";
    case BatchQuery::Kind::kExists:
      return "exists";
    case BatchQuery::Kind::kValue:
      return "value";
    case BatchQuery::Kind::kCondition:
      return "condition";
    case BatchQuery::Kind::kAncestorProject:
      return "ancestor_project";
  }
  return "unknown";
}

/// Span names must be static strings (SpanRecord stores the pointer).
const char* QuerySpanName(BatchQuery::Kind kind) {
  switch (kind) {
    case BatchQuery::Kind::kPoint:
      return "query:point";
    case BatchQuery::Kind::kExists:
      return "query:exists";
    case BatchQuery::Kind::kValue:
      return "query:value";
    case BatchQuery::Kind::kCondition:
      return "query:condition";
    case BatchQuery::Kind::kAncestorProject:
      return "query:ancestor_project";
  }
  return "query:unknown";
}

/// Answers every query of a batch with one status without dispatching
/// anything — the fail-fast and shed paths. Trip codes are tallied here
/// (per query, same rule as the dispatched path).
std::vector<BatchAnswer> AnswerAll(const std::vector<BatchQuery>& queries,
                                   const Status& status, std::size_t threads,
                                   BatchStats* stats) {
  std::vector<BatchAnswer> answers(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    answers[i].status = status;
    answers[i].profile.kind = KindName(queries[i].kind);
    CountTripCode(status);
  }
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->threads = threads;
  }
  return answers;
}

// ---- Canonical query fingerprints (DESIGN.md §12). Two batch queries
// with the same canonical fingerprint run the *same evaluation*: kPoint
// and an object-equals kCondition both dispatch to PointQuery, and kValue
// is exactly a ValueCompare/kEq condition (ValueQuery forwards there).
// The fingerprint mixes the full content of every input the evaluation
// reads — path (start + every label), target object, comparison op, the
// value's kind and complete bit pattern, cardinality label and range —
// so equal fingerprints mean equal answers by construction (up to a
// 2^-128 mixing-collision bound). It is the answer-cache key and the
// flight record's fingerprint.

/// How a query will be evaluated, independent of the BatchQuery kind
/// that spelled it.
enum class CanonicalForm : std::uint64_t {
  kPoint = 1,        // PointQuery: kPoint, or kCondition with kObject
  kExists = 2,       // ExistsQuery
  kValueCmp = 3,     // value comparison: kValue, or kCondition with kValue
  kCardinality = 4,  // kCondition with kCardinality
  kProject = 5,      // AncestorProject
};

void MixPath(const PathExpression& path, Fingerprint* fp) {
  fp->Mix(static_cast<std::uint64_t>(path.start));
  fp->Mix(path.labels.size());
  for (LabelId l : path.labels) fp->Mix(static_cast<std::uint64_t>(l));
}

/// Absorbs kind + complete content (length-prefixed bytes for strings,
/// exact bit patterns for numerics — Value::Hash() folds to one word and
/// is not collision-safe enough to stand alone as a cache identity).
void MixValue(const Value& value, Fingerprint* fp) {
  fp->Mix(static_cast<std::uint64_t>(value.kind()));
  switch (value.kind()) {
    case Value::Kind::kString: {
      const std::string& s = value.AsString();
      fp->Mix(s.size());
      std::uint64_t word = 0;
      int filled = 0;
      for (char c : s) {
        word = (word << 8) | static_cast<unsigned char>(c);
        if (++filled == 8) {
          fp->Mix(word);
          word = 0;
          filled = 0;
        }
      }
      if (filled != 0) fp->Mix(word);
      break;
    }
    case Value::Kind::kInt:
      fp->Mix(static_cast<std::uint64_t>(value.AsInt()));
      break;
    case Value::Kind::kDouble:
      fp->MixDouble(value.AsDouble());
      break;
    case Value::Kind::kBool:
      fp->Mix(value.AsBool() ? 1 : 0);
      break;
  }
}

Fingerprint CanonicalFingerprint(const BatchQuery& q) {
  CanonicalForm form = CanonicalForm::kExists;
  const PathExpression* path = &q.path;
  ObjectId object = kInvalidId;
  ValueOp op = ValueOp::kEq;
  const Value* value = nullptr;
  LabelId count_label = kInvalidId;
  IntInterval count_range;
  switch (q.kind) {
    case BatchQuery::Kind::kPoint:
      form = CanonicalForm::kPoint;
      object = q.object;
      break;
    case BatchQuery::Kind::kExists:
      form = CanonicalForm::kExists;
      break;
    case BatchQuery::Kind::kValue:
      form = CanonicalForm::kValueCmp;
      value = &q.value;
      break;
    case BatchQuery::Kind::kAncestorProject:
      form = CanonicalForm::kProject;
      break;
    case BatchQuery::Kind::kCondition:
      path = &q.condition.path;
      switch (q.condition.kind) {
        case SelectionCondition::Kind::kObject:
          form = CanonicalForm::kPoint;
          object = q.condition.object;
          break;
        case SelectionCondition::Kind::kValue:
          form = CanonicalForm::kValueCmp;
          op = q.condition.value_op;
          value = &q.condition.value;
          break;
        case SelectionCondition::Kind::kCardinality:
          form = CanonicalForm::kCardinality;
          count_label = q.condition.count_label;
          count_range = q.condition.count_range;
          break;
      }
      break;
  }
  Fingerprint fp;
  fp.Mix(static_cast<std::uint64_t>(form));
  MixPath(*path, &fp);
  switch (form) {
    case CanonicalForm::kPoint:
      fp.Mix(static_cast<std::uint64_t>(object));
      break;
    case CanonicalForm::kValueCmp:
      fp.Mix(static_cast<std::uint64_t>(op));
      MixValue(*value, &fp);
      break;
    case CanonicalForm::kCardinality:
      fp.Mix(static_cast<std::uint64_t>(count_label));
      fp.Mix(count_range.min());
      fp.Mix(count_range.max());
      break;
    case CanonicalForm::kExists:
    case CanonicalForm::kProject:
      break;
  }
  return fp;
}

/// Rough resident-byte estimate for a cached projection: the answer
/// cache bounds an estimate, not a malloc audit (see AnswerCache), and a
/// projected instance's footprint scales with its object count.
constexpr std::size_t kProjectionBytesPerObject = 128;

std::size_t AnswerPayloadBytes(const BatchAnswer& answer) {
  if (!answer.projection.has_value()) return 0;
  return answer.projection->weak().dict().num_objects() *
         kProjectionBytesPerObject;
}

obs::Counter& QueriesCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.queries");
  return c;
}
obs::Counter& QueriesFailedCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.engine.queries_failed");
  return c;
}

}  // namespace

BatchQuery BatchQuery::Point(PathExpression p, ObjectId o) {
  BatchQuery q;
  q.kind = Kind::kPoint;
  q.path = std::move(p);
  q.object = o;
  return q;
}

BatchQuery BatchQuery::Exists(PathExpression p) {
  BatchQuery q;
  q.kind = Kind::kExists;
  q.path = std::move(p);
  return q;
}

BatchQuery BatchQuery::ValueEquals(PathExpression p, Value v) {
  BatchQuery q;
  q.kind = Kind::kValue;
  q.path = std::move(p);
  q.value = std::move(v);
  return q;
}

BatchQuery BatchQuery::Condition(SelectionCondition c) {
  BatchQuery q;
  q.kind = Kind::kCondition;
  q.condition = std::move(c);
  return q;
}

BatchQuery BatchQuery::AncestorProjection(PathExpression p) {
  BatchQuery q;
  q.kind = Kind::kAncestorProject;
  q.path = std::move(p);
  return q;
}

namespace {

/// Strict full-string integer parse ([-]digits only, no trailing junk).
template <typename Int>
bool ParseInt(std::string_view text, Int* out) {
  if (text.empty()) return false;
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

Status ApplyRequestFlag(std::string_view flag, QueryRequest* request) {
  const std::size_t eq = flag.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return Status::InvalidArgument(
        StrCat("request flag '", std::string(flag), "' is not key=value"));
  }
  const std::string_view key = flag.substr(0, eq);
  const std::string_view value = flag.substr(eq + 1);
  if (key == "deadline-ms") {
    std::uint64_t ms = 0;
    if (!ParseInt(value, &ms)) {
      return Status::InvalidArgument(
          StrCat("deadline-ms wants a non-negative integer, got '",
                 std::string(value), "'"));
    }
    request->deadline =
        QueryRequest::Clock::now() + std::chrono::milliseconds(ms);
  } else if (key == "row-op-budget") {
    std::uint64_t budget = 0;
    if (!ParseInt(value, &budget)) {
      return Status::InvalidArgument(
          StrCat("row-op-budget wants a non-negative integer, got '",
                 std::string(value), "'"));
    }
    request->row_op_budget = budget;
  } else if (key == "priority") {
    int priority = 0;
    if (!ParseInt(value, &priority)) {
      return Status::InvalidArgument(StrCat(
          "priority wants an integer, got '", std::string(value), "'"));
    }
    request->priority = priority;
  } else if (key == "require-latest") {
    if (value == "1") {
      request->require_latest = true;
    } else if (value == "0") {
      request->require_latest = false;
    } else {
      return Status::InvalidArgument(StrCat(
          "require-latest wants 0 or 1, got '", std::string(value), "'"));
    }
  } else {
    return Status::InvalidArgument(
        StrCat("unknown request flag key '", std::string(key), "'"));
  }
  return Status::Ok();
}

struct QueryEngine::Epoch {
  std::shared_ptr<const ProbabilisticInstance> instance;
  std::shared_ptr<const FrozenInstance> frozen;  // null: generic dispatch
  std::uint64_t id = 0;
  /// The engine's answer cache (null when off): retirement eagerly drops
  /// every answer cached against this epoch — no reader can ever pin it
  /// again, so its entries are dead weight the moment the refcount hits
  /// zero. The engine outlives its epochs (head_ is declared after
  /// answer_cache_, and every pinning reader runs inside the engine), so
  /// the raw pointer cannot dangle.
  AnswerCache* answer_cache = nullptr;

  Epoch() { LiveSnapshots().Increment(); }
  Epoch(const Epoch&) = delete;
  Epoch& operator=(const Epoch&) = delete;
  // Reclamation is refcount-driven: the last release — whichever of the
  // head pointer or a pinning reader lets go last — lands here.
  ~Epoch() {
    const auto t0 = std::chrono::steady_clock::now();
    instance.reset();
    frozen.reset();
    EpochReclaimNs().Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    if (answer_cache != nullptr) answer_cache->DropEpoch(id);
    LiveSnapshots().Decrement();
    EpochsRetired().Increment();
  }
};

namespace {

BatchOptions ResolveThreads(BatchOptions options) {
  if (options.threads == 0) {
    options.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return options;
}

}  // namespace

QueryEngine::QueryEngine(ProbabilisticInstance instance, BatchOptions options)
    : options_(ResolveThreads(options)),
      executor_(options_.threads > 1 ? options_.threads : 0) {
  if (options_.answer_cache) {
    answer_cache_ = std::make_unique<AnswerCache>();
  }
  if (options_.frozen) {
    scratch_pool_ = std::make_unique<EpsilonScratchPool>();
  }
  recorder_ =
      std::make_unique<obs::FlightRecorder>(options_.flight_recorder_capacity);
  slow_log_ = std::make_unique<obs::SlowQueryLog>();
  auto inst =
      std::make_shared<const ProbabilisticInstance>(std::move(instance));
  auto epoch = std::make_shared<Epoch>();
  epoch->answer_cache = answer_cache_.get();
  epoch->frozen = BuildFrozen(*inst, nullptr);
  epoch->id = 1;
  epoch->instance = std::move(inst);
  head_ = std::move(epoch);
  head_epoch_.store(1, std::memory_order_release);
  EpochsPublished().Increment();
}

QueryEngine::~QueryEngine() = default;

const ProbabilisticInstance& QueryEngine::instance() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return *head_->instance;
}

AnswerCache::Stats QueryEngine::answer_cache_stats() const {
  return answer_cache_ != nullptr ? answer_cache_->stats()
                                  : AnswerCache::Stats{};
}

std::size_t QueryEngine::answer_cache_bytes_used() const {
  return answer_cache_ != nullptr ? answer_cache_->bytes_used() : 0;
}

std::shared_ptr<const FrozenInstance> QueryEngine::BuildFrozen(
    const ProbabilisticInstance& instance, const Epoch* prev) const {
  if (!options_.frozen || scratch_pool_ == nullptr) return nullptr;
  if (prev != nullptr && prev->frozen != nullptr &&
      prev->frozen->frozen_structure_version() ==
          instance.structure_version()) {
    // ℘-only history since prev: carry the clean kernels forward and
    // recompile only the dirty spine. Falls back to a full Freeze below
    // if the incremental path declines.
    Result<FrozenInstance> rf =
        FrozenInstance::Refreeze(*prev->frozen, instance);
    if (rf.ok()) {
      return std::make_shared<const FrozenInstance>(
          std::move(rf).ValueOrDie());
    }
  }
  Result<FrozenInstance> fz = FrozenInstance::Freeze(instance);
  if (!fz.ok()) return nullptr;  // generic dispatch for this epoch
  return std::make_shared<const FrozenInstance>(std::move(fz).ValueOrDie());
}

std::shared_ptr<const QueryEngine::Epoch> QueryEngine::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  ReaderPins().Increment();
  return head_;
}

void QueryEngine::Publish(std::shared_ptr<const ProbabilisticInstance> next) {
  // Single writer (the caller holds writer_mu_), so head_ cannot move
  // under us; compile the next frozen form outside the head mutex so
  // readers keep pinning meanwhile.
  std::shared_ptr<const Epoch> prev;
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    prev = head_;
  }
  auto epoch = std::make_shared<Epoch>();
  epoch->answer_cache = answer_cache_.get();
  epoch->frozen = BuildFrozen(*next, prev.get());
  epoch->id = prev->id + 1;
  epoch->instance = std::move(next);
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    head_ = std::move(epoch);
    head_epoch_.store(prev->id + 1, std::memory_order_release);
  }
  EpochsPublished().Increment();
}

std::unique_ptr<obs::TraceSession> QueryEngine::AcquireTraceSession() const {
  std::unique_ptr<obs::TraceSession> session;
  {
    std::lock_guard<std::mutex> lock(trace_pool_mu_);
    if (!trace_pool_.empty()) {
      session = std::move(trace_pool_.back());
      trace_pool_.pop_back();
    }
  }
  if (session == nullptr) {
    session = std::make_unique<obs::TraceSession>();
  } else {
    // Reset at acquire (not release) so the session epoch is the query's
    // start — spans read as offsets into this query.
    session->Reset();
  }
  return session;
}

void QueryEngine::ReleaseTraceSession(
    std::unique_ptr<obs::TraceSession> session) const {
  std::lock_guard<std::mutex> lock(trace_pool_mu_);
  trace_pool_.push_back(std::move(session));
}

BatchAnswer QueryEngine::ExecuteOne(const BatchQuery& query,
                                    const ProbabilisticInstance& instance,
                                    ProjectionStats* projection_stats,
                                    EpsilonStats* eps_stats,
                                    const FrozenInstance* frozen,
                                    obs::TraceSession* trace,
                                    QueryControl* control,
                                    std::uint64_t epoch_id) const {
  // An explicit caller trace always wins over tail sampling: the caller
  // gets the whole batch's span tree exactly as before, and the sampler
  // stays out of the way.
  if (options_.slow_query_ns == 0 || trace != nullptr) {
    return ExecuteOneTraced(query, instance, projection_stats, eps_stats,
                            frozen, trace, control);
  }
  std::unique_ptr<obs::TraceSession> session = AcquireTraceSession();
  BatchAnswer answer = ExecuteOneTraced(query, instance, projection_stats,
                                        eps_stats, frozen, session.get(),
                                        control);
  // The root "query:<kind>" span is closed by now (it lives inside
  // ExecuteOneTraced), so the serialized tree is complete.
  const std::uint64_t wall_ns =
      static_cast<std::uint64_t>(answer.profile.wall_seconds * 1e9);
  if (!answer.status.ok() || wall_ns >= options_.slow_query_ns) {
    obs::SlowQueryEntry entry;
    entry.epoch = epoch_id;
    entry.fingerprint = FoldFp(CanonicalFingerprint(query));
    entry.wall_ns = wall_ns;
    entry.row_ops = answer.profile.opf_row_ops;
    entry.kind = static_cast<std::uint8_t>(query.kind);
    entry.status = static_cast<std::uint8_t>(answer.status.code());
    entry.reason = answer.status.ok()
                       ? "slow"
                       : (IsServingTrip(answer.status.code()) ? "trip"
                                                              : "error");
    entry.dispatch = answer.profile.dispatch;
    entry.trace_json = session->ToChromeTraceJson();
    slow_log_->Retain(std::move(entry));
    SlowQueriesRetained().Increment();
  }
  // The sampled session is recycled, so the span index would dangle;
  // the retained trace_json is the artifact that survives.
  answer.profile.span = obs::kNoSpan;
  ReleaseTraceSession(std::move(session));
  return answer;
}

BatchAnswer QueryEngine::ExecuteOneTraced(const BatchQuery& query,
                                          const ProbabilisticInstance& instance,
                                          ProjectionStats* projection_stats,
                                          EpsilonStats* eps_stats,
                                          const FrozenInstance* frozen,
                                          obs::TraceSession* trace,
                                          QueryControl* control) const {
  const auto t0 = std::chrono::steady_clock::now();
  obs::TraceSpan query_span(trace, QuerySpanName(query.kind));

  // Each query leases its own scratch arena: concurrent batch queries get
  // private buffers, returned (warm) to the pool when the query finishes.
  EpsilonHooks query_hooks{eps_stats};
  query_hooks.trace = trace;
  query_hooks.control = control;
  std::optional<EpsilonScratchPool::Lease> lease;
  if (frozen != nullptr && scratch_pool_ != nullptr) {
    lease.emplace(scratch_pool_->Acquire());
    query_hooks.frozen = frozen;
    query_hooks.scratch = lease->get();
  }

  BatchAnswer answer;
  // Claim check: a query whose batch tripped (deadline, token) before a
  // thread claimed it is answered without running a single pass.
  if (control != nullptr) {
    answer.status = control->CheckNow();
  }
  if (!answer.status.ok()) {
    // Fall through to the profile fill below — shed queries still get a
    // profile (kind, wall time, epoch) and count on the query metrics.
  } else switch (query.kind) {
    case BatchQuery::Kind::kPoint: {
      Result<double> p =
          PointQuery(instance, query.path, query.object, query_hooks);
      if (p.ok()) {
        answer.probability = *p;
      } else {
        answer.status = p.status();
      }
      break;
    }
    case BatchQuery::Kind::kExists: {
      Result<double> p = ExistsQuery(instance, query.path, query_hooks);
      if (p.ok()) {
        answer.probability = *p;
      } else {
        answer.status = p.status();
      }
      break;
    }
    case BatchQuery::Kind::kValue: {
      Result<double> p =
          ValueQuery(instance, query.path, query.value, query_hooks);
      if (p.ok()) {
        answer.probability = *p;
      } else {
        answer.status = p.status();
      }
      break;
    }
    case BatchQuery::Kind::kCondition: {
      Result<double> p =
          pxml::ConditionProbability(instance, query.condition, query_hooks);
      if (p.ok()) {
        answer.probability = *p;
      } else {
        answer.status = p.status();
      }
      break;
    }
    case BatchQuery::Kind::kAncestorProject: {
      Result<ProbabilisticInstance> projected =
          AncestorProject(instance, query.path, projection_stats,
                          query_hooks.frozen, trace, control);
      if (projected.ok()) {
        answer.projection = std::move(projected).ValueOrDie();
      } else {
        answer.status = projected.status();
      }
      break;
    }
  }

  // The profile reads the same per-query tallies the registry metrics
  // were flushed from, so the three views (profile, BatchStats, registry
  // deltas) always agree.
  QueryProfile& prof = answer.profile;
  prof.kind = KindName(query.kind);
  prof.span = query_span.index();
  prof.epsilon_recomputed = eps_stats->recomputed;
  prof.frozen_passes =
      eps_stats->frozen_passes + projection_stats->frozen_passes;
  prof.generic_passes = eps_stats->generic_passes;
  if (query.kind == BatchQuery::Kind::kAncestorProject &&
      answer.status.ok() && projection_stats->frozen_passes == 0) {
    // A completed projection whose marginalization did not run frozen ran
    // the generic interpreter (the pass itself has no tally slot).
    ++prof.generic_passes;
  }
  if (prof.frozen_passes > 0) {
    prof.dispatch = prof.generic_passes > 0 ? "mixed" : "frozen";
    if (frozen != nullptr) prof.kernel = frozen->KernelMix();
  }
  prof.opf_row_ops = eps_stats->opf_row_ops + projection_stats->opf_row_ops;
  prof.entries_materialized = eps_stats->entries_materialized +
                              projection_stats->entries_materialized;
  prof.bytes_allocated =
      eps_stats->bytes_allocated + projection_stats->bytes_allocated;
  prof.locate_seconds = projection_stats->locate_seconds;
  prof.update_seconds = projection_stats->update_seconds;
  prof.structure_seconds = projection_stats->structure_seconds;
  prof.kept_objects = projection_stats->kept_objects;
  prof.processed_entries = projection_stats->processed_entries;
  prof.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  {
    using obs::Registry;
    static obs::Counter& c_queries =
        Registry::Global().GetCounter("pxml.engine.queries");
    static obs::Counter& c_failed =
        Registry::Global().GetCounter("pxml.engine.queries_failed");
    static obs::Histogram& h_latency =
        Registry::Global().GetHistogram("pxml.engine.query_ns");
    c_queries.Increment();
    if (!answer.status.ok()) c_failed.Increment();
    h_latency.Record(static_cast<std::uint64_t>(prof.wall_seconds * 1e9));
  }
  if (query_span.enabled()) {
    query_span.Arg("kind", prof.kind);
    query_span.Arg("dispatch", prof.dispatch);
    query_span.Arg("ok", static_cast<std::uint64_t>(answer.status.ok()));
  }
  return answer;
}

void QueryEngine::RecordShedBatch(const std::vector<BatchQuery>& queries,
                                  const Status& status, int priority,
                                  std::uint64_t epoch_id) const {
  const bool sample = options_.slow_query_ns != 0;
  if (!recorder_->enabled() && !sample) return;
  const std::uint8_t code = static_cast<std::uint8_t>(status.code());
  for (const BatchQuery& q : queries) {
    const std::uint64_t fp = FoldFp(CanonicalFingerprint(q));
    if (recorder_->enabled()) {
      obs::FlightRecord rec;
      rec.epoch = epoch_id;
      rec.fingerprint = fp;
      rec.status = code;
      rec.kind = static_cast<std::uint8_t>(q.kind);
      rec.priority = ClampPriority(priority);
      rec.flags = obs::kRecordShed;
      recorder_->Record(rec);
    }
    if (sample) {
      obs::SlowQueryEntry entry;
      entry.epoch = epoch_id;
      entry.fingerprint = fp;
      entry.kind = static_cast<std::uint8_t>(q.kind);
      entry.status = code;
      entry.reason = "trip";
      entry.dispatch = "shed";
      slow_log_->Retain(std::move(entry));
      SlowQueriesRetained().Increment();
    }
  }
}

Result<std::vector<BatchAnswer>> QueryEngine::Run(
    const std::vector<BatchQuery>& queries, const QueryRequest& request,
    BatchStats* stats, obs::TraceSession* trace) const {
  const auto arrival = std::chrono::steady_clock::now();
  // ---- Step 1: fail fast. Each of these answers the whole batch
  // without pinning an epoch or touching the executor.
  if (request.require_latest &&
      mutators_.load(std::memory_order_acquire) > 0) {
    // Read-your-writes callers prefer failing fast over reading the
    // previous epoch.
    const Status stale = StaleStatus();
    RecordShedBatch(queries, stale, request.priority, 0);
    return AnswerAll(queries, stale, threads(), stats);
  }
  if (request.deadline.has_value() && *request.deadline <= arrival) {
    const Status expired =
        Status::DeadlineExceeded("deadline expired before dispatch");
    RecordShedBatch(queries, expired, request.priority, 0);
    return AnswerAll(queries, expired, threads(), stats);
  }
  if (request.cancel != nullptr && request.cancel->cancel_requested()) {
    const Status cancelled =
        Status::Cancelled("cancellation requested before dispatch");
    RecordShedBatch(queries, cancelled, request.priority, 0);
    return AnswerAll(queries, cancelled, threads(), stats);
  }

  // One pinned epoch for the whole batch: the shared_ptr keeps the
  // snapshot (instance + frozen form) alive however many mutation scopes
  // commit meanwhile; every answer is computed against this one
  // committed state. Pinned before admission so the cost gate can read
  // the snapshot's CSR sizes.
  const std::shared_ptr<const Epoch> epoch = PinSnapshot();
  const ProbabilisticInstance& pinned = *epoch->instance;
  const FrozenInstance* frozen = epoch->frozen.get();

  std::vector<BatchAnswer> answers(queries.size());

  // ---- Step 1½: the answer cache (DESIGN.md §12), when switched on.
  // Whole-answer hits for the pinned epoch are served here, before the
  // admission gate sees them; a hit is bit-identical to cold evaluation
  // because the epoch is immutable. `fps` keeps every query's canonical
  // fingerprint for the fill step and the flight records.
  std::vector<Fingerprint> fps;
  std::uint64_t answer_hits = 0;
  if (answer_cache_ != nullptr) {
    fps.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      fps.push_back(CanonicalFingerprint(queries[i]));
      std::optional<CachedAnswer> hit =
          answer_cache_->Lookup(epoch->id, fps[i]);
      if (!hit.has_value()) continue;
      ++answer_hits;
      BatchAnswer& a = answers[i];
      a.status = hit->status;
      a.probability = hit->probability;
      if (hit->projection != nullptr) {
        // COW copy: the cached instance itself is never handed out.
        a.projection.emplace(*hit->projection);
      }
      a.profile.kind = KindName(queries[i].kind);
      a.profile.dispatch = "cached";
      a.profile.answer_cache_hit = true;
      QueriesCounter().Increment();
      if (!a.status.ok()) QueriesFailedCounter().Increment();
    }
  }
  const std::uint64_t answer_misses =
      answer_cache_ != nullptr ? queries.size() - answer_hits : 0;
  const auto cached = [&answers](std::size_t i) {
    return answers[i].profile.answer_cache_hit;
  };

  // ---- Step 2: admission. The estimate is deliberately cheap and
  // per-query uniform: one ε pass visits every compiled row once, so
  // (rows + objects) × evaluated queries bounds the batch's row-op cost
  // from below. No frozen form → fall back to the object count. Cache
  // hits cost no pass, so only the misses count.
  const std::uint64_t per_query_cost =
      frozen != nullptr
          ? static_cast<std::uint64_t>(frozen->num_rows() +
                                       frozen->num_ids())
          : static_cast<std::uint64_t>(pinned.weak().dict().num_objects());
  // Sample the executor backlog at arrival, exported as a gauge.
  BacklogGauge().Set(static_cast<std::int64_t>(executor_.unclaimed()));
  const Status admitted =
      Admit(request, per_query_cost * (queries.size() - answer_hits));
  if (!admitted.ok()) {
    RejectedBatches().Increment();
    ShedWaitNs().Record(static_cast<std::uint64_t>(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      arrival)
            .count() *
        1e9));
    RecordShedBatch(queries, admitted, request.priority, epoch->id);
    return AnswerAll(queries, admitted, threads(), stats);
  }
  AdmittedBatches().Increment();
  struct SlotRelease {
    const QueryEngine* engine;
    ~SlotRelease() { engine->ReleaseAdmission(); }
  } slot_release{this};

  obs::TraceSpan batch_span(trace, "batch");
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = ProcessCpuSeconds();

  // ---- Step 3: execution. Per-query QueryControls only exist when the
  // request asked for a serving constraint: an unconstrained run passes
  // null controls through every pass, which is the bit-identical
  // (answers *and* row-op tallies) pre-request path the ≤2% CI gate
  // measures. std::deque because QueryControl is address-stable-required
  // (non-movable atomics).
  const bool controlled = request.cancel != nullptr ||
                          request.deadline.has_value() ||
                          request.row_op_budget != 0;
  std::deque<QueryControl> controls;
  if (controlled) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryControl& control = controls.emplace_back();
      if (request.cancel != nullptr) control.set_token(request.cancel);
      if (request.deadline.has_value()) {
        control.set_deadline(*request.deadline);
      }
      if (request.row_op_budget != 0) {
        control.set_row_op_budget(request.row_op_budget);
      }
    }
  }
  const auto control_of = [&controls, controlled](
                              std::size_t i) -> QueryControl* {
    return controlled ? &controls[i] : nullptr;
  };

  // Per-query stats slots, merged sequentially below: each query tallies
  // into private counters (which also feed its QueryProfile), keeping
  // the parallel path free of cross-query shared counters.
  std::vector<ProjectionStats> projection_stats(queries.size());
  std::vector<EpsilonStats> eps_stats(queries.size());

  // The executor claims the queries in index order: inline on this
  // thread at threads == 1, beside the workers above it.
  const std::uint64_t epoch_id = epoch->id;
  executor_.Run(queries.size(), [&](std::size_t i) {
    if (cached(i)) return;
    answers[i] = ExecuteOne(queries[i], pinned, &projection_stats[i],
                            &eps_stats[i], frozen, trace, control_of(i),
                            epoch_id);
  });
  const std::size_t evaluated = queries.size() - answer_hits;

  // Feed the answer cache while the epoch is still pinned (so the insert
  // cannot race its own DropEpoch): every evaluated query with a
  // deterministic outcome. Cache hits are already resident.
  if (answer_cache_ != nullptr) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (cached(i) || !AnswerCache::Cacheable(answers[i].status)) continue;
      CachedAnswer entry;
      entry.status = answers[i].status;
      entry.probability = answers[i].probability;
      if (answers[i].projection.has_value()) {
        entry.projection = std::make_shared<const ProbabilisticInstance>(
            *answers[i].projection);
      }
      answer_cache_->Insert(epoch->id, fps[i], entry,
                            AnswerPayloadBytes(answers[i]));
    }
  }

  // Completion loop: stamp the epoch, tally trip codes, and write each
  // query's flight record — the one always-on write per completion the
  // ≤2% recorder gate bounds. The fingerprint reuses the cache step's
  // when it ran; otherwise it is mixed here (O(path length)).
  const bool record_flights = recorder_->enabled();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    BatchAnswer& a = answers[i];
    a.profile.epoch = epoch_id;
    CountTripCode(a.status);
    if (record_flights) {
      obs::FlightRecord rec;
      rec.epoch = epoch_id;
      rec.fingerprint = FoldFp(answer_cache_ != nullptr
                                   ? fps[i]
                                   : CanonicalFingerprint(queries[i]));
      rec.wall_ns =
          static_cast<std::uint64_t>(a.profile.wall_seconds * 1e9);
      rec.row_ops = a.profile.opf_row_ops;
      rec.status = static_cast<std::uint8_t>(a.status.code());
      rec.kind = static_cast<std::uint8_t>(queries[i].kind);
      rec.priority = ClampPriority(request.priority);
      rec.flags = obs::kRecordAdmitted;
      if (a.profile.answer_cache_hit) rec.flags |= obs::kRecordCached;
      if (a.profile.frozen_passes > 0) rec.flags |= obs::kRecordFrozen;
      if (a.profile.generic_passes > 0) rec.flags |= obs::kRecordGeneric;
      recorder_->Record(rec);
    }
  }
  // How far behind the head this batch's answers are at completion
  // (0 = no mutation committed while it ran).
  SnapshotAge().Record(head_epoch() - epoch->id);

  {
    using obs::Registry;
    static obs::Counter& c_batches =
        Registry::Global().GetCounter("pxml.engine.batches");
    c_batches.Increment();
  }
  if (stats != nullptr) {
    *stats = BatchStats{};
    for (const ProjectionStats& ps : projection_stats) {
      stats->locate_seconds += ps.locate_seconds;
      stats->structure_seconds += ps.structure_seconds;
      stats->update_seconds += ps.update_seconds;
      stats->kept_objects += ps.kept_objects;
      stats->processed_entries += ps.processed_entries;
      stats->opf_row_ops += ps.opf_row_ops;
      stats->entries_materialized += ps.entries_materialized;
      stats->bytes_allocated += ps.bytes_allocated;
      stats->frozen_passes += ps.frozen_passes;
    }
    for (const EpsilonStats& es : eps_stats) {
      stats->epsilon_recomputed += es.recomputed;
      stats->opf_row_ops += es.opf_row_ops;
      stats->entries_materialized += es.entries_materialized;
      stats->bytes_allocated += es.bytes_allocated;
      stats->frozen_passes += es.frozen_passes;
      stats->generic_passes += es.generic_passes;
    }
    stats->answer_cache_hits = answer_hits;
    stats->answer_cache_misses = answer_misses;
    stats->threads = threads();
    stats->tasks = evaluated;
    stats->wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall0)
                              .count();
    stats->cpu_seconds = ProcessCpuSeconds() - cpu0;
  }
  if (batch_span.enabled()) {
    batch_span.Arg("queries", static_cast<std::uint64_t>(queries.size()));
    batch_span.Arg("threads", static_cast<std::uint64_t>(threads()));
    batch_span.Arg("tasks", static_cast<std::uint64_t>(evaluated));
  }
  return answers;
}

BatchAnswer QueryEngine::RunOne(const BatchQuery& query,
                                const QueryRequest& request) const {
  std::vector<BatchQuery> one;
  one.push_back(query);
  Result<std::vector<BatchAnswer>> answers = Run(one, request);
  if (!answers.ok()) {
    BatchAnswer answer;
    answer.status = answers.status();
    return answer;
  }
  std::vector<BatchAnswer> batch = std::move(answers).ValueOrDie();
  return std::move(batch[0]);
}

Status QueryEngine::Admit(const QueryRequest& request,
                          std::uint64_t estimated_cost) const {
  // Priority > 0 (critical) bypasses the cost gate; everything still
  // honors the hard in-flight limit below.
  if (request.priority <= 0 && options_.max_estimated_row_ops != 0 &&
      estimated_cost > options_.max_estimated_row_ops) {
    return Status::Rejected(StrCat(
        "admission: estimated cost ", estimated_cost, " row-ops above the ",
        options_.max_estimated_row_ops, " limit"));
  }
  if (options_.max_in_flight_batches == 0) {
    in_flight_batches_.fetch_add(1, std::memory_order_relaxed);
    InflightGauge().Increment();
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lock(admission_mu_);
  const auto admissible = [this] {
    return in_flight_batches_.load(std::memory_order_relaxed) <
           options_.max_in_flight_batches;
  };
  if (!admissible()) {
    if (request.priority < 0) {
      return Status::Rejected(
          StrCat("admission: ", options_.max_in_flight_batches,
                 " batches in flight (best-effort request is not queued)"));
    }
    if (request.deadline.has_value()) {
      if (!admission_cv_.wait_until(lock, *request.deadline, admissible)) {
        return Status::DeadlineExceeded(
            "deadline expired while queued for an admission slot");
      }
    } else {
      admission_cv_.wait(lock, admissible);
    }
  }
  // Claimed under admission_mu_, so concurrent admitters cannot
  // oversubscribe the limit between the predicate and the increment.
  in_flight_batches_.fetch_add(1, std::memory_order_relaxed);
  InflightGauge().Increment();
  return Status::Ok();
}

void QueryEngine::ReleaseAdmission() const {
  in_flight_batches_.fetch_sub(1, std::memory_order_relaxed);
  InflightGauge().Decrement();
  if (options_.max_in_flight_batches != 0) {
    // Notify under the mutex: a waiter is either inside its predicate
    // (holding the lock — it will see the decrement) or parked (the
    // notification wakes it), so no wakeup is lost.
    std::lock_guard<std::mutex> lock(admission_mu_);
    admission_cv_.notify_one();
  }
}

std::string QueryEngine::DebugSnapshot() const {
  std::string out = "{\"engine\":{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"head_epoch\":%" PRIu64
                ",\"threads\":%zu,\"in_flight_batches\":%zu,"
                "\"slow_query_ns\":%" PRIu64
                ",\"flight_recorder_capacity\":%zu,"
                "\"slow_query_log_entries\":%zu}",
                head_epoch(), threads(), in_flight_batches(),
                options_.slow_query_ns, recorder_->capacity(),
                slow_log_->max_entries());
  out += buf;
  out += ",\"metrics\":";
  out += obs::Registry::Global().Snapshot().ToJson();
  out += ",\"flight_recorder\":";
  out += recorder_->ToJson();
  out += ",\"slow_query_log\":";
  out += slow_log_->ToJson();
  out += '}';
  return out;
}

QueryEngine::MutationGuard::MutationGuard(QueryEngine* engine)
    : engine_(engine) {
  // Raise the in-progress flag before contending for the writer lock so
  // require_latest queries issued from now on fail fast instead of
  // sneaking in ahead of the writer. Plain readers are unaffected: they
  // pin the committed head epoch and never block here.
  engine_->mutators_.fetch_add(1, std::memory_order_acq_rel);
  writer_lock_ = std::unique_lock<std::mutex>(engine_->writer_mu_);
  // Copy-on-write working copy of the committed head. The copy shares W
  // and every ℘ chunk with the head, so it costs one pointer per
  // ProbabilisticInstance::kChunkSize objects; a write clones only the
  // chunk it lands in. No mutation here touches W mutably, so every epoch
  // shares one W. Readers keep querying the head epoch untouched until
  // ~MutationGuard publishes.
  std::shared_ptr<const Epoch> head;
  {
    std::lock_guard<std::mutex> lock(engine_->head_mu_);
    head = engine_->head_;
  }
  working_ = std::make_shared<ProbabilisticInstance>(*head->instance);
  base_version_ = working_->version();
}

QueryEngine::MutationGuard::MutationGuard(MutationGuard&& other) noexcept
    : engine_(other.engine_),
      writer_lock_(std::move(other.writer_lock_)),
      working_(std::move(other.working_)),
      base_version_(other.base_version_) {
  other.engine_ = nullptr;
}

QueryEngine::MutationGuard::~MutationGuard() {
  if (engine_ == nullptr) return;
  // Publish only if something actually changed: an abandoned guard (all
  // mutations failed, or none attempted) retires silently and readers
  // never see a new epoch.
  if (working_->version() != base_version_) {
    engine_->Publish(std::move(working_));
  }
  working_.reset();
  writer_lock_.unlock();
  engine_->mutators_.fetch_sub(1, std::memory_order_acq_rel);
}

Status QueryEngine::MutationGuard::UpdateOpf(ObjectId o,
                                             std::unique_ptr<Opf> opf) {
  // Const structural access: Present() must not trip the conservative
  // structure-version cache flush reserved for real structural surgery.
  if (!working_->weak().Present(o)) {
    return Status::UnknownObject(StrCat("object id ", o, " not present"));
  }
  return working_->SetOpf(o, std::move(opf));
}

Status QueryEngine::MutationGuard::UpdateVpf(ObjectId o, Vpf vpf) {
  // Const structural access: Present() must not trip the conservative
  // structure-version cache flush reserved for real structural surgery.
  if (!working_->weak().Present(o)) {
    return Status::UnknownObject(StrCat("object id ", o, " not present"));
  }
  return working_->SetVpf(o, std::move(vpf));
}

Status QueryEngine::MutationGuard::ReplaceSubtree(
    ObjectId at, const ProbabilisticInstance& donor, ObjectId donor_root) {
  ProbabilisticInstance* target = working_.get();
  // Const structural access throughout: ReplaceSubtree only rewrites ℘,
  // so it must not trip the conservative structure-version flush.
  const WeakInstance& tw = target->weak();
  const WeakInstance& dw = donor.weak();
  if (!tw.Present(at)) {
    return Status::UnknownObject(StrCat("object id ", at, " not present"));
  }
  if (!dw.Present(donor_root)) {
    return Status::UnknownObject(
        StrCat("donor object id ", donor_root, " not present in donor"));
  }

  // Phase 1: match the two subtrees top-down by object name and edge
  // labels, building the donor-id -> target-id mapping the OPF remap
  // needs. Nothing is written until the whole match succeeds.
  std::vector<std::pair<ObjectId, ObjectId>> matched;  // (target, donor)
  std::vector<ObjectId> id_map(dw.dict().num_objects(), kInvalidId);
  std::vector<std::pair<ObjectId, ObjectId>> stack{{at, donor_root}};
  while (!stack.empty()) {
    const auto [t, d] = stack.back();
    stack.pop_back();
    const std::string& tname = tw.dict().ObjectName(t);
    const std::string& dname = dw.dict().ObjectName(d);
    if (tname != dname) {
      return Status::InvalidArgument(StrCat(
          "subtree mismatch: object '", tname, "' vs donor '", dname, "'"));
    }
    id_map[d] = t;
    matched.emplace_back(t, d);
    const std::vector<LabelId> dlabels = dw.LabelsOf(d);
    const std::vector<LabelId> tlabels = tw.LabelsOf(t);
    if (dlabels.size() != tlabels.size()) {
      return Status::InvalidArgument(
          StrCat("subtree mismatch at '", tname, "': ", tlabels.size(),
                 " labels vs donor's ", dlabels.size()));
    }
    for (LabelId dl : dlabels) {
      const std::string& lname = dw.dict().LabelName(dl);
      std::optional<LabelId> tl = tw.dict().FindLabel(lname);
      if (!tl.has_value() || tw.Lch(t, *tl).empty()) {
        return Status::InvalidArgument(StrCat("subtree mismatch at '", tname,
                                              "': no label '", lname, "'"));
      }
      const IdSet& dchildren = dw.Lch(d, dl);
      const IdSet& tchildren = tw.Lch(t, *tl);
      if (dchildren.size() != tchildren.size()) {
        return Status::InvalidArgument(
            StrCat("subtree mismatch at '", tname, "' label '", lname, "': ",
                   tchildren.size(), " children vs donor's ",
                   dchildren.size()));
      }
      for (ObjectId dc : dchildren) {
        const std::string& cname = dw.dict().ObjectName(dc);
        ObjectId tc = kInvalidId;
        for (ObjectId cand : tchildren) {
          if (tw.dict().ObjectName(cand) == cname) {
            tc = cand;
            break;
          }
        }
        if (tc == kInvalidId) {
          return Status::InvalidArgument(
              StrCat("subtree mismatch at '", tname, "' label '", lname,
                     "': no child named '", cname, "'"));
        }
        stack.emplace_back(tc, dc);
      }
    }
  }

  // Donor labels resolved by name into the target dictionary (kInvalidId
  // where absent — only reachable by an OPF naming a label outside the
  // matched shape, which Remap would then surface).
  std::vector<LabelId> label_map(dw.dict().num_labels(), kInvalidId);
  for (LabelId l = 0; l < label_map.size(); ++l) {
    if (std::optional<LabelId> tl = tw.dict().FindLabel(dw.dict().LabelName(l))) {
      label_map[l] = *tl;
    }
  }

  // Phase 2: graft ℘. Matched objects with no donor OPF/VPF keep their
  // existing local interpretation.
  for (const auto& [t, d] : matched) {
    if (const Opf* opf = donor.GetOpf(d)) {
      PXML_RETURN_IF_ERROR(target->SetOpf(t, opf->Remap(id_map, &label_map)));
    }
    if (const Vpf* vpf = donor.GetVpf(d)) {
      PXML_RETURN_IF_ERROR(target->SetVpf(t, *vpf));
    }
  }
  return Status::Ok();
}

QueryEngine::MutationGuard QueryEngine::BeginMutations() {
  return MutationGuard(this);
}

Status QueryEngine::UpdateOpf(ObjectId o, std::unique_ptr<Opf> opf) {
  return BeginMutations().UpdateOpf(o, std::move(opf));
}

Status QueryEngine::UpdateVpf(ObjectId o, Vpf vpf) {
  return BeginMutations().UpdateVpf(o, std::move(vpf));
}

Status QueryEngine::ReplaceSubtree(ObjectId at,
                                   const ProbabilisticInstance& donor,
                                   ObjectId donor_root) {
  return BeginMutations().ReplaceSubtree(at, donor, donor_root);
}

}  // namespace pxml
