#ifndef PXML_QUERY_ENGINE_H_
#define PXML_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/projection.h"
#include "algebra/selection_global.h"
#include "core/probabilistic_instance.h"
#include "graph/path.h"
#include "prob/value.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "query/answer_cache.h"
#include "query/point_queries.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pxml {

class EpsilonScratchPool;

/// Configuration of a QueryEngine.
struct BatchOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency(), and 1
  /// runs the serial path with no pool at all (bit-for-bit the historical
  /// single-threaded implementation).
  std::size_t threads = 0;
  /// Epoch-keyed answer cache switch (DESIGN.md §12). With it on, a
  /// query's complete answer — status, probability, projection — is
  /// cached under (epoch id, canonical query fingerprint) and a repeat of
  /// the same question against the same committed epoch is served without
  /// any ε/marginalization work, bit-identical to cold evaluation (the
  /// epoch is immutable, so no invalidation logic exists: entries for an
  /// epoch are dropped wholesale when its last reader unpins). Off by
  /// default: turning it on changes the engine's *work* counters
  /// (cache-hit queries report zero row-ops and bypass the admission
  /// cost gate), never its answers. The cache holds up to
  /// AnswerCache::kDefaultBudgetBytes.
  bool answer_cache = false;
  /// Frozen-kernel switch. With it on, every committed epoch carries a
  /// FrozenInstance compiled form (see query/frozen.h) and
  /// ε/marginalization passes run through the representation-specialized
  /// kernels with pooled scratch arenas; a mutation scope's publish step
  /// recompiles incrementally (FrozenInstance::Refreeze — only the dirty
  /// spine) where the structure allows. Results are bit-identical to the generic
  /// interpreter for explicit/independent OPFs; per-label products use
  /// the factored recurrence and agree to ~1e-12 (DESIGN.md §9).
  /// Instances that cannot be frozen (non-tree, OPF rows naming
  /// non-children) silently use the generic path.
  bool frozen = true;

  // ---- Admission control (DESIGN.md §11). Both gates default to off,
  // so an engine constructed with default options admits everything and
  // behaves exactly as before they existed.
  /// Batches allowed to execute concurrently; 0 = unlimited. At the
  /// limit, a request with priority >= 0 queues on a condition variable
  /// (bounded by its deadline, if it set one) until a slot frees; a
  /// priority < 0 (best-effort) request is shed immediately with
  /// kRejected.
  std::size_t max_in_flight_batches = 0;
  /// Pre-dispatch cost gate: a batch whose estimated row-op cost (the
  /// queries that missed the answer cache × the pinned frozen snapshot's
  /// CSR row count; object count when there is no frozen form) exceeds
  /// this is shed with kRejected, unless its priority is > 0. 0 = off.
  std::uint64_t max_estimated_row_ops = 0;

  // ---- Operational observability (DESIGN.md §13).
  /// Tail-sampling threshold for the slow-query log. Non-zero switches
  /// tail-based trace sampling on: every query (that the caller did not
  /// already trace explicitly) records its spans into a pooled, reusable
  /// TraceSession, and the full span tree + profile summary is retained
  /// in slow_query_log() only when the query's in-engine wall time
  /// reaches this many nanoseconds, its status is non-OK, or it tripped
  /// a serving gate — the discard path just recycles the session (no
  /// frees, capacity retained) and answers stay bit-identical. 0 (the
  /// default) disables sampling entirely; an explicit TraceSession
  /// passed to Run always wins over sampling for those queries.
  std::uint64_t slow_query_ns = 0;
  /// Flight-recorder ring capacity in records (rounded up to a power of
  /// two). The recorder is the always-on layer: one compact record per
  /// completed query, overwritten oldest-first. 0 disables it. (The
  /// slow-query log keeps obs::SlowQueryLog::kDefaultMaxEntries entries.)
  std::size_t flight_recorder_capacity = obs::FlightRecorder::kDefaultCapacity;
};

/// Per-call execution policy: the read consistency (DESIGN.md §7) plus
/// the serving controls (deadline, budget, cancellation, admission
/// priority) of DESIGN.md §11. Default-constructed it sets no deadline,
/// no budget and no token, and the engine then passes null QueryControls
/// through the passes, so answers *and row-op counts* are bit-identical
/// to an uncontrolled run (the ≤2% CI gate rides on this).
///
/// Trip granularity contract (util/cancel.h): once the deadline expires,
/// the budget is exhausted, or the token trips, every query of the batch
/// stops within QueryControl::kCheckIntervalOps row-ops per participating
/// worker and reports the trip code in its BatchAnswer::status. Queries
/// that completed before the trip keep their answers — bit-identical to
/// an unconstrained run against the same epoch.
struct QueryRequest {
  using Clock = std::chrono::steady_clock;

  /// Absolute wall deadline for the whole batch. Queries still running
  /// when it passes return kDeadlineExceeded; a batch arriving with its
  /// deadline already expired returns all-kDeadlineExceeded without
  /// dispatching anything.
  std::optional<Clock::time_point> deadline;
  /// Per-query row-op budget (the EpsilonStats::opf_row_ops counting
  /// rule); a query that charges past it returns kResourceExhausted.
  /// 0 = unlimited.
  std::uint64_t row_op_budget = 0;
  /// Admission class: < 0 is best-effort (shed first, never queues for a
  /// slot), 0 is normal, > 0 is critical (bypasses the cost gate; still
  /// bounded by max_in_flight_batches).
  int priority = 0;
  /// Snapshot isolation is the default: a query pins the most recently
  /// *committed* epoch and succeeds even while a MutationGuard is open,
  /// returning answers bit-identical to a serial run against that
  /// committed state. Setting `require_latest` restores the fail-fast
  /// contract instead: if any mutation scope is active the call returns
  /// kStale immediately, so read-your-writes callers never observe an
  /// epoch older than the writer they are coordinating with.
  bool require_latest = false;
  /// Cooperative cancellation. The engine never owns the token; the
  /// caller keeps it alive for the duration of the call and may trip it
  /// from any thread. Affected queries return kCancelled.
  const CancellationToken* cancel = nullptr;

  /// Convenience: deadline = now + d.
  QueryRequest& ExpireAfter(Clock::duration d) {
    deadline = Clock::now() + d;
    return *this;
  }
};

/// Parses one `key=value` request knob into `request` — the bench/CLI
/// surface for QueryRequest ("deadline-ms=50", "row-op-budget=100000",
/// "priority=-1", "require-latest=1"). Returns InvalidArgument (with the
/// offending flag in the message) on an unknown key or a malformed
/// value; `request` is untouched on failure.
Status ApplyRequestFlag(std::string_view flag, QueryRequest* request);

/// Per-batch counters, extending the per-projection phase breakdown with
/// the pool-side numbers (the projection phases accumulate over every
/// projection query in the batch).
struct BatchStats : ProjectionStats {
  /// Worker threads the batch ran on (1 = serial path).
  std::size_t threads = 1;
  /// Pool tasks executed on behalf of this batch: one per query that
  /// missed the answer cache.
  std::size_t tasks = 0;
  /// Tasks taken from another worker's deque during the batch.
  std::size_t steal_count = 0;
  /// Deepest any pool queue got while the batch ran.
  std::size_t max_queue_depth = 0;
  /// End-to-end batch latency.
  double wall_seconds = 0.0;
  /// Process CPU time consumed during the batch (all threads).
  double cpu_seconds = 0.0;

  /// Per-object ε evaluations performed during the batch: every object of
  /// every pass's pruned layers, once per pass.
  std::uint64_t epsilon_recomputed = 0;
  /// Always 0 — see EpsilonMemoCache below.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  /// Per-row OPF work performed during the batch, ε passes and projection
  /// marginalization combined (see EpsilonStats::opf_row_ops for the
  /// counting rule). The frozen-kernel win is this counter's ratio
  /// between frozen-off and frozen-on runs of the same batch.
  std::uint64_t opf_row_ops = 0;
  /// Transient OPF rows materialized to serve the batch — always 0 when
  /// every pass ran on the frozen kernels.
  std::uint64_t entries_materialized = 0;
  /// Tracked hot-path heap bytes (see EpsilonStats::bytes_allocated);
  /// 0 for a warmed-up frozen re-query.
  std::uint64_t bytes_allocated = 0;
  /// ε/marginalization passes served by the frozen kernels.
  std::uint64_t frozen_passes = 0;
  /// ε passes that ran on the generic interpreter instead.
  std::uint64_t generic_passes = 0;

  /// Answer-cache activity for this batch (0 unless
  /// BatchOptions::answer_cache): queries served whole from the
  /// epoch-keyed cache vs probed-and-missed.
  std::uint64_t answer_cache_hits = 0;
  std::uint64_t answer_cache_misses = 0;
  /// Always 0 — see EpsilonMemoCache below.
  std::uint64_t shared_queries = 0;
};

/// One query of a batch: the Section-6.2 point/exists/value queries, a
/// general condition probability, or an ancestor projection.
struct BatchQuery {
  enum class Kind { kPoint, kExists, kValue, kCondition, kAncestorProject };

  Kind kind = Kind::kExists;
  PathExpression path;
  ObjectId object = kInvalidId;  // kPoint
  Value value;                   // kValue
  SelectionCondition condition;  // kCondition

  /// P(o ∈ p).
  static BatchQuery Point(PathExpression p, ObjectId o);
  /// P(∃ o: o ∈ p).
  static BatchQuery Exists(PathExpression p);
  /// P(∃ o ∈ p with val(o) = v).
  static BatchQuery ValueEquals(PathExpression p, Value v);
  /// P(condition) for any SelectionCondition kind.
  static BatchQuery Condition(SelectionCondition c);
  /// Ancestor projection Λ_p (result carried in BatchAnswer::projection).
  static BatchQuery AncestorProjection(PathExpression p);
};

/// The execution profile of one query, filled by the engine for every
/// query it runs. The counters are always on (they ride the same
/// pass-local tallies the registry metrics flush from); the `span` link
/// is only live when the batch ran with a TraceSession.
struct QueryProfile {
  /// Stable lower-case kind name ("point", "exists", "value",
  /// "condition", "ancestor_project").
  const char* kind = "";
  /// End-to-end latency of this query inside the engine, including
  /// scratch lease and dispatch (seconds).
  double wall_seconds = 0.0;

  /// ε work: per-object evaluations performed.
  std::uint64_t epsilon_recomputed = 0;

  /// Dispatch: passes served by the compiled frozen kernels vs the
  /// generic interpreter (a projection contributes its marginalization
  /// pass; probability kinds contribute their ε pass).
  std::uint64_t frozen_passes = 0;
  std::uint64_t generic_passes = 0;
  /// "frozen" when every pass ran on the kernels, "generic" when none
  /// did, "mixed" otherwise.
  const char* dispatch = "generic";
  /// The kernel mix of the frozen snapshot the query ran against
  /// (FrozenInstance::KernelMix); empty on the generic path.
  std::string kernel;

  /// Work/footprint counters, ε and projection passes combined (see
  /// EpsilonStats / ProjectionStats for the counting rules).
  std::uint64_t opf_row_ops = 0;
  std::uint64_t entries_materialized = 0;
  std::uint64_t bytes_allocated = 0;

  /// Projection phase breakdown (kAncestorProject only; zero otherwise).
  double locate_seconds = 0.0;
  double update_seconds = 0.0;
  double structure_seconds = 0.0;
  std::size_t kept_objects = 0;
  std::size_t processed_entries = 0;

  /// This query's root span in the batch's TraceSession — its children
  /// are the operator tree ("epsilon" / "locate" / "update" /
  /// "structure" with their counters attached). obs::kNoSpan when the
  /// batch ran without tracing.
  std::uint32_t span = obs::kNoSpan;

  /// The id of the committed epoch this query ran against (monotone; the
  /// engine's first snapshot is epoch 1). Every answer of one batch
  /// carries the same epoch — a batch pins exactly one snapshot.
  std::uint64_t epoch = 0;

  /// True when the whole answer was served from the epoch-keyed answer
  /// cache (dispatch reads "cached" and every work counter is zero — the
  /// original evaluation's work was accounted when it ran).
  bool answer_cache_hit = false;
};

/// The answer to one BatchQuery. `status` is per-query: one failing query
/// does not poison the rest of the batch.
struct BatchAnswer {
  Status status;
  /// The query probability; meaningful for the probability kinds when
  /// status is OK.
  double probability = 0.0;
  /// The projected instance for kAncestorProject when status is OK.
  std::optional<ProbabilisticInstance> projection;
  /// How the query executed (always filled, even on failure).
  QueryProfile profile;
};

/// The retired ε-memo and ε-sharing surface. These six names read zero
/// and exist only because bench/e2e (the end-to-end benchmark, which
/// changes only together with its definition in BENCHMARK.json) compiles
/// against them: EpsilonMemoCache::Stats, QueryEngine::cache_stats(),
/// QueryEngine::cache_size(), BatchStats::cache_lookups,
/// BatchStats::cache_hits and BatchStats::shared_queries. The next
/// benchmark change removes them together with its epsilon_cache.* and
/// engine.shared_queries_per_batch per-layer metrics.
struct EpsilonMemoCache {
  struct Stats {
    std::uint64_t invalidated = 0;
    std::uint64_t evictions = 0;
  };
};

/// The unified query facade: owns a probabilistic instance together
/// with the work-stealing thread pool, and mediates every query and every
/// mutation through immutable committed epochs. The engine is the
/// instance's only writer: every update goes through the mutation API
/// (UpdateOpf / UpdateVpf / ReplaceSubtree / BeginMutations) and the
/// instance's version bookkeeping. Constructing one from an instance the
/// caller keeps is cheap — a ProbabilisticInstance copy shares W and the
/// ℘ chunks until either side writes.
///
/// Concurrency contract (epoch-based snapshot isolation, DESIGN.md §7):
/// the engine maintains a sequence of immutable committed *epochs*, each
/// pairing a ProbabilisticInstance snapshot with its compiled
/// FrozenInstance. A query pins the current head epoch (one shared_ptr
/// copy under a short mutex) and runs entirely against it — it never
/// blocks on a writer and never observes a half-applied update. A
/// MutationGuard serializes against other writers only: it builds the
/// next version on a private copy-on-write working copy, and its
/// destructor compiles (incremental Refreeze where the structure allows)
/// and atomically publishes the next epoch. In-flight readers keep their
/// pinned epoch; retired epochs are reclaimed by refcount as the last
/// reader unpins. kStale survives only behind QueryRequest::require_latest
/// (read-your-writes callers who prefer failing fast over reading the
/// previous epoch).
///
/// Determinism: at any thread count, answers are bit-identical — each
/// query runs on one thread and every pass is one sequential loop (see
/// EpsilonPropagator). A batch's answers are bit-identical to a serial
/// replay against the committed prefix of the mutation log its epoch
/// corresponds to (QueryProfile::epoch names it). Without serving
/// controls the work counters (epsilon_recomputed, opf_row_ops,
/// entries_materialized, pass counts) are schedule-independent too. The
/// BatchStats numbers that depend on the thread schedule are tasks,
/// steal_count, max_queue_depth, wall_seconds and cpu_seconds, plus
/// bytes_allocated (which pooled scratch arena, warm or cold, a query
/// leases).
class QueryEngine {
 public:
  /// Takes the instance (move it in, or pass a copy).
  explicit QueryEngine(ProbabilisticInstance instance,
                       BatchOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Worker threads actually in use (1 = serial path, no pool).
  std::size_t threads() const;

  /// The most recently committed instance: it reflects every mutation
  /// scope that has *closed*. The reference is valid until the next
  /// mutation commits (the epoch holding it may be reclaimed after that),
  /// so don't cache it across writes.
  const ProbabilisticInstance& instance() const;

  /// The id of the current head epoch (starts at 1; each committed
  /// mutation scope publishes the next). Lock-free.
  std::uint64_t head_epoch() const {
    return head_epoch_.load(std::memory_order_acquire);
  }

  /// Always zero — see EpsilonMemoCache.
  EpsilonMemoCache::Stats cache_stats() const { return {}; }
  std::size_t cache_size() const { return 0; }

  /// Lifetime answer-cache counters (zeroes with the answer cache off).
  AnswerCache::Stats answer_cache_stats() const;
  /// Bytes the answer cache currently charges against its budget.
  std::size_t answer_cache_bytes_used() const;

  /// Evaluates the whole batch against one pinned epoch; answers[i]
  /// corresponds to queries[i]. The returned status is only non-OK for
  /// engine-level failures; per-query failures are reported in each
  /// BatchAnswer. With request.require_latest and a mutation scope open,
  /// every answer is kStale.
  ///
  /// Serving path (DESIGN.md §11), in order:
  ///  1. fail-fast checks — require_latest (kStale), an already-expired
  ///     deadline (kDeadlineExceeded), a pre-tripped token (kCancelled) —
  ///     answer every query without pinning or dispatching;
  ///  2. admission — the BatchOptions gates may shed the batch
  ///     (kRejected) or queue it for an in-flight slot; shed wait time
  ///     lands on pxml.engine.shed_wait_ns;
  ///  3. execution — with any of deadline/budget/token set, each query
  ///     runs under its own QueryControl and a tripped query returns the
  ///     trip code while the rest of the batch completes normally. With
  ///     none set this step is bit-identical (answers and row-op counts)
  ///     to the pre-request API.
  /// Per-query trip codes are tallied on pxml.engine.{deadline_exceeded,
  /// cancelled,budget_exhausted}; admission outcomes on
  /// pxml.engine.{admitted,rejected}.
  ///
  /// A non-null `trace` records the batch as a span tree — one "batch"
  /// root, one "query:<kind>" span per query (linked from its
  /// QueryProfile::span), and the per-pass operator spans beneath — for
  /// export via obs::TraceSession::WriteChromeTrace. Null is the
  /// zero-cost disabled path; tracing never changes answers.
  Result<std::vector<BatchAnswer>> Run(const std::vector<BatchQuery>& queries,
                                       const QueryRequest& request = {},
                                       BatchStats* stats = nullptr,
                                       obs::TraceSession* trace = nullptr) const;

  /// Runs one query through the full serving path (admission, deadline,
  /// budget, cancellation — a one-query batch).
  BatchAnswer RunOne(const BatchQuery& query,
                     const QueryRequest& request = {}) const;

  /// Batches currently executing (admitted, not yet finished). Relaxed
  /// instantaneous read — the admission tests' recovery signal.
  std::size_t in_flight_batches() const {
    return in_flight_batches_.load(std::memory_order_relaxed);
  }

  /// The always-on flight recorder (DESIGN.md §13): the last
  /// BatchOptions::flight_recorder_capacity query completions as compact
  /// records. Never null; disabled (capacity 0) it records nothing.
  const obs::FlightRecorder& flight_recorder() const { return *recorder_; }

  /// The slow-query log: full span trees + profile summaries of the
  /// queries tail sampling retained (see BatchOptions::slow_query_ns).
  const obs::SlowQueryLog& slow_query_log() const { return *slow_log_; }

  /// One-call operational snapshot as JSON: engine state (head epoch,
  /// threads, in-flight batches, the observability knobs), the whole
  /// process metrics registry, the flight-recorder dump, and the
  /// slow-query log. The pull-based debug surface — a server embeds it
  /// behind a /debug handler, benches write it via --recorder-dump.
  std::string DebugSnapshot() const;

  /// A writer scope. Opening one serializes against other writers only —
  /// readers keep pinning the last committed epoch throughout. Updates
  /// apply to a private copy-on-write working copy of the committed
  /// instance (cheap: W and the ℘ chunks are shared until written); the
  /// destructor compiles and atomically publishes the next epoch iff any
  /// update succeeded, so a scope that only failed (or did nothing)
  /// publishes nothing. Queries issued while the guard is open — even
  /// from the guard's own thread — succeed against the pre-mutation
  /// epoch; only QueryRequest::require_latest callers see kStale.
  /// Move-only; publishes (and releases the writer lock) on destruction.
  class MutationGuard {
   public:
    MutationGuard(MutationGuard&& other) noexcept;
    MutationGuard& operator=(MutationGuard&&) = delete;
    MutationGuard(const MutationGuard&) = delete;
    MutationGuard& operator=(const MutationGuard&) = delete;
    ~MutationGuard();

    /// Replaces ℘(o) for a non-leaf. kUnknownObject if o is not present.
    /// The publishing Refreeze recompiles o's ancestor spine, nothing
    /// else.
    Status UpdateOpf(ObjectId o, std::unique_ptr<Opf> opf);
    /// Replaces ℘(o) for a leaf. Same recompilation footprint.
    Status UpdateVpf(ObjectId o, Vpf vpf);
    /// Grafts the local interpretation of `donor`'s subtree under
    /// `donor_root` onto the engine instance's subtree under `at`: the
    /// two subtrees are matched top-down by object name and edge-label
    /// shape, and every matched object's OPF/VPF is replaced by the
    /// donor's (child ids remapped). The weak structure is untouched, so
    /// the publishing Refreeze stays incremental — no full Freeze.
    /// kUnknownObject for missing roots, InvalidArgument on any shape or
    /// name mismatch (applied updates up to that point remain — wrap in
    /// a fresh engine if atomicity across a failed graft matters).
    Status ReplaceSubtree(ObjectId at, const ProbabilisticInstance& donor,
                          ObjectId donor_root);

   private:
    friend class QueryEngine;
    explicit MutationGuard(QueryEngine* engine);

    QueryEngine* engine_ = nullptr;  // null after move-out
    std::unique_lock<std::mutex> writer_lock_;
    /// Private next version; published by ~MutationGuard iff dirty.
    std::shared_ptr<ProbabilisticInstance> working_;
    /// working_->version() at open — publish only if it moved.
    std::uint64_t base_version_ = 0;
  };

  /// Opens a mutation scope (blocks only behind other writers — readers
  /// are never drained). The scope's updates become visible to new
  /// readers atomically when the guard destructs.
  MutationGuard BeginMutations();

  /// One-shot mutations: each opens, applies, and publishes a one-update
  /// scope.
  Status UpdateOpf(ObjectId o, std::unique_ptr<Opf> opf);
  Status UpdateVpf(ObjectId o, Vpf vpf);
  Status ReplaceSubtree(ObjectId at, const ProbabilisticInstance& donor,
                        ObjectId donor_root);

 private:
  /// One committed version: an immutable instance snapshot, its compiled
  /// frozen form (null if freezing is off or failed), and the epoch id.
  /// Defined in engine.cc; destruction (= reclamation, when the last
  /// pinning reader and the head both let go) feeds the epochs-retired /
  /// live-snapshots metrics.
  struct Epoch;

  /// Runs one query against the pinned epoch's instance, wrapping
  /// ExecuteOneTraced with the tail-sampling policy (DESIGN.md §13):
  /// with BatchOptions::slow_query_ns set and no caller trace, the query
  /// runs against a pooled TraceSession and its span tree + profile
  /// summary is retained in the slow-query log iff it was slow, errored,
  /// or tripped; otherwise the session is recycled untouched. `epoch_id`
  /// stamps retained entries (the answer's own profile.epoch is filled
  /// later by Run's completion loop).
  BatchAnswer ExecuteOne(const BatchQuery& query,
                         const ProbabilisticInstance& instance,
                         ProjectionStats* projection_stats,
                         EpsilonStats* eps_stats, const FrozenInstance* frozen,
                         obs::TraceSession* trace, QueryControl* control,
                         std::uint64_t epoch_id) const;

  /// The traced body: opens the query's "query:<kind>" span, leases
  /// scratch, dispatches, and fills the answer's QueryProfile from the
  /// per-query stats slots (`eps_stats` and `projection_stats` are this
  /// query's private tallies; the caller merges them into the
  /// BatchStats). A non-null `control` makes the query cooperative: it
  /// is checked once before dispatch (the task-dequeue check — a query
  /// whose batch tripped while it sat in the pool queue never starts)
  /// and then charged through every pass.
  BatchAnswer ExecuteOneTraced(const BatchQuery& query,
                               const ProbabilisticInstance& instance,
                               ProjectionStats* projection_stats,
                               EpsilonStats* eps_stats,
                               const FrozenInstance* frozen,
                               obs::TraceSession* trace,
                               QueryControl* control) const;

  /// Tail-sampling session pool. A pool, not a thread_local:
  /// TaskGroup::Wait work-steals, so one OS thread can nest a second
  /// query's execution mid-query — a bare thread-local buffer would
  /// interleave two queries' spans. Acquire Resets the session (capacity
  /// retained), so the steady-state sampling path stops allocating once
  /// the pool is warm.
  std::unique_ptr<obs::TraceSession> AcquireTraceSession() const;
  void ReleaseTraceSession(std::unique_ptr<obs::TraceSession> session) const;

  /// Writes one flight record per query for a batch answered without
  /// dispatch (fail-fast or admission shed): kRecordShed, no admitted
  /// flag, epoch_id 0 when the batch never pinned a snapshot. With tail
  /// sampling on, also retains one trace-less "trip" slow-log entry per
  /// query so shed traffic shows up where an operator looks first.
  void RecordShedBatch(const std::vector<BatchQuery>& queries,
                       const Status& status, int priority,
                       std::uint64_t epoch_id) const;

  /// The admission decision for one batch (step 2 of Run's serving
  /// path). Returns OK once the batch may execute — having bumped
  /// in_flight_batches_ — or the shed status (kRejected; kDeadlineExceeded
  /// when the deadline expired while queued for a slot). `estimated_cost`
  /// is the pre-dispatch row-op estimate from the pinned epoch.
  Status Admit(const QueryRequest& request,
               std::uint64_t estimated_cost) const;
  /// Releases an Admit slot and wakes one queued waiter.
  void ReleaseAdmission() const;

  /// Pins the current head epoch (never null).
  std::shared_ptr<const Epoch> PinSnapshot() const;

  /// Compiles the frozen form for a new epoch: incremental Refreeze from
  /// `prev` when the structure is unchanged, else a full Freeze; null
  /// when freezing is off or the instance cannot be frozen.
  std::shared_ptr<const FrozenInstance> BuildFrozen(
      const ProbabilisticInstance& instance, const Epoch* prev) const;

  /// Atomically publishes `next` as the new head epoch (called by
  /// ~MutationGuard with the writer lock held).
  void Publish(std::shared_ptr<const ProbabilisticInstance> next);

  BatchOptions options_;
  std::unique_ptr<ThreadPool> pool_;              // null when threads() == 1
  std::unique_ptr<EpsilonScratchPool> scratch_pool_;  // null when frozen off
  /// Epoch-keyed answer cache (null when options.answer_cache off).
  /// Declared before head_ so it is destroyed after it: the final
  /// epoch's destructor drops that epoch's entries into the cache.
  std::unique_ptr<AnswerCache> answer_cache_;

  /// The epoch table head. Readers copy it under the mutex (one
  /// shared_ptr bump); the writer replaces it at publish. Old epochs live
  /// on exactly as long as some reader still pins them. An unfreezable
  /// instance costs one failed Freeze attempt per *epoch*, not per query:
  /// the epoch records its null frozen form.
  mutable std::mutex head_mu_;
  std::shared_ptr<const Epoch> head_;
  /// head_->id mirror for lock-free reads (snapshot-age accounting).
  std::atomic<std::uint64_t> head_epoch_{0};

  /// Serializes mutation scopes (writer-writer only; readers never touch
  /// it).
  std::mutex writer_mu_;
  /// Open mutation scopes — the require_latest fail-fast signal.
  std::atomic<int> mutators_{0};

  /// Admission state: the slot count is atomic so in_flight_batches() is
  /// a lock-free read; the mutex/cv pair only serializes the
  /// wait-for-a-slot path (untaken while max_in_flight_batches is 0).
  mutable std::atomic<std::size_t> in_flight_batches_{0};
  mutable std::mutex admission_mu_;
  mutable std::condition_variable admission_cv_;

  /// Operational observability (DESIGN.md §13). Both always exist (a
  /// zero-capacity recorder records nothing) so the accessors never
  /// null-check.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  /// Reusable TraceSessions for tail sampling (see AcquireTraceSession).
  mutable std::mutex trace_pool_mu_;
  mutable std::vector<std::unique_ptr<obs::TraceSession>> trace_pool_;
};

}  // namespace pxml

#endif  // PXML_QUERY_ENGINE_H_
