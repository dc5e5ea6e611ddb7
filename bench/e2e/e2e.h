#ifndef PXML_BENCH_E2E_E2E_H_
#define PXML_BENCH_E2E_E2E_H_

// Shared declarations of the end-to-end benchmark (pxml_e2e). The bench
// drives the library only through the entry points an application uses:
// ParsePxml, QueryEngine (default BatchOptions except `threads`),
// QueryEngine::Run with a default QueryRequest, BeginMutations /
// MutationGuard::UpdateVpf, Select and WritePxmlFile. See README.md for
// the workloads, the metrics and why each was chosen.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/probabilistic_instance.h"
#include "query/engine.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace pxml {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What one operation asks of the library.
enum class OpKind : std::uint8_t {
  kPoint,      ///< P(target ∈ path)
  kExists,     ///< P(∃ o ∈ path)
  kValue,      ///< P(∃ o ∈ path with val(o) = v<aux>)
  kCondition,  ///< P(some parent of target has a count of target's label in [lo, hi])
  kProject,    ///< ancestor projection Λ_path through Run, then WritePxmlFile
  kSelect,     ///< σ(path = target) through Select, then WritePxmlFile
  kCommit,     ///< one leaf-VPF update in its own MutationGuard
};

/// One operation in compact form. The whole stream is generated from the
/// seed before any timing starts; a client turns an Op into library
/// arguments (a BatchQuery, a SelectionCondition, a Vpf) outside its
/// timed window.
struct Op {
  OpKind kind = OpKind::kPoint;
  /// kValue: leaf value index; kCondition: count range packed (lo << 4) | hi.
  std::uint8_t aux = 0;
  /// End of the random descent: the queried object, the selected object,
  /// the projection path's end, or the updated leaf.
  ObjectId target = kInvalidId;
  /// kCommit: the new P(val = v0) of the leaf.
  double p = 0.0;
};

/// The tree shape of a generated instance, kept by the bench so that ops
/// can be generated in O(depth) each and turned into path expressions
/// without touching the engine's instance.
class Tree {
 public:
  explicit Tree(const ProbabilisticInstance& instance);

  std::uint32_t height() const { return height_; }

  /// The label path from the root down to `o`.
  PathExpression PathTo(ObjectId o) const;
  ObjectId Parent(ObjectId o) const { return parent_[o]; }
  LabelId LabelInto(ObjectId o) const { return label_[o]; }
  /// Children of `o` under the label of the edge into `child` (a sibling
  /// family, child included).
  std::size_t FamilySize(ObjectId child) const;

  /// Random descent from the root: at each level, a random label of the
  /// current object, then a random child under that label. O(levels).
  ObjectId Descend(Rng& rng, std::uint32_t levels) const;

 private:
  struct Family {
    LabelId label;
    std::vector<ObjectId> children;
  };

  ObjectId root_ = kInvalidId;
  std::uint32_t height_ = 0;
  std::vector<ObjectId> parent_;
  std::vector<LabelId> label_;
  std::vector<std::vector<Family>> families_;
};

/// The library call one Op becomes.
BatchQuery MakeQuery(const Tree& tree, const Op& op);
SelectionCondition MakeSelection(const Tree& tree, const Op& op);
Vpf MakeVpf(const Op& op);

/// Answers a probability query with the generic free functions and
/// default hooks — the reference the engine's answers are checked
/// against.
Result<double> ReferenceAnswer(const ProbabilisticInstance& instance,
                               const BatchQuery& query);

/// How the clients of a workload drive the library.
enum class Traffic {
  kSingleReads,  ///< single-query Run calls
  kBatches,      ///< 64-query Run calls over a hot set
  kProject,      ///< projection + write
  kSelect,       ///< selection + write
  kReadWrite,    ///< single-query readers beside a committing writer
};

/// A workload: the instance, the traffic, and the thread budget.
struct Spec {
  const char* name;
  GeneratorConfig instance;
  Traffic traffic;
  std::size_t readers;  ///< reader (or algebra) clients
  /// Whose latencies are the workload's end-to-end timings: the readers'
  /// or the writer's.
  bool writer_is_foreground;
  std::size_t threads;  ///< BatchOptions::threads, the only option set
  std::size_t warmup;          ///< warm-up requests per reader client
  double max_requests_per_s;   ///< per client; sizes the pre-generated stream

  /// kReadWrite adds one more client, committing updates.
  bool has_writer() const { return traffic == Traffic::kReadWrite; }
};

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;
/// Warm-up commits of the writer client.
inline constexpr std::size_t kWriterWarmup = 50;
/// Measured requests per client of a --smoke run, which runs a fixed
/// count rather than a fixed time.
inline constexpr std::size_t kSmokeRequests = 200;

/// The workload table; null when `name` is unknown.
const Spec* FindSpec(const std::string& name);
const std::vector<Spec>& AllSpecs();

/// Queries per batch request on kBatches.
inline constexpr std::size_t kBatchSize = 64;

/// Everything generated from the seed before timing: the PXML text the
/// program under test parses, the tree the ops refer to, and one op
/// stream per client (the writer's last).
struct Inputs {
  std::string text;
  std::size_t objects = 0;
  std::size_t opf_rows = 0;
  std::string representation;
  std::vector<std::vector<Op>> streams;
  std::unique_ptr<Tree> tree;
};

/// Generates the workload's inputs; `smoke` shrinks the instance and sizes
/// the streams for kSmokeRequests measured requests.
Inputs MakeInputs(const Spec& spec, std::uint64_t seed, double seconds,
                  bool smoke);

/// Per-layer totals accumulated by the clients (sums; main.cc turns them
/// into the per-layer metrics).
struct LayerTotals {
  // query/engine: every Run call.
  std::uint64_t run_calls = 0;
  std::uint64_t queries = 0;
  double call_s = 0;  ///< client-observed Run latency
  double exec_s = 0;  ///< in-engine time (profile / BatchStats wall)
  double cpu_util = 0;  ///< Σ cpu / (wall × threads) over Run calls
  std::uint64_t shared_queries = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::size_t max_queue_depth = 0;
  // query/frozen.
  std::uint64_t opf_row_ops = 0;
  std::uint64_t epsilon_recomputed = 0;
  std::uint64_t frozen_passes = 0;
  std::uint64_t generic_passes = 0;
  std::uint64_t bytes_allocated = 0;
  // query/epsilon_cache and query/answer_cache, as seen per batch.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t answer_hits = 0;
  std::uint64_t answer_misses = 0;
  // algebra, projection (through Run).
  std::uint64_t projects = 0;
  double project_exec_s = 0;
  double project_locate_s = 0;
  double project_structure_s = 0;
  double project_update_s = 0;
  std::uint64_t kept_objects = 0;
  // algebra, selection.
  std::uint64_t selects = 0;
  double select_s = 0;
  double select_locate_s = 0;
  double select_update_s = 0;
  std::uint64_t updated_objects = 0;
  std::uint64_t objects_out = 0;
  // xml, writer.
  std::uint64_t writes = 0;
  double write_s = 0;
  std::uint64_t bytes_written = 0;
  // query/engine, commits.
  std::uint64_t commits = 0;
  double begin_s = 0;
  double update_s = 0;
  double publish_s = 0;

  void Merge(const LayerTotals& other);
};

/// Self time of one span name over a traced pass.
struct SelfTime {
  std::uint64_t count = 0;
  double self_s = 0;
};

/// What one pass (untraced or traced) of a workload measured.
struct PassResult {
  std::vector<double> setup_s;
  std::vector<double> parse_s;
  std::vector<double> fg_latency_s;  ///< foreground latencies, measured phase
  /// Requests each client completed in the measured phase; a traced pass
  /// repeats exactly these counts.
  std::vector<std::uint64_t> requests;
  double wall_s = 0;  ///< measured phase, until the last timed client ended
  std::uint64_t fg_requests = 0;
  std::uint64_t attempted = 0;  ///< every request of the measured phase
  std::uint64_t failed_ops = 0;
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::vector<std::string> check_errors;  ///< first few, for stderr
  /// Clients that ran out of their pre-generated stream and stopped
  /// early; each counts as a failure, since the run is then capped.
  std::uint64_t exhausted_clients = 0;
  double repeat_share = 0;
  LayerTotals layers;
  // Process-wide deltas over the measured phase.
  double cpu_s = 0;
  double vol_ctx_switches = 0;
  double minor_faults = 0;
  // Registry deltas over the measured phase.
  std::uint64_t epochs_published = 0;
  std::uint64_t rejected = 0;
  double shed_wait_ns = 0;
  double snapshot_age_sum = 0;
  double snapshot_age_count = 0;
  std::uint64_t refreeze_recompiled = 0;
  std::uint64_t refreeze_reused = 0;
  // ε-memo activity over the measured phase, and its size at the end.
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidated = 0;
  std::size_t cache_entries = 0;
  double peak_rss_mb = 0;
  // Wall seconds of the phases around the measured one.
  double setups_wall_s = 0;
  double warmup_wall_s = 0;
  double checks_wall_s = 0;
  std::map<std::string, SelfTime> span_self;  ///< traced pass only
};

/// Runs one pass: set-ups, warm-up, the measured phase, then the
/// correctness checks. With `fixed_requests` each client runs exactly that
/// many measured requests instead of `seconds` of them. A non-null `trace`
/// records the bench's spans (and the engine's beneath them).
PassResult RunPass(const Spec& spec, const Inputs& inputs, double seconds,
                   const std::vector<std::uint64_t>* fixed_requests,
                   obs::TraceSession* trace, const std::string& out_dir);

}  // namespace e2e
}  // namespace pxml

#endif  // PXML_BENCH_E2E_E2E_H_
