// Batch query engine throughput: a fixed batch of mixed point / exists /
// value / ancestor-projection queries over one §7.1 workload instance,
// evaluated serially (threads=1) and with the parallel engine at
// --threads=N (default: hardware concurrency). Prints queries/second for
// each configuration, the speedup, the queries evaluated, and verifies
// that the parallel answers are bit-identical to the serial ones before
// reporting.
//
// Usage: bench_batch_queries [--threads=N] [--seed=S] [--trace=PATH]
//        [--metrics=PATH] [--prom=PATH] [--json=PATH] [--mutate-rate=R]
//        [--deadline-ms=MS] [--request=KEY=VALUE] [--overload]
//        [--slow-ms=MS] [--recorder-dump=PATH] [--recorder-gate]
// --trace records the span tree of every batch (serial and parallel) as
// Chrome trace-event JSON; --metrics snapshots the registry at exit.
//
// --mutate-rate=R (R in (0, 1]) switches to the MVCC mixed-workload
// mode: a writer thread commits one ℘ mutation per MutationGuard,
// throttled to R mutations per executed query, while the main thread
// runs read batches against a mutable QueryEngine. Every batch pins one
// snapshot epoch (answers never fail with kStale), and the bench reports
// read throughput, commit throughput, epochs published, and how far
// behind the head the read snapshots ran.
//
// --deadline-ms=MS switches to the deadline mode (DESIGN.md §11): the
// batch runs under a QueryRequest whose deadline is MS milliseconds out,
// and the bench reports how many queries completed vs returned
// kDeadlineExceeded — verifying that every completed answer is
// bit-identical to an unconstrained run against the same epoch.
// --request=KEY=VALUE forwards any QueryRequest knob verbatim to
// ApplyRequestFlag ("row-op-budget=100000", "priority=-1", ...), so the
// parser's error paths are exercisable from the command line; malformed
// knobs warn and are ignored, exactly like the other bench flags.
//
// --overload switches to the admission-control mode: the engine is
// configured with a small in-flight batch limit, several client threads
// slam it with batches across the three priority classes, and the bench
// reports how many batches were admitted vs shed per class.
//
// --slow-ms=MS arms tail-based trace sampling in the default mode (every
// query runs against a pooled TraceSession; the span tree is retained in
// the slow-query log only when the query crosses MS milliseconds, trips,
// or errors). --recorder-dump=PATH writes the engine's DebugSnapshot
// (metrics + flight-recorder ring + slow-query log) at exit; --prom=PATH
// writes the registry in the Prometheus text exposition format.
//
// --recorder-gate is the ≤2% recorder-overhead CI gate: the same
// projection batch with observability fully off (recorder capacity 0, no
// sampling) vs fully on (default ring + sampling armed with a threshold
// no query crosses). Answers must be bit-identical with exactly equal
// row-op counts, and the median on/off wall ratio over paired rounds
// must stay ≤ 1.02. A final forced-slow pass (threshold 1ns) checks
// retention end-to-end.
//
// --overhead-gate is the ≤2% cancellation-overhead CI gate on the
// undeadlined fig7a (ancestor projection) path: each round runs the same
// projection batch unconstrained (null QueryControls) and under a
// deadline an hour out (a live control charged at every site). Hard
// properties: bit-identical answers and exactly equal row-op counts.
// The median controlled/uncontrolled wall ratio over paired rounds must
// stay ≤ 1.02; exits non-zero otherwise.
//
// Both gates time their two sides in pairs: each pair runs one query of
// the batch on both sides back to back, alternating which side goes
// first, and the gate decides on the median of the per-pair ratios (see
// MeasurePairs). A host that speeds up or slows down moves both halves
// of a pair, so the ratio measures the change; a min over rounds
// compares two lucky draws instead.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fig7_common.h"
#include "query/engine.h"
#include "xml/writer.h"

namespace pxml {
namespace bench {
namespace {

std::vector<BatchQuery> MakeBatch(const ProbabilisticInstance& inst,
                                  std::size_t count) {
  Rng rng(0xBA7C4BEEF);
  std::vector<BatchQuery> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    auto cond = GenerateObjectSelection(inst, rng);
    BenchCheck(cond.status(), "condition");
    switch (queries.size() % 4) {
      case 0:
        queries.push_back(BatchQuery::Point(cond->path, cond->object));
        break;
      case 1:
        queries.push_back(BatchQuery::Exists(cond->path));
        break;
      case 2:
        queries.push_back(BatchQuery::Condition(*cond));
        break;
      default:
        queries.push_back(BatchQuery::AncestorProjection(cond->path));
        break;
    }
  }
  return queries;
}

/// Bitwise answer equality: status code, probability bits, and the
/// serialized projection when one is present.
bool SameAnswer(const BatchAnswer& a, const BatchAnswer& b) {
  bool same =
      a.status.code() == b.status.code() &&
      std::memcmp(&a.probability, &b.probability, sizeof(double)) == 0 &&
      a.projection.has_value() == b.projection.has_value();
  if (same && a.projection.has_value()) {
    same = SerializePxml(*a.projection) == SerializePxml(*b.projection);
  }
  return same;
}

/// Answers must be bit-identical across engines (determinism by
/// construction); abort loudly if they are not.
void CheckIdentical(const std::vector<BatchAnswer>& serial,
                    const std::vector<BatchAnswer>& parallel) {
  if (serial.size() != parallel.size()) {
    std::fprintf(stderr, "answer count mismatch\n");
    std::exit(1);
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (!SameAnswer(serial[i], parallel[i])) {
      std::fprintf(stderr, "query %zu: parallel answer differs\n", i);
      std::exit(1);
    }
  }
}

/// The MVCC mixed read/write mode behind --mutate-rate.
int MixedMain(const BenchFlags& flags, double mutate_rate,
              const ProbabilisticInstance& inst,
              const std::vector<BatchQuery>& queries, ObsOutputs& obs) {
  BatchOptions options;
  options.threads = flags.threads;
  QueryEngine engine(inst, options);

  // Mutation victims: leaf VPFs (℘-only updates — the structure, and so
  // the frozen CSR skeleton, never changes; publishes take the
  // incremental Refreeze path).
  std::vector<ObjectId> leaves;
  for (ObjectId o : inst.weak().Objects()) {
    if (inst.weak().IsLeaf(o) && inst.GetVpf(o) != nullptr) {
      leaves.push_back(o);
    }
  }
  if (leaves.empty()) {
    std::fprintf(stderr, "no leaf VPFs to mutate\n");
    return 1;
  }

  constexpr std::size_t kBatches = 20;
  std::atomic<std::size_t> queries_run{0};
  std::atomic<bool> done{false};
  std::size_t mutations = 0;

  std::thread writer([&] {
    Rng rng(flags.seed ^ 0xBADBEEF);
    while (!done.load(std::memory_order_acquire)) {
      // Throttle to ~mutate_rate mutations per executed query.
      const double target =
          mutate_rate *
          static_cast<double>(queries_run.load(std::memory_order_acquire));
      if (static_cast<double>(mutations) >= target) {
        std::this_thread::yield();
        continue;
      }
      const ObjectId victim = leaves[rng.NextBounded(leaves.size())];
      const double p = 0.05 + 0.9 * rng.NextDouble();
      Vpf vpf;
      vpf.Set(Value("v0"), p);
      vpf.Set(Value("v1"), 1.0 - p);
      QueryEngine::MutationGuard guard = engine.BeginMutations();
      Status st = guard.UpdateVpf(victim, std::move(vpf));
      BenchCheck(st, "mutate");
      ++mutations;
    }
  });

  std::uint64_t age_sum = 0;
  std::uint64_t answers_total = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < kBatches; ++b) {
    auto answers = engine.Run(queries, {}, nullptr, obs.session());
    BenchCheck(answers.status(), "run");
    const std::uint64_t head = engine.head_epoch();
    for (const BatchAnswer& ans : *answers) {
      BenchCheck(ans.status, "answer");  // snapshot reads never go stale
      age_sum += head - ans.profile.epoch;
      ++answers_total;
    }
    queries_run.fetch_add(queries.size(), std::memory_order_acq_rel);
  }
  const double wall_s = MsSince(t0) / 1e3;
  done.store(true, std::memory_order_release);
  writer.join();

  const double total_queries =
      static_cast<double>(kBatches) * static_cast<double>(queries.size());
  const double mean_age =
      answers_total == 0
          ? 0.0
          : static_cast<double>(age_sum) / static_cast<double>(answers_total);
  std::printf(
      "# mixed workload: rate=%.3f mutations/query, %zu threads\n"
      "%10s %10s %12s %10s %12s\n",
      mutate_rate, engine.threads(), "wall_s", "read_qps", "mutations",
      "epochs", "mean_age");
  std::printf("%10.3f %10.1f %12zu %10llu %12.3f\n", wall_s,
              total_queries / wall_s, mutations,
              static_cast<unsigned long long>(engine.head_epoch()), mean_age);

  JsonLog json("batch_queries_mixed", flags);
  json.NextRow();
  json.Int("threads", engine.threads());
  json.Num("mutate_rate", mutate_rate);
  json.Num("wall_s", wall_s);
  json.Num("read_qps", total_queries / wall_s);
  json.Int("queries", static_cast<std::uint64_t>(total_queries));
  json.Int("mutations", mutations);
  json.Int("epochs_published", engine.head_epoch());
  json.Num("mean_snapshot_age_epochs", mean_age);
  json.Write();

  obs.Finish();
  return 0;
}

/// The deadline mode behind --deadline-ms / --request=: one
/// unconstrained reference run, then the same batch under the request —
/// completed answers must be bit-identical to the reference (both runs
/// pin the same epoch; nothing mutates the engine's instance).
int DeadlineMain(const BenchFlags& flags,
                 const std::vector<std::string>& knobs,
                 const ProbabilisticInstance& inst,
                 const std::vector<BatchQuery>& queries, ObsOutputs& obs) {
  BatchOptions options;
  options.threads = flags.threads;
  options.frozen = flags.frozen;
  QueryEngine engine(inst, options);

  auto reference = engine.Run(queries, QueryRequest{});
  BenchCheck(reference.status(), "reference run");

  // Re-apply the knobs now, not at flag-parse time: "deadline-ms=MS"
  // resolves to an absolute steady_clock point at Apply time, and the
  // countdown should not include workload generation.
  QueryRequest request;
  for (const std::string& knob : knobs) {
    BenchCheck(ApplyRequestFlag(knob, &request), "request knob");
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto answers = engine.Run(queries, request, nullptr, obs.session());
  const double wall_s = MsSince(t0) / 1e3;
  BenchCheck(answers.status(), "run");

  std::size_t ok = 0, deadline = 0, budget = 0, other = 0;
  for (std::size_t i = 0; i < answers->size(); ++i) {
    const BatchAnswer& ans = (*answers)[i];
    switch (ans.status.code()) {
      case StatusCode::kOk:
        ++ok;
        if (!SameAnswer(ans, (*reference)[i])) {
          std::fprintf(stderr,
                       "query %zu: deadlined answer differs from the "
                       "unconstrained reference\n",
                       i);
          return 1;
        }
        break;
      case StatusCode::kDeadlineExceeded:
        ++deadline;
        break;
      case StatusCode::kResourceExhausted:
        ++budget;
        break;
      default:
        ++other;
        break;
    }
  }
  std::printf(
      "# deadline mode: %zu queries, %zu threads\n"
      "%10s %8s %10s %8s %8s\n",
      queries.size(), engine.threads(), "wall_s", "ok", "deadline", "budget",
      "other");
  std::printf("%10.3f %8zu %10zu %8zu %8zu\n", wall_s, ok, deadline, budget,
              other);

  JsonLog json("batch_queries_deadline", flags);
  json.NextRow();
  json.Int("threads", engine.threads());
  json.Num("wall_s", wall_s);
  json.Int("queries", queries.size());
  json.Int("ok", ok);
  json.Int("deadline_exceeded", deadline);
  json.Int("budget_exhausted", budget);
  json.Int("other", other);
  json.Write();

  obs.Finish();
  return 0;
}

/// The admission-control mode behind --overload: a small in-flight limit
/// plus several client threads per priority class. Best-effort (-1)
/// clients shed at the limit; normal (0) and critical (+1) clients queue
/// for a slot, so every one of their batches eventually completes.
int OverloadMain(const BenchFlags& flags, const ProbabilisticInstance& inst,
                 const std::vector<BatchQuery>& queries, ObsOutputs& obs) {
  BatchOptions options;
  options.threads = flags.threads;
  options.frozen = flags.frozen;
  options.max_in_flight_batches = 2;
  QueryEngine engine(inst, options);

  constexpr int kClientsPerClass = 2;
  constexpr int kBatchesPerClient = 4;
  constexpr int kPriorities[] = {-1, 0, 1};
  std::atomic<std::size_t> admitted[3] = {{0}, {0}, {0}};
  std::atomic<std::size_t> shed[3] = {{0}, {0}, {0}};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int cls = 0; cls < 3; ++cls) {
    for (int c = 0; c < kClientsPerClass; ++c) {
      clients.emplace_back([&, cls] {
        for (int b = 0; b < kBatchesPerClient; ++b) {
          QueryRequest request;
          request.priority = kPriorities[cls];
          auto answers = engine.Run(queries, request);
          BenchCheck(answers.status(), "run");
          // A shed batch answers every query with the shed status; an
          // admitted one never reports kRejected per query.
          const bool was_shed =
              !answers->empty() &&
              (*answers)[0].status.code() == StatusCode::kRejected;
          if (was_shed) {
            shed[cls].fetch_add(1, std::memory_order_relaxed);
          } else {
            admitted[cls].fetch_add(1, std::memory_order_relaxed);
            for (const BatchAnswer& ans : *answers) {
              BenchCheck(ans.status, "admitted answer");
            }
          }
        }
      });
    }
  }
  for (std::thread& t : clients) t.join();
  const double wall_s = MsSince(t0) / 1e3;

  std::printf(
      "# overload mode: max_in_flight=2, %d clients x %d batches per "
      "priority class, %zu threads\n"
      "%9s %9s %6s\n",
      kClientsPerClass, kBatchesPerClient, engine.threads(), "priority",
      "admitted", "shed");
  JsonLog json("batch_queries_overload", flags);
  for (int cls = 0; cls < 3; ++cls) {
    std::printf("%9d %9zu %6zu\n", kPriorities[cls], admitted[cls].load(),
                shed[cls].load());
    json.NextRow();
    json.Num("priority", kPriorities[cls]);
    json.Int("admitted", admitted[cls].load());
    json.Int("shed", shed[cls].load());
    json.Num("wall_s", wall_s);
  }
  json.Write();

  // Normal and critical clients queue rather than shed; only best-effort
  // traffic may be turned away. Both invariants are load-independent.
  if (shed[1].load() != 0 || shed[2].load() != 0) {
    std::fprintf(stderr, "non-best-effort batch was shed\n");
    return 1;
  }
  if (engine.in_flight_batches() != 0) {
    std::fprintf(stderr, "in-flight count did not drain to 0\n");
    return 1;
  }
  obs.Finish();
  return 0;
}

/// Rounds per wall-ratio gate; each round pairs every query of the batch.
constexpr int kGateRounds = 20;
/// The bound both wall-ratio gates hold the median pair ratio to.
constexpr double kGateMaxRatio = 1.02;

/// What one gate measured: the per-pair on/off wall ratios and their
/// median, plus each side's median wall time per query.
struct PairedWall {
  std::vector<double> ratios;
  double ratio = 0.0;
  double off_s = 0.0;
  double on_s = 0.0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `one` (a one-query batch) on the gate's off or on side.
using GateRun = std::function<Result<std::vector<BatchAnswer>>(
    bool on, const std::vector<BatchQuery>& one, BatchStats* stats)>;

/// The paired measurement both ≤2% gates share. A warm-up pass runs
/// every query once per side; its off-side answer and row-op count are
/// the reference every later run of that query must equal exactly (the
/// hard checks, independent of noise). Then each of kGateRounds rounds
/// times both sides of every query back to back as one pair, running
/// the on side first when round + query is odd, and the gate decides on
/// the median of the per-pair on/off ratios. The two runs of a pair are
/// milliseconds apart, so they see the same host and the ratio measures
/// the change; a min over rounds compares two lucky draws instead.
PairedWall MeasurePairs(const char* gate,
                        const std::vector<BatchQuery>& queries,
                        const GateRun& run) {
  std::vector<BatchAnswer> reference(queries.size());
  std::vector<std::uint64_t> reference_row_ops(queries.size());
  const auto timed = [&](bool on, std::size_t q, bool warm_up) {
    BatchStats stats;
    auto answers = run(on, {queries[q]}, &stats);
    BenchCheck(answers.status(), gate);
    if (warm_up && !on) {
      reference[q] = std::move((*answers)[0]);
      reference_row_ops[q] = stats.opf_row_ops;
    } else if (!SameAnswer(reference[q], (*answers)[0]) ||
               stats.opf_row_ops != reference_row_ops[q]) {
      std::fprintf(stderr,
                   "%s: query %zu differs on the %s side (row ops %llu, "
                   "reference %llu)\n",
                   gate, q, on ? "on" : "off",
                   static_cast<unsigned long long>(stats.opf_row_ops),
                   static_cast<unsigned long long>(reference_row_ops[q]));
      std::exit(1);
    }
    return stats.wall_seconds;
  };
  for (std::size_t q = 0; q < queries.size(); ++q) {
    timed(false, q, true);
    timed(true, q, true);
  }
  PairedWall m;
  std::vector<double> off, on;
  for (int round = 0; round < kGateRounds; ++round) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const bool on_first = (round + q) % 2 == 1;
      const double first = timed(on_first, q, false);
      const double second = timed(!on_first, q, false);
      off.push_back(on_first ? second : first);
      on.push_back(on_first ? first : second);
      m.ratios.push_back(on.back() / off.back());
    }
  }
  m.ratio = Median(m.ratios);
  m.off_s = Median(off);
  m.on_s = Median(on);
  return m;
}

/// Prints the gate's table: median walls per query, the median pair
/// ratio and the ratio quartiles, so a failing run shows whether a few
/// pairs or all of them moved.
void PrintPairs(const char* title, std::size_t queries, std::size_t threads,
                const PairedWall& m) {
  std::vector<double> sorted = m.ratios;
  std::sort(sorted.begin(), sorted.end());
  std::printf(
      "# %s: %zu projections x %d rounds = %zu pairs, %zu threads\n"
      "%12s %12s %8s %8s %8s\n%12.6f %12.6f %8.4f %8.4f %8.4f\n",
      title, queries, kGateRounds, m.ratios.size(), threads, "off_wall_s",
      "on_wall_s", "ratio", "q1", "q3", m.off_s, m.on_s, m.ratio,
      sorted[sorted.size() / 4], sorted[(3 * sorted.size()) / 4]);
}

/// The ≤2% cancellation-overhead gate behind --overhead-gate. The
/// engine's undeadlined path must pass null QueryControls everywhere, so
/// attaching a never-tripping control may change nothing but a bounded
/// sliver of wall time.
int OverheadGateMain(const BenchFlags& flags,
                     const ProbabilisticInstance& inst, ObsOutputs& obs) {
  BatchOptions options;
  options.threads = flags.threads;
  options.frozen = flags.frozen;
  QueryEngine engine(inst, options);

  // The fig7a operation through the engine: ancestor projections only.
  Rng rng(0xF16A);
  std::vector<BatchQuery> queries;
  while (queries.size() < 24) {
    auto path = GenerateAcceptedPath(inst, rng);
    BenchCheck(path.status(), "path");
    queries.push_back(BatchQuery::AncestorProjection(*path));
  }

  const PairedWall m = MeasurePairs(
      "overhead gate", queries,
      [&engine](bool on, const std::vector<BatchQuery>& one,
                BatchStats* stats) {
        QueryRequest request;
        if (on) request.ExpireAfter(std::chrono::hours(1));
        return engine.Run(one, request, stats);
      });

  PrintPairs("cancellation-overhead gate", queries.size(), engine.threads(),
             m);
  JsonLog json("batch_queries_overhead_gate", flags);
  json.NextRow();
  json.Int("threads", engine.threads());
  json.Int("pairs", m.ratios.size());
  json.Num("uncontrolled_wall_s", m.off_s);
  json.Num("controlled_wall_s", m.on_s);
  json.Num("ratio", m.ratio);
  json.Write();
  obs.Finish();

  if (m.ratio > kGateMaxRatio) {
    std::fprintf(stderr,
                 "overhead gate: median controlled/uncontrolled wall ratio "
                 "%.4f exceeds %.2f\n",
                 m.ratio, kGateMaxRatio);
    return 1;
  }
  return 0;
}

/// The ≤2% recorder-overhead gate behind --recorder-gate. "On" means the
/// full always-on surface: the flight-recorder ring at its default
/// capacity plus tail sampling armed (every query runs against a pooled
/// TraceSession) with a threshold no query can cross, so the measured
/// cost is session pooling + record writes, not retention. "Off" means
/// capacity 0 and sampling disabled — the pre-observability engine.
int RecorderGateMain(const BenchFlags& flags,
                     const ProbabilisticInstance& inst, ObsOutputs& obs) {
  BatchOptions off_options;
  off_options.threads = flags.threads;
  off_options.frozen = flags.frozen;
  off_options.flight_recorder_capacity = 0;
  off_options.slow_query_ns = 0;
  QueryEngine off_engine(inst, off_options);

  BatchOptions on_options = off_options;
  on_options.flight_recorder_capacity = obs::FlightRecorder::kDefaultCapacity;
  on_options.slow_query_ns = 3'600'000'000'000ull;  // 1h: sample, never retain
  QueryEngine on_engine(inst, on_options);

  Rng rng(0xF16A);
  std::vector<BatchQuery> queries;
  while (queries.size() < 24) {
    auto path = GenerateAcceptedPath(inst, rng);
    BenchCheck(path.status(), "path");
    queries.push_back(BatchQuery::AncestorProjection(*path));
  }

  std::uint64_t on_queries = 0;
  const PairedWall m = MeasurePairs(
      "recorder gate", queries,
      [&](bool on, const std::vector<BatchQuery>& one, BatchStats* stats) {
        if (on) on_queries += one.size();
        return (on ? on_engine : off_engine).Run(one, {}, stats);
      });

  // The ring saw every completion; nothing crossed the 1-hour threshold.
  const std::uint64_t expected = on_queries;
  if (on_engine.flight_recorder().total_recorded() != expected) {
    std::fprintf(stderr, "recorder gate: ring recorded %llu of %llu\n",
                 static_cast<unsigned long long>(
                     on_engine.flight_recorder().total_recorded()),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  if (on_engine.slow_query_log().retained() != 0) {
    std::fprintf(stderr, "recorder gate: spurious slow-query retention\n");
    return 1;
  }

  // Forced-slow pass: a 1ns threshold retains every query, each with its
  // full span tree — the "dumpable trace without whole-run tracing"
  // acceptance check. Answers stay bit-identical to the off reference.
  BatchOptions slow_options = on_options;
  slow_options.slow_query_ns = 1;
  QueryEngine slow_engine(inst, slow_options);
  auto slow = slow_engine.Run(queries, QueryRequest{});
  BenchCheck(slow.status(), "forced-slow run");
  auto reference = off_engine.Run(queries, QueryRequest{});
  BenchCheck(reference.status(), "recorder-off run");
  CheckIdentical(*reference, *slow);
  if (slow_engine.slow_query_log().retained() != queries.size()) {
    std::fprintf(stderr, "recorder gate: retained %llu of %zu forced-slow\n",
                 static_cast<unsigned long long>(
                     slow_engine.slow_query_log().retained()),
                 queries.size());
    return 1;
  }
  for (const obs::SlowQueryEntry& e : slow_engine.slow_query_log().Entries()) {
    if (e.reason != "slow" || e.trace_json.find("query:") == std::string::npos) {
      std::fprintf(stderr,
                   "recorder gate: entry %llu retained without a span tree "
                   "(reason=%s)\n",
                   static_cast<unsigned long long>(e.seq), e.reason.c_str());
      return 1;
    }
  }
  if (slow_engine.flight_recorder().total_recorded() != queries.size()) {
    std::fprintf(stderr, "recorder gate: forced-slow ring miscount\n");
    return 1;
  }

  PrintPairs("recorder-overhead gate", queries.size(), off_engine.threads(),
             m);
  JsonLog json("batch_queries_recorder_gate", flags);
  json.NextRow();
  json.Int("threads", off_engine.threads());
  json.Int("pairs", m.ratios.size());
  json.Num("recorder_off_wall_s", m.off_s);
  json.Num("recorder_on_wall_s", m.on_s);
  json.Num("ratio", m.ratio);
  json.Int("recorded", on_engine.flight_recorder().total_recorded());
  json.Int("forced_slow_retained", slow_engine.slow_query_log().retained());
  json.Write();

  if (!flags.recorder_dump.empty()) {
    const std::string dump = slow_engine.DebugSnapshot();
    std::FILE* f = std::fopen(flags.recorder_dump.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench error: cannot open %s\n",
                   flags.recorder_dump.c_str());
      return 1;
    }
    std::fwrite(dump.data(), 1, dump.size(), f);
    std::fclose(f);
    std::printf("# wrote recorder dump to %s\n", flags.recorder_dump.c_str());
  }
  obs.Finish();

  if (m.ratio > kGateMaxRatio) {
    std::fprintf(stderr,
                 "recorder gate: median on/off wall ratio %.4f exceeds "
                 "%.2f\n",
                 m.ratio, kGateMaxRatio);
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  BenchFlags defaults;
  defaults.threads = std::thread::hardware_concurrency();
  defaults.seed = 20260806;
  const BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  double mutate_rate = 0.0;
  bool overload = false;
  bool overhead_gate = false;
  bool recorder_gate = false;
  std::vector<std::string> request_knobs;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mutate-rate=", 14) == 0) {
      mutate_rate = std::atof(argv[i] + 14);
      if (mutate_rate <= 0.0 || mutate_rate > 1.0) {
        std::fprintf(stderr, "ignoring malformed %s (want R in (0,1])\n",
                     argv[i]);
        mutate_rate = 0.0;
      }
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--overhead-gate") == 0) {
      overhead_gate = true;
    } else if (std::strcmp(argv[i], "--recorder-gate") == 0) {
      recorder_gate = true;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0 ||
               std::strncmp(argv[i], "--request=", 10) == 0) {
      // Both spellings funnel into ApplyRequestFlag — "--deadline-ms=50"
      // is sugar for "--request=deadline-ms=50". Validate now against a
      // throwaway request (malformed knobs warn and drop, like every
      // other bench flag); the kept knobs are re-applied at run time so
      // a deadline's countdown starts with the run.
      const char* knob = argv[i] + (argv[i][2] == 'd' ? 2 : 10);
      QueryRequest probe;
      Status st = ApplyRequestFlag(knob, &probe);
      if (!st.ok()) {
        std::fprintf(stderr, "ignoring malformed %s (%s)\n", argv[i],
                     st.ToString().c_str());
      } else {
        request_knobs.emplace_back(knob);
      }
    }
  }
  ObsOutputs obs(flags);
  const std::size_t threads = flags.threads;
  const std::size_t kQueries = 400;

  GeneratorConfig config;
  config.depth = 7;
  config.branching = 4;
  config.labeling = LabelingScheme::kSameLabels;
  config.seed = flags.seed;
  config.with_leaf_values = true;
  auto inst = GenerateBalancedTree(config);
  BenchCheck(inst.status(), "generate");

  std::vector<BatchQuery> queries = MakeBatch(*inst, kQueries);
  if (mutate_rate > 0.0) return MixedMain(flags, mutate_rate, *inst, queries, obs);
  if (overload) return OverloadMain(flags, *inst, queries, obs);
  if (overhead_gate) return OverheadGateMain(flags, *inst, obs);
  if (recorder_gate) return RecorderGateMain(flags, *inst, obs);
  if (!request_knobs.empty()) {
    return DeadlineMain(flags, request_knobs, *inst, queries, obs);
  }
  std::printf(
      "# batch query engine: %zu mixed queries over one instance "
      "(%zu objects, %zu OPF rows)\n",
      queries.size(), inst->weak().num_objects(), inst->TotalOpfEntries());
  std::printf("%8s %10s %10s %8s %8s %8s %9s %9s %9s %9s\n", "threads",
              "wall_s", "cpu_s", "qps", "speedup", "tasks", "p50_us",
              "p90_us", "p99_us", "p999_us");

  JsonLog json("batch_queries", flags);
  double serial_wall = 0.0;
  std::vector<BatchAnswer> serial_answers;
  std::string recorder_dump_json;
  for (std::size_t t : {std::size_t{1}, threads}) {
    BatchOptions options;
    // The historical comparison mode: generic evaluation (no frozen
    // kernels), so the published serial-vs-parallel series stays
    // comparable across versions.
    options.threads = t;
    options.frozen = false;
    options.slow_query_ns = flags.slow_ms * 1'000'000;
    QueryEngine engine(*inst, options);
    BatchStats stats;
    auto answers = engine.Run(queries, {}, &stats, obs.session());
    BenchCheck(answers.status(), "run");
    // Per-query latency quantiles from the per-answer profiles: the
    // mean (wall_s / qps) hides tail latency, which is what the flight
    // recorder and slow-query log exist to explain.
    obs::Histogram latency;
    for (const BatchAnswer& ans : *answers) {
      latency.Record(
          static_cast<std::uint64_t>(ans.profile.wall_seconds * 1e9));
    }
    const obs::Histogram::Snapshot q = latency.snapshot();
    if (t == threads && !flags.recorder_dump.empty()) {
      recorder_dump_json = engine.DebugSnapshot();
    }
    if (t == 1) {
      serial_wall = stats.wall_seconds;
      serial_answers = std::move(answers).ValueOrDie();
    } else {
      CheckIdentical(serial_answers, *answers);
    }
    std::printf(
        "%8zu %10.3f %10.3f %8.1f %8.2f %8zu %9.1f %9.1f %9.1f %9.1f\n",
        stats.threads, stats.wall_seconds, stats.cpu_seconds,
        static_cast<double>(queries.size()) / stats.wall_seconds,
        serial_wall / stats.wall_seconds, stats.tasks, q.P50() / 1e3,
        q.P90() / 1e3, q.P99() / 1e3, q.P999() / 1e3);
    std::fflush(stdout);
    json.NextRow();
    json.Int("threads", stats.threads);
    json.Num("wall_s", stats.wall_seconds);
    json.Num("qps",
             static_cast<double>(queries.size()) / stats.wall_seconds);
    json.Num("p50_us", q.P50() / 1e3);
    json.Num("p90_us", q.P90() / 1e3);
    json.Num("p99_us", q.P99() / 1e3);
    json.Num("p999_us", q.P999() / 1e3);
    json.Int("slow_retained", engine.slow_query_log().retained());
    if (t == 1 && t == threads) break;  // nothing more to compare
  }
  json.Write();
  if (!flags.recorder_dump.empty()) {
    std::FILE* f = std::fopen(flags.recorder_dump.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench error: cannot open %s\n",
                   flags.recorder_dump.c_str());
      return 1;
    }
    std::fwrite(recorder_dump_json.data(), 1, recorder_dump_json.size(), f);
    std::fclose(f);
    std::printf("# wrote recorder dump to %s\n", flags.recorder_dump.c_str());
  }
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pxml

int main(int argc, char** argv) { return pxml::bench::Main(argc, argv); }
