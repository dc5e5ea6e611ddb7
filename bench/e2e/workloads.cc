// One pass of a workload: set-ups, warm-up, the measured closed-loop
// phase, and the correctness checks, with the per-layer tallies the
// clients collect along the way.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "algebra/selection.h"
#include "e2e.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/point_queries.h"
#include "util/strings.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace e2e {

namespace {

/// Engine answers must match the generic free functions this closely.
constexpr double kTolerance = 1e-12;
/// One read in kSampleEvery is re-answered by the reference path (the
/// generic interpreter takes tens of milliseconds per query on the 87k-object
/// instances, so checking more would dominate a run's wall time).
constexpr std::uint64_t kSampleEvery = 1000;
/// One written file in kKeepEvery is kept and re-parsed.
constexpr std::uint64_t kKeepEvery = 20;

struct ReadSample {
  Op op;
  double probability = 0;
  std::uint64_t epoch = 0;
};

struct SelectSample {
  Op op;
  double condition_prob = 0;
};

struct KeptFile {
  std::string path;
  std::size_t objects = 0;
};

/// One closed-loop client: it sends its next request only after the
/// previous one returned.
struct Client {
  std::size_t id = 0;
  const std::vector<Op>* stream = nullptr;
  bool writer = false;
  std::size_t next = 0;        ///< next op of the stream
  std::uint64_t serial = 0;    ///< requests issued; the low half of op ids
  std::uint64_t queries_run = 0;  ///< queries passed to Run on the engine
  bool exhausted = false;

  // Filled only while `record` is set (the measured phase).
  bool record = false;
  std::vector<double> latency_s;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t sampled_queries = 0;
  LayerTotals layers;
  std::vector<ReadSample> reads;
  std::vector<SelectSample> selects;
  std::vector<KeptFile> files;

  // Kept for the whole life of the engine.
  std::vector<Op> committed;  ///< the writer's successful updates, in order
  std::uint64_t last_epoch = 0;
  std::uint64_t epoch_errors = 0;
};

struct Context {
  const Spec& spec;
  const Inputs& in;
  QueryEngine* engine = nullptr;
  obs::TraceSession* trace = nullptr;
  std::string out_dir;
};

std::string FilePath(const Context& ctx, const Client& c) {
  return StrCat(ctx.out_dir, "/", ctx.spec.name, "-c", c.id, "-", c.serial,
                ".pxml");
}

void RemoveFile(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// Records one request's latency and outcome. False when the request is
/// not measured (set-up, warm-up) or failed: the caller then tallies
/// nothing else.
bool Record(Client& c, double latency, bool ok) {
  if (!c.record) return false;
  c.latency_s.push_back(latency);
  ++c.requests;
  if (!ok) ++c.failed;
  return ok;
}

/// Tallies one measured, successful write. Every request writes a file of
/// its own; one in kKeepEvery is kept for the re-parse check and the rest
/// are unlinked here, outside the timed window.
void NoteWrite(Client& c, const std::string& path, std::size_t objects,
               double write_s) {
  LayerTotals& l = c.layers;
  ++l.writes;
  l.write_s += write_s;
  l.bytes_written += std::filesystem::file_size(path);
  if ((c.requests - 1) % kKeepEvery == 0) {
    c.files.push_back({path, objects});
  } else {
    RemoveFile(path);
  }
}

void AddRunStats(const BatchStats& stats, LayerTotals& l) {
  l.shared_queries += stats.shared_queries;
  l.tasks += stats.tasks;
  l.steals += stats.steal_count;
  l.max_queue_depth = std::max(l.max_queue_depth, stats.max_queue_depth);
  l.opf_row_ops += stats.opf_row_ops;
  l.epsilon_recomputed += stats.epsilon_recomputed;
  l.frozen_passes += stats.frozen_passes;
  l.generic_passes += stats.generic_passes;
  l.bytes_allocated += stats.bytes_allocated;
  l.cache_lookups += stats.cache_lookups;
  l.cache_hits += stats.cache_hits;
  l.answer_hits += stats.answer_cache_hits;
  l.answer_misses += stats.answer_cache_misses;
  if (stats.wall_seconds > 0) {
    l.cpu_util += stats.cpu_seconds /
                  (stats.wall_seconds * static_cast<double>(stats.threads));
  }
}

/// One Run call with the bench's span around it.
Result<std::vector<BatchAnswer>> TracedRun(const Context& ctx,
                                           const std::vector<BatchQuery>& batch,
                                           BatchStats* stats,
                                           std::uint64_t op_id) {
  obs::TraceSpan span(ctx.trace, "e2e.run");
  span.Arg("op", op_id);
  return ctx.engine->Run(batch, QueryRequest{}, stats, ctx.trace);
}

/// Writes `instance` and returns the write's seconds; sets *ok.
double TracedWrite(const Context& ctx, const ProbabilisticInstance& instance,
                   const std::string& path, std::uint64_t op_id, bool* ok) {
  const Clock::time_point t0 = Clock::now();
  obs::TraceSpan span(ctx.trace, "e2e.write");
  span.Arg("op", op_id);
  *ok = WritePxmlFile(instance, path).ok();
  return SecondsSince(t0);
}

void NoteEpochs(const std::vector<BatchAnswer>& answers, Client& c) {
  for (const BatchAnswer& a : answers) {
    if (a.profile.epoch < c.last_epoch) ++c.epoch_errors;
    c.last_epoch = std::max(c.last_epoch, a.profile.epoch);
  }
}

void Query(const Context& ctx, Client& c, const Op* ops, std::size_t n,
           std::uint64_t op_id) {
  std::vector<BatchQuery> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(MakeQuery(*ctx.in.tree, ops[i]));
  }
  BatchStats stats;
  const Clock::time_point t0 = Clock::now();
  Result<std::vector<BatchAnswer>> result = TracedRun(ctx, batch, &stats, op_id);
  const double latency = SecondsSince(t0);
  c.queries_run += n;
  bool ok = result.ok();
  if (ok) {
    for (const BatchAnswer& a : *result) ok = ok && a.status.ok();
    NoteEpochs(*result, c);
  }
  if (!Record(c, latency, ok)) return;
  LayerTotals& l = c.layers;
  ++l.run_calls;
  l.queries += n;
  l.call_s += latency;
  l.exec_s += n == 1 ? (*result)[0].profile.wall_seconds : stats.wall_seconds;
  AddRunStats(stats, l);
  for (std::size_t i = 0; i < n; ++i) {
    if (c.sampled_queries++ % kSampleEvery == 0) {
      c.reads.push_back(
          {ops[i], (*result)[i].probability, (*result)[i].profile.epoch});
    }
  }
}

void ProjectAndWrite(const Context& ctx, Client& c, const Op& op,
                     std::uint64_t op_id) {
  const std::vector<BatchQuery> batch{MakeQuery(*ctx.in.tree, op)};
  const std::string path = FilePath(ctx, c);
  BatchStats stats;
  const Clock::time_point t0 = Clock::now();
  Result<std::vector<BatchAnswer>> result = TracedRun(ctx, batch, &stats, op_id);
  const double call = SecondsSince(t0);
  bool ok = result.ok() && (*result)[0].status.ok() &&
            (*result)[0].projection.has_value();
  double write = 0;
  if (ok) write = TracedWrite(ctx, *(*result)[0].projection, path, op_id, &ok);
  const double latency = SecondsSince(t0);
  c.queries_run += 1;
  if (!Record(c, latency, ok)) {
    RemoveFile(path);
    return;
  }
  const BatchAnswer& a = (*result)[0];
  NoteWrite(c, path, a.projection->weak().num_objects(), write);
  LayerTotals& l = c.layers;
  ++l.run_calls;
  l.queries += 1;
  l.call_s += call;
  l.exec_s += a.profile.wall_seconds;
  AddRunStats(stats, l);
  ++l.projects;
  l.project_exec_s += a.profile.wall_seconds;
  l.project_locate_s += a.profile.locate_seconds;
  l.project_structure_s += a.profile.structure_seconds;
  l.project_update_s += a.profile.update_seconds;
  l.kept_objects += a.profile.kept_objects;
}

void SelectAndWrite(const Context& ctx, Client& c, const Op& op,
                    std::uint64_t op_id) {
  const SelectionCondition condition = MakeSelection(*ctx.in.tree, op);
  // No commits run on this workload, so the committed instance stays put.
  const ProbabilisticInstance& instance = ctx.engine->instance();
  const std::string path = FilePath(ctx, c);
  SelectionStats stats;
  const Clock::time_point t0 = Clock::now();
  Result<ProbabilisticInstance> result = [&] {
    obs::TraceSpan span(ctx.trace, "e2e.select");
    span.Arg("op", op_id);
    return Select(instance, condition, &stats, ctx.trace);
  }();
  const double select = SecondsSince(t0);
  bool ok = result.ok();
  double write = 0;
  if (ok) write = TracedWrite(ctx, *result, path, op_id, &ok);
  const double latency = SecondsSince(t0);
  if (!Record(c, latency, ok)) {
    RemoveFile(path);
    return;
  }
  const std::size_t objects = result->weak().num_objects();
  NoteWrite(c, path, objects, write);
  c.selects.push_back({op, stats.condition_prob});
  LayerTotals& l = c.layers;
  ++l.selects;
  l.select_s += select;
  l.select_locate_s += stats.locate_seconds;
  l.select_update_s += stats.update_seconds;
  l.updated_objects += stats.updated_objects;
  l.objects_out += objects;
}

void Commit(const Context& ctx, Client& c, const Op& op, std::uint64_t op_id) {
  Vpf vpf = MakeVpf(op);
  const std::uint64_t before = ctx.engine->head_epoch();
  std::optional<QueryEngine::MutationGuard> guard;
  Status status;
  const Clock::time_point t0 = Clock::now();
  {
    obs::TraceSpan span(ctx.trace, "e2e.commit.begin");
    span.Arg("op", op_id);
    guard.emplace(ctx.engine->BeginMutations());
  }
  const Clock::time_point t1 = Clock::now();
  {
    obs::TraceSpan span(ctx.trace, "e2e.commit.update");
    span.Arg("op", op_id);
    status = guard->UpdateVpf(op.target, std::move(vpf));
  }
  const Clock::time_point t2 = Clock::now();
  {
    obs::TraceSpan span(ctx.trace, "e2e.commit.publish");
    span.Arg("op", op_id);
    guard.reset();  // publishes the next epoch
  }
  const double latency = SecondsSince(t0);
  if (status.ok()) {
    c.committed.push_back(op);
    // The only writer: each commit publishes exactly the next epoch.
    if (ctx.engine->head_epoch() != before + 1) ++c.epoch_errors;
  }
  if (!Record(c, latency, status.ok())) return;
  LayerTotals& l = c.layers;
  ++l.commits;
  l.begin_s += std::chrono::duration<double>(t1 - t0).count();
  l.update_s += std::chrono::duration<double>(t2 - t1).count();
  l.publish_s += latency - std::chrono::duration<double>(t2 - t0).count();
}

/// Issues the client's next request; false when its stream ran out.
bool Step(const Context& ctx, Client& c) {
  const std::size_t n =
      ctx.spec.traffic == Traffic::kBatches && !c.writer ? kBatchSize : 1;
  if (c.next + n > c.stream->size()) {
    c.exhausted = true;
    return false;
  }
  const Op* ops = c.stream->data() + c.next;
  c.next += n;
  const std::uint64_t op_id = (std::uint64_t{c.id} << 32) | c.serial;
  switch (ops[0].kind) {
    case OpKind::kCommit:
      Commit(ctx, c, ops[0], op_id);
      break;
    case OpKind::kSelect:
      SelectAndWrite(ctx, c, ops[0], op_id);
      break;
    case OpKind::kProject:
      ProjectAndWrite(ctx, c, ops[0], op_id);
      break;
    default:
      Query(ctx, c, ops, n, op_id);
      break;
  }
  ++c.serial;
  return true;
}

template <typename Body>
void RunClients(std::vector<Client>& clients, const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (Client& c : clients) threads.emplace_back([&body, &c] { body(c); });
  for (std::thread& t : threads) t.join();
}

/// Resets the kernel's resident-set high-water mark, so that the peak
/// read at the end covers the set-ups and the measured phase and not the
/// input generation before them.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// VmHWM of /proc/self/status in MB, or ru_maxrss where it is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct ProcSample {
  double cpu_s = 0;
  double vol_ctx_switches = 0;
  double minor_faults = 0;
};

ProcSample ReadProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_minflt)};
}

const obs::MetricsSnapshot::HistogramData* FindHistogram(
    const obs::MetricsSnapshot& snapshot, std::string_view name) {
  for (const auto& [n, data] : snapshot.histograms) {
    if (n == name) return &data;
  }
  return nullptr;
}

/// Sum and count of a registry histogram between two snapshots.
std::pair<double, double> HistogramDelta(const obs::MetricsSnapshot& before,
                                         const obs::MetricsSnapshot& after,
                                         std::string_view name) {
  const auto* a = FindHistogram(after, name);
  if (a == nullptr) return {0, 0};
  const auto* b = FindHistogram(before, name);
  const double sum0 = b != nullptr ? static_cast<double>(b->sum) : 0;
  const double count0 = b != nullptr ? static_cast<double>(b->count) : 0;
  return {static_cast<double>(a->sum) - sum0,
          static_cast<double>(a->count) - count0};
}

std::map<std::string, SelfTime> SelfTimes(const obs::TraceSession& session) {
  const std::vector<obs::SpanRecord>& spans = session.spans();
  std::vector<std::uint64_t> covered(spans.size(), 0);
  for (const obs::SpanRecord& s : spans) {
    if (s.closed && s.parent != obs::kNoSpan) covered[s.parent] += s.dur_ns;
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].closed) continue;
    SelfTime& st = out[spans[i].name];
    ++st.count;
    st.self_s +=
        static_cast<double>(spans[i].dur_ns - std::min(spans[i].dur_ns,
                                                       covered[i])) *
        1e-9;
  }
  return out;
}

class Checker {
 public:
  explicit Checker(PassResult& out) : out_(out) {}

  void Expect(bool ok, const std::string& what) {
    ++out_.checks;
    if (ok) return;
    ++out_.failed_checks;
    if (out_.check_errors.size() < 10) out_.check_errors.push_back(what);
  }

  void ExpectClose(double got, const Result<double>& want,
                   const std::string& what) {
    Expect(want.ok() && std::fabs(got - *want) <= kTolerance,
           StrCat(what, ": got ", got, ", reference ",
                  want.ok() ? StrCat(*want) : want.status().ToString()));
  }

 private:
  PassResult& out_;
};

/// Re-answers sampled reads with the generic free functions. On the
/// read/write workload each sample is checked against the instance of
/// its own epoch, rebuilt by replaying the writer's commits in order.
void CheckReads(const Context& ctx, const std::vector<Client>& clients,
                Checker& check) {
  std::vector<ReadSample> samples;
  const Client* writer = nullptr;
  for (const Client& c : clients) {
    samples.insert(samples.end(), c.reads.begin(), c.reads.end());
    if (c.writer) writer = &c;
  }
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end(),
            [](const ReadSample& a, const ReadSample& b) {
              return a.epoch < b.epoch;
            });
  std::optional<ProbabilisticInstance> replay;
  if (writer != nullptr) {
    Result<ProbabilisticInstance> parsed = ParsePxml(ctx.in.text);
    check.Expect(parsed.ok(), "re-parse for replay");
    if (!parsed.ok()) return;
    replay.emplace(std::move(parsed).ValueOrDie());
  }
  std::size_t applied = 0;
  for (const ReadSample& s : samples) {
    const BatchQuery query = MakeQuery(*ctx.in.tree, s.op);
    const ProbabilisticInstance* instance = &ctx.engine->instance();
    if (replay.has_value()) {
      const std::size_t want = s.epoch - 1;  // epoch 1 is the parsed text
      check.Expect(want <= writer->committed.size(),
                   StrCat("read saw epoch ", s.epoch, " beyond ",
                          writer->committed.size(), " commits"));
      while (applied < want && applied < writer->committed.size()) {
        const Op& update = writer->committed[applied++];
        check.Expect(replay->SetVpf(update.target, MakeVpf(update)).ok(),
                     "replay update");
      }
      instance = &*replay;
    }
    check.ExpectClose(s.probability, ReferenceAnswer(*instance, query),
                      StrCat("query kind ", static_cast<int>(s.op.kind),
                             " on object ", s.op.target, " at epoch ",
                             s.epoch));
  }
}

void Check(const Context& ctx, std::vector<Client>& clients,
           PassResult& out) {
  Checker check(out);
  std::uint64_t queries = 0;
  for (const Client& c : clients) queries += c.queries_run;
  check.Expect(ctx.engine->flight_recorder().total_recorded() == queries,
               StrCat("flight recorder holds ",
                      ctx.engine->flight_recorder().total_recorded(),
                      " records for ", queries, " queries"));
  CheckReads(ctx, clients, check);
  for (Client& c : clients) {
    check.Expect(c.epoch_errors == 0,
                 StrCat("client ", c.id, ": ", c.epoch_errors,
                        " epoch-order violations"));
    for (const SelectSample& s : c.selects) {
      check.ExpectClose(
          s.condition_prob,
          ConditionProbability(ctx.engine->instance(),
                               MakeSelection(*ctx.in.tree, s.op)),
          StrCat("selection condition_prob on object ", s.op.target));
    }
    for (const KeptFile& f : c.files) {
      Result<ProbabilisticInstance> back = ReadPxmlFile(f.path);
      check.Expect(back.ok() && back->weak().num_objects() == f.objects,
                   StrCat("re-parse of ", f.path));
      RemoveFile(f.path);
    }
  }
}

double RepeatShare(const std::vector<Client>& clients) {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t total = 0;
  for (const Client& c : clients) {
    if (c.writer) continue;
    for (std::size_t i = 0; i < c.next; ++i) {
      const Op& op = (*c.stream)[i];
      seen.insert((std::uint64_t{op.target} << 16) |
                  (std::uint64_t{op.aux} << 8) |
                  static_cast<std::uint64_t>(op.kind));
      ++total;
    }
  }
  return total == 0 ? 0.0
                    : 1.0 - static_cast<double>(seen.size()) /
                                static_cast<double>(total);
}

}  // namespace

void LayerTotals::Merge(const LayerTotals& o) {
  run_calls += o.run_calls;
  queries += o.queries;
  call_s += o.call_s;
  exec_s += o.exec_s;
  cpu_util += o.cpu_util;
  shared_queries += o.shared_queries;
  tasks += o.tasks;
  steals += o.steals;
  max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
  opf_row_ops += o.opf_row_ops;
  epsilon_recomputed += o.epsilon_recomputed;
  frozen_passes += o.frozen_passes;
  generic_passes += o.generic_passes;
  bytes_allocated += o.bytes_allocated;
  cache_lookups += o.cache_lookups;
  cache_hits += o.cache_hits;
  answer_hits += o.answer_hits;
  answer_misses += o.answer_misses;
  projects += o.projects;
  project_exec_s += o.project_exec_s;
  project_locate_s += o.project_locate_s;
  project_structure_s += o.project_structure_s;
  project_update_s += o.project_update_s;
  kept_objects += o.kept_objects;
  selects += o.selects;
  select_s += o.select_s;
  select_locate_s += o.select_locate_s;
  select_update_s += o.select_update_s;
  updated_objects += o.updated_objects;
  objects_out += o.objects_out;
  writes += o.writes;
  write_s += o.write_s;
  bytes_written += o.bytes_written;
  commits += o.commits;
  begin_s += o.begin_s;
  update_s += o.update_s;
  publish_s += o.publish_s;
}

PassResult RunPass(const Spec& spec, const Inputs& inputs, double seconds,
                   const std::vector<std::uint64_t>* fixed_requests,
                   obs::TraceSession* trace, const std::string& out_dir) {
  PassResult out;
  Context ctx{spec, inputs, nullptr, trace, out_dir};
  std::vector<Client> clients(inputs.streams.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].id = i;
    clients[i].stream = &inputs.streams[i];
    clients[i].writer = spec.has_writer() && i + 1 == clients.size();
  }

  // ---- Set-up, repeated: parse, build the engine, answer the first op.
  ResetPeakRss();
  Clock::time_point phase = Clock::now();
  BatchOptions options;
  options.threads = spec.threads;
  std::unique_ptr<QueryEngine> engine;
  Client& first = clients[0];
  for (std::size_t k = 0; k < kSetups; ++k) {
    engine.reset();
    first.next = 0;
    first.queries_run = 0;
    first.last_epoch = 0;
    const std::uint64_t op_id = (std::uint64_t{first.id} << 32) | first.serial;
    const Clock::time_point t0 = Clock::now();
    Result<ProbabilisticInstance> parsed = [&] {
      obs::TraceSpan span(trace, "e2e.parse");
      span.Arg("op", op_id);
      return ParsePxml(inputs.text);
    }();
    out.parse_s.push_back(SecondsSince(t0));
    if (!parsed.ok()) {
      std::fprintf(stderr, "pxml_e2e: parse: %s\n",
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    {
      obs::TraceSpan span(trace, "e2e.engine_ctor");
      span.Arg("op", op_id);
      engine = std::make_unique<QueryEngine>(std::move(parsed).ValueOrDie(),
                                             options);
    }
    ctx.engine = engine.get();
    Step(ctx, first);
    out.setup_s.push_back(SecondsSince(t0));
  }
  out.setups_wall_s = SecondsSince(phase);

  // ---- Warm-up: fixed request counts, all clients at once.
  phase = Clock::now();
  RunClients(clients, [&](Client& c) {
    const std::size_t n = c.writer ? kWriterWarmup : spec.warmup;
    for (std::size_t i = 0; i < n && Step(ctx, c); ++i) {
    }
  });
  out.warmup_wall_s = SecondsSince(phase);

  // ---- Measured phase: `seconds` of closed-loop requests per client, or
  // exactly the counts an earlier pass completed.
  for (Client& c : clients) {
    c.record = true;
    c.latency_s.reserve(c.stream->size() - c.next);
  }
  const obs::MetricsSnapshot reg0 = obs::Registry::Global().Snapshot();
  const EpsilonMemoCache::Stats cache0 = engine->cache_stats();
  const ProcSample proc0 = ReadProc();
  std::vector<double> end_s(clients.size(), 0.0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunClients(clients, [&](Client& c) {
    if (fixed_requests != nullptr) {
      for (std::uint64_t i = 0; i < (*fixed_requests)[c.id] && Step(ctx, c);
           ++i) {
      }
    } else {
      while (Clock::now() < deadline && Step(ctx, c)) {
      }
    }
    end_s[c.id] = SecondsSince(start);
  });
  // Only the timed clients' finish times: a background client's last
  // request (the writer's commit that straddles the deadline) is no part
  // of the timed clients' wall time.
  for (const Client& c : clients) {
    if (c.writer == spec.writer_is_foreground) {
      out.wall_s = std::max(out.wall_s, end_s[c.id]);
    }
  }
  const ProcSample proc1 = ReadProc();
  const EpsilonMemoCache::Stats cache1 = engine->cache_stats();
  const obs::MetricsSnapshot reg1 = obs::Registry::Global().Snapshot();
  out.peak_rss_mb = PeakRssMb();

  out.cpu_s = proc1.cpu_s - proc0.cpu_s;
  out.vol_ctx_switches = proc1.vol_ctx_switches - proc0.vol_ctx_switches;
  out.minor_faults = proc1.minor_faults - proc0.minor_faults;
  const auto counter_delta = [&](std::string_view name) {
    return reg1.counter(name) - reg0.counter(name);
  };
  out.epochs_published = counter_delta("pxml.engine.epochs_published");
  out.rejected = counter_delta("pxml.engine.rejected");
  out.refreeze_recompiled = counter_delta("pxml.frozen.refreeze_recompiled");
  out.refreeze_reused = counter_delta("pxml.frozen.refreeze_reused");
  out.shed_wait_ns =
      HistogramDelta(reg0, reg1, "pxml.engine.shed_wait_ns").first;
  std::tie(out.snapshot_age_sum, out.snapshot_age_count) =
      HistogramDelta(reg0, reg1, "pxml.engine.snapshot_age_epochs");
  out.cache_evictions = cache1.evictions - cache0.evictions;
  out.cache_invalidated = cache1.invalidated - cache0.invalidated;
  out.cache_entries = engine->cache_size();

  for (Client& c : clients) {
    out.requests.push_back(c.requests);
    out.attempted += c.requests;
    out.failed_ops += c.failed;
    if (c.exhausted) ++out.exhausted_clients;
    out.layers.Merge(c.layers);
    if (c.writer == spec.writer_is_foreground) {
      out.fg_requests += c.requests;
      out.fg_latency_s.insert(out.fg_latency_s.end(), c.latency_s.begin(),
                              c.latency_s.end());
    }
  }
  phase = Clock::now();
  out.repeat_share = RepeatShare(clients);
  Check(ctx, clients, out);
  out.checks_wall_s = SecondsSince(phase);
  if (trace != nullptr) out.span_self = SelfTimes(*trace);
  return out;
}

}  // namespace e2e
}  // namespace pxml
