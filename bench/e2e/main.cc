// pxml_e2e: the end-to-end benchmark. One process runs one workload:
//
//   pxml_e2e --workload=NAME --seed=S [--seconds=N] [--json=PATH]
//            [--trace=PATH] [--smoke] [--out=DIR]
//
// It generates the workload's inputs from the seed, runs the untraced
// pass (the end-to-end metrics) and, with --trace, a traced pass of the
// same request counts (the per-layer metrics, and the Chrome trace
// written to PATH). It prints one `workload.metric value unit n=samples`
// line per metric and, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or the
// per-layer ones with --trace. The exit status is 1 when a correctness
// check failed or a client ran out of its op stream, 2 on bad flags.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "e2e.h"
#include "obs/trace.h"

namespace pxml {
namespace e2e {
namespace {

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  std::string json;
  std::string trace;
  std::string out;
  bool smoke = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix, std::string* slot) {
      const std::string p = prefix;
      if (arg.rfind(p, 0) != 0) return false;
      *slot = arg.substr(p.size());
      return true;
    };
    std::string v;
    if (value("--workload=", &flags->workload) ||
        value("--json=", &flags->json) || value("--trace=", &flags->trace) ||
        value("--out=", &flags->out)) {
      continue;
    }
    if (value("--seed=", &v)) {
      char* end = nullptr;
      flags->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (value("--seconds=", &v)) {
      char* end = nullptr;
      flags->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(flags->seconds > 0)) return false;
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else {
      return false;
    }
  }
  return !flags->workload.empty();
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::uint64_t n = 0;  ///< samples behind the value
};

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Nearest-rank quantile of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::vector<Metric> EndToEnd(const PassResult& p) {
  const std::uint64_t n = p.fg_latency_s.size();
  return {
      {"setup_s", Median(p.setup_s), "s", p.setup_s.size()},
      {"ops_per_s", Div(static_cast<double>(p.fg_requests), p.wall_s), "1/s",
       p.fg_requests},
      {"p50_ms", Quantile(p.fg_latency_s, 0.5) * 1e3, "ms", n},
      {"p75_ms", Quantile(p.fg_latency_s, 0.75) * 1e3, "ms", n},
      {"peak_rss_mb", p.peak_rss_mb, "MB", 1},
  };
}

/// The higher percentiles. They are reported but carry no regression
/// bound: on a host whose speed drifts they move by more than any bound
/// the benchmark may set (README.md).
std::vector<Metric> Tails(const PassResult& p) {
  const std::uint64_t n = p.fg_latency_s.size();
  return {
      {"p90_ms", Quantile(p.fg_latency_s, 0.9) * 1e3, "ms", n},
      {"p99_ms", Quantile(p.fg_latency_s, 0.99) * 1e3, "ms", n},
  };
}

double TextMb(const Inputs& in) {
  return static_cast<double>(in.text.size()) / 1e6;
}

/// What the workload's inputs are like; recorded with every run.
std::vector<Metric> InputProperties(const Spec& spec, const Inputs& in,
                                    const PassResult& p) {
  return {
      {"input.objects", static_cast<double>(in.objects), "count", 1},
      {"input.opf_rows", static_cast<double>(in.opf_rows), "count", 1},
      {"input.text_mb", TextMb(in), "MB", 1},
      {"input.path_length", static_cast<double>(in.tree->height()), "labels",
       1},
      {"input.repeat_share", p.repeat_share, "ratio", 1},
      {"input.clients", static_cast<double>(in.streams.size()), "count", 1},
      {"input.threads", static_cast<double>(spec.threads), "count", 1},
  };
}

std::vector<Metric> PerLayer(const Inputs& in, const PassResult& untraced,
                             const PassResult& t) {
  const LayerTotals& l = t.layers;
  const double text_mb = TextMb(in);
  const double parse_s = Median(t.parse_s);
  const double calls = static_cast<double>(l.run_calls);
  const double queries = static_cast<double>(l.queries);
  const double projects = static_cast<double>(l.projects);
  const double selects = static_cast<double>(l.selects);
  const double commits = static_cast<double>(l.commits);
  const double requests = static_cast<double>(t.attempted);
  const std::size_t clients = in.streams.size();
  return {
      // xml.
      {"xml.parse_s", parse_s, "s", t.parse_s.size()},
      {"xml.parse_mb_per_s", Div(text_mb, parse_s), "MB/s", t.parse_s.size()},
      {"xml.write_ms", Div(l.write_s * 1e3, l.writes), "ms", l.writes},
      {"xml.write_mb_per_s", Div(l.bytes_written / 1e6, l.write_s), "MB/s",
       l.writes},
      {"xml.bytes_written_per_op", Div(l.bytes_written, l.writes), "B",
       l.writes},
      // algebra, selection.
      {"algebra.select_ms", Div(l.select_s * 1e3, selects), "ms", l.selects},
      {"algebra.select.locate_ms", Div(l.select_locate_s * 1e3, selects),
       "ms", l.selects},
      {"algebra.select.update_ms", Div(l.select_update_s * 1e3, selects),
       "ms", l.selects},
      {"algebra.select.unattributed_ms",
       Div((l.select_s - l.select_locate_s - l.select_update_s) * 1e3,
           selects),
       "ms", l.selects},
      {"algebra.select.updated_objects", Div(l.updated_objects, selects),
       "count", l.selects},
      {"algebra.select.objects_out", Div(l.objects_out, selects), "count",
       l.selects},
      {"algebra.select.useful_share", Div(l.updated_objects, l.objects_out),
       "ratio", l.selects},
      // algebra, projection (through the engine).
      {"algebra.project.locate_ms", Div(l.project_locate_s * 1e3, projects),
       "ms", l.projects},
      {"algebra.project.structure_ms",
       Div(l.project_structure_s * 1e3, projects), "ms", l.projects},
      {"algebra.project.update_ms", Div(l.project_update_s * 1e3, projects),
       "ms", l.projects},
      {"algebra.project.unattributed_ms",
       Div((l.project_exec_s - l.project_locate_s - l.project_structure_s -
            l.project_update_s) *
               1e3,
           projects),
       "ms", l.projects},
      {"algebra.project.kept_objects", Div(l.kept_objects, projects), "count",
       l.projects},
      // query/engine.
      {"engine.call_us", Div(l.call_s * 1e6, calls), "us", l.run_calls},
      {"engine.exec_us", Div(l.exec_s * 1e6, calls), "us", l.run_calls},
      {"engine.outside_exec_us", Div((l.call_s - l.exec_s) * 1e6, calls),
       "us", l.run_calls},
      // The process CPU clock cannot be split between concurrent clients.
      {"engine.batch_cpu_util", clients == 1 ? Div(l.cpu_util, calls) : 0.0,
       "ratio", l.run_calls},
      {"engine.shared_queries_per_batch", Div(l.shared_queries, calls),
       "count", l.run_calls},
      {"engine.rejected", static_cast<double>(t.rejected), "count", 1},
      {"engine.shed_wait_ms", t.shed_wait_ns / 1e6, "ms", 1},
      {"engine.commit.begin_ms", Div(l.begin_s * 1e3, commits), "ms",
       l.commits},
      {"engine.commit.update_ms", Div(l.update_s * 1e3, commits), "ms",
       l.commits},
      {"engine.commit.publish_ms", Div(l.publish_s * 1e3, commits), "ms",
       l.commits},
      {"engine.snapshot_age_epochs",
       Div(t.snapshot_age_sum, t.snapshot_age_count), "epochs",
       static_cast<std::uint64_t>(t.snapshot_age_count)},
      {"engine.epochs_published", static_cast<double>(t.epochs_published),
       "count", 1},
      // query/frozen and its kernels.
      {"frozen.opf_row_ops_per_query", Div(l.opf_row_ops, queries), "count",
       l.queries},
      {"frozen.epsilon_recomputed_per_query",
       Div(l.epsilon_recomputed, queries), "count", l.queries},
      {"frozen.frozen_pass_share",
       Div(l.frozen_passes, l.frozen_passes + l.generic_passes), "ratio",
       l.queries},
      {"frozen.bytes_allocated_per_query", Div(l.bytes_allocated, queries),
       "B", l.queries},
      {"frozen.refreeze_recompiled_per_commit",
       Div(t.refreeze_recompiled, commits), "count", l.commits},
      {"frozen.refreeze_reused_per_commit", Div(t.refreeze_reused, commits),
       "count", l.commits},
      // query/epsilon_cache and query/answer_cache.
      {"epsilon_cache.hit_rate", Div(l.cache_hits, l.cache_lookups), "ratio",
       l.cache_lookups},
      {"epsilon_cache.entries", static_cast<double>(t.cache_entries), "count",
       1},
      {"epsilon_cache.evictions", static_cast<double>(t.cache_evictions),
       "count", 1},
      {"epsilon_cache.invalidated", static_cast<double>(t.cache_invalidated),
       "count", 1},
      {"answer_cache.hit_rate",
       Div(l.answer_hits, l.answer_hits + l.answer_misses), "ratio",
       l.answer_hits + l.answer_misses},
      // util/thread_pool.
      {"thread_pool.tasks_per_batch", Div(l.tasks, calls), "count",
       l.run_calls},
      {"thread_pool.steals_per_batch", Div(l.steals, calls), "count",
       l.run_calls},
      {"thread_pool.max_queue_depth", static_cast<double>(l.max_queue_depth),
       "count", l.run_calls},
      // Process-wide, per request of the measured phase.
      {"proc.cpu_ms_per_op", Div(t.cpu_s * 1e3, requests), "ms", t.attempted},
      {"proc.vol_ctx_switches_per_op", Div(t.vol_ctx_switches, requests),
       "count", t.attempted},
      {"proc.minor_faults_per_op", Div(t.minor_faults, requests), "count",
       t.attempted},
      // Same request counts, traced over untraced.
      {"trace_overhead_ratio", Div(t.wall_s, untraced.wall_s), "ratio",
       t.attempted},
  };
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_n) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"";
    if (with_n) out += ", \"n\": " + std::to_string(m.n);
    out += "}";
  }
  return out + "}";
}

void PrintLines(const Spec& spec, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s.%s %s %s n=%llu\n", spec.name, m.name.c_str(),
                Number(m.value).c_str(), m.unit,
                static_cast<unsigned long long>(m.n));
  }
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: pxml_e2e --workload=NAME [--seed=S] [--seconds=N] "
                 "[--json=PATH] [--trace=PATH] [--smoke] [--out=DIR]\n");
    return 2;
  }
  const Spec* spec = FindSpec(flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "pxml_e2e: unknown workload '%s'; one of:",
                 flags.workload.c_str());
    for (const Spec& s : AllSpecs()) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (flags.out.empty()) {
    flags.out = (std::filesystem::absolute(argv[0]).parent_path() / "out")
                    .string();
  }
  std::filesystem::create_directories(flags.out);

  const Clock::time_point t0 = Clock::now();
  const Inputs inputs = MakeInputs(*spec, flags.seed, flags.seconds,
                                   flags.smoke);
  const double inputs_s = SecondsSince(t0);
  std::printf("# %s: seed %llu, %zu objects, %zu OPF rows (%s), %.1f MB of "
              "text, %zu client(s), threads=%zu\n",
              spec->name, static_cast<unsigned long long>(flags.seed),
              inputs.objects, inputs.opf_rows, inputs.representation.c_str(),
              static_cast<double>(inputs.text.size()) / 1e6,
              inputs.streams.size(), spec->threads);
  std::fflush(stdout);

  const std::vector<std::uint64_t> smoke_requests(inputs.streams.size(),
                                                  kSmokeRequests);
  const PassResult untraced =
      RunPass(*spec, inputs, flags.seconds,
              flags.smoke ? &smoke_requests : nullptr, nullptr, flags.out);
  std::vector<const PassResult*> passes{&untraced};
  const std::vector<Metric> e2e = EndToEnd(untraced);
  const std::vector<Metric> tails = Tails(untraced);
  const std::vector<Metric> input = InputProperties(*spec, inputs, untraced);
  PrintLines(*spec, e2e);
  PrintLines(*spec, tails);
  PrintLines(*spec, input);
  std::printf("# phases: inputs %.2f s, set-ups %.2f s, warm-up %.2f s, "
              "measured %.2f s, %llu checks %.2f s\n",
              inputs_s, untraced.setups_wall_s, untraced.warmup_wall_s,
              untraced.wall_s, static_cast<unsigned long long>(untraced.checks),
              untraced.checks_wall_s);

  std::vector<Metric> layers;
  std::optional<PassResult> traced;
  if (!flags.trace.empty()) {
    obs::TraceSession session;
    traced = RunPass(*spec, inputs, flags.seconds, &untraced.requests,
                     &session, flags.out);
    passes.push_back(&*traced);
    layers = PerLayer(inputs, untraced, *traced);
    PrintLines(*spec, layers);
    for (const auto& [name, st] : traced->span_self) {
      std::printf("# span %-24s count=%-8llu self=%.3f ms total, %.4f ms each\n",
                  name.c_str(), static_cast<unsigned long long>(st.count),
                  st.self_s * 1e3, Div(st.self_s * 1e3, st.count));
    }
    const Status written = session.WriteChromeTrace(flags.trace);
    if (!written.ok()) {
      std::fprintf(stderr, "pxml_e2e: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("# wrote Chrome trace (%zu spans) to %s\n",
                session.spans().size(), flags.trace.c_str());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult* p : passes) {
    attempted += p->attempted;
    failed += p->failed_ops + p->failed_checks + p->exhausted_clients;
    for (const std::string& e : p->check_errors) {
      std::fprintf(stderr, "pxml_e2e: check failed: %s\n", e.c_str());
    }
    if (p->exhausted_clients > 0) {
      std::fprintf(stderr,
                   "pxml_e2e: %llu client(s) used up the pre-generated "
                   "stream, so the run is capped; raise max_requests_per_s\n",
                   static_cast<unsigned long long>(p->exhausted_clients));
    }
  }
  const bool correct = failed == 0;
  std::printf("%s.error_rate %s ratio n=%llu\n", spec->name,
              Number(Div(failed, attempted)).c_str(),
              static_cast<unsigned long long>(attempted));

  if (!flags.json.empty()) {
    std::FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pxml_e2e: cannot write %s\n", flags.json.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
        "\"representation\": \"%s\", "
        "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"end_to_end\": %s, \"tails\": %s, \"input\": %s, "
        "\"per_layer\": %s}\n",
        spec->name, static_cast<unsigned long long>(flags.seed),
        Number(flags.seconds).c_str(), inputs.representation.c_str(),
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        MetricsJson(e2e, true).c_str(), MetricsJson(tails, true).c_str(),
        MetricsJson(input, true).c_str(),
        MetricsJson(layers, true).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(flags.trace.empty() ? e2e : layers, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace pxml

int main(int argc, char** argv) { return pxml::e2e::Main(argc, argv); }
