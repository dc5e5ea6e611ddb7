#ifndef PXML_BENCH_FIG7_COMMON_H_
#define PXML_BENCH_FIG7_COMMON_H_

// Shared sweep driver for the paper's Section-7 experiments (Figure 7).
//
// Workload per §7.1: balanced trees, branching factor 2–8, depth 3–9
// (capped so the largest configuration matches the paper's ~300k-object
// top point), SL and FR edge labelings, no cardinality constraints, 2^b
// OPF rows per non-leaf. Queries are random accepted path expressions of
// length equal to the tree depth; selection conditions pick a uniform
// target among the objects satisfying the path.
//
// Total query time = copy the input + locate + update structure + update
// the local interpretation ℘ + write the result to disk — the same cost
// decomposition the paper reports.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "algebra/projection.h"
#include "algebra/selection.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/frozen.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace bench {

struct SweepPoint {
  LabelingScheme scheme;
  std::uint32_t branching;
  std::uint32_t depth;
};

/// The (scheme, branching, depth) grid of §7.1, capped at `max_objects`.
inline std::vector<SweepPoint> Fig7Sweep(std::size_t max_objects) {
  std::vector<SweepPoint> points;
  for (LabelingScheme scheme :
       {LabelingScheme::kSameLabels, LabelingScheme::kFullyRandom}) {
    for (std::uint32_t b : {2u, 4u, 6u, 8u}) {
      for (std::uint32_t d = 3; d <= 9; ++d) {
        if (BalancedTreeObjectCount(d, b) > max_objects) break;
        points.push_back(SweepPoint{scheme, b, d});
      }
    }
  }
  return points;
}

inline const char* SchemeName(LabelingScheme scheme) {
  return scheme == LabelingScheme::kSameLabels ? "SL" : "FR";
}

inline double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Scratch file used for the write-to-disk phase.
inline std::string ScratchPath() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/pxml_bench_scratch.pxml";
}

/// Flags shared by every bench binary. Each bench fills in its own
/// defaults (historical hardcoded seeds stay the defaults so published
/// series remain reproducible by running with no flags).
struct BenchFlags {
  std::size_t threads = 1;      ///< --threads=N (N >= 1)
  std::uint64_t seed = 0;       ///< --seed=S (workload generation)
  std::string json;             ///< --json=PATH (machine-readable output)
  std::size_t max_objects = 0;  ///< --max-objects=N (0 = bench default)
  /// --opf=explicit|independent|per-label (generated OPF representation)
  OpfStyle opf_style = OpfStyle::kExplicitTable;
  bool frozen = false;          ///< --frozen=on|off (FrozenInstance kernels)
  /// --trace=PATH (Chrome trace-event JSON of the run's span tree; empty
  /// = tracing fully disabled, the null-session zero-cost path)
  std::string trace;
  /// --metrics=PATH (registry snapshot at exit; ".json" suffix picks the
  /// JSON export, anything else the text export)
  std::string metrics;
  /// --prom=PATH (registry snapshot at exit in the Prometheus text
  /// exposition format — the pull-based exporter surface)
  std::string prom;
  /// --slow-ms=MS (slow-query threshold for tail-based trace sampling;
  /// 0 = sampling off, the default)
  std::uint64_t slow_ms = 0;
  /// --recorder-dump=PATH (engine DebugSnapshot JSON at exit: metrics +
  /// flight-recorder ring + slow-query log; engine benches only)
  std::string recorder_dump;
};

/// Parses and REMOVES the shared flags (`--threads=N`, `--seed=S`,
/// `--json=PATH`, `--max-objects=N`, `--opf=REP`,
/// `--frozen=on|off`, `--trace=PATH`, `--metrics=PATH`, `--prom=PATH`,
/// `--slow-ms=MS`, `--recorder-dump=PATH`) from argv, so
/// google-benchmark binaries can hand the remaining arguments to
/// `benchmark::Initialize` without tripping its unknown-flag check.
/// Malformed values warn and keep the default.
inline BenchFlags ParseBenchFlags(int* argc, char** argv,
                                  BenchFlags defaults) {
  BenchFlags flags = defaults;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    bool consumed = false;
    auto numeric = [&](const char* prefix, auto* slot, bool require_pos) {
      const std::size_t len = std::strlen(prefix);
      if (arg.rfind(prefix, 0) != 0) return false;
      char* end = nullptr;
      unsigned long long v = std::strtoull(arg.c_str() + len, &end, 10);
      if (end != nullptr && *end == '\0' && (!require_pos || v > 0)) {
        *slot = static_cast<std::remove_pointer_t<decltype(slot)>>(v);
      } else {
        std::fprintf(stderr, "ignoring malformed %s\n", arg.c_str());
      }
      return true;
    };
    auto onoff = [&](const char* prefix, bool* slot) {
      const std::size_t len = std::strlen(prefix);
      if (arg.rfind(prefix, 0) != 0) return false;
      const std::string value = arg.substr(len);
      if (value == "on") {
        *slot = true;
      } else if (value == "off") {
        *slot = false;
      } else {
        std::fprintf(stderr, "ignoring malformed %s (want on|off)\n",
                     arg.c_str());
      }
      return true;
    };
    consumed =
        numeric("--threads=", &flags.threads, /*require_pos=*/true) ||
        numeric("--seed=", &flags.seed, /*require_pos=*/false) ||
        numeric("--max-objects=", &flags.max_objects, /*require_pos=*/true) ||
        numeric("--slow-ms=", &flags.slow_ms, /*require_pos=*/false) ||
        onoff("--frozen=", &flags.frozen);
    if (!consumed && arg.rfind("--json=", 0) == 0) {
      flags.json = arg.substr(std::strlen("--json="));
      consumed = true;
    }
    if (!consumed && arg.rfind("--trace=", 0) == 0) {
      flags.trace = arg.substr(std::strlen("--trace="));
      consumed = true;
    }
    if (!consumed && arg.rfind("--metrics=", 0) == 0) {
      flags.metrics = arg.substr(std::strlen("--metrics="));
      consumed = true;
    }
    if (!consumed && arg.rfind("--prom=", 0) == 0) {
      flags.prom = arg.substr(std::strlen("--prom="));
      consumed = true;
    }
    if (!consumed && arg.rfind("--recorder-dump=", 0) == 0) {
      flags.recorder_dump = arg.substr(std::strlen("--recorder-dump="));
      consumed = true;
    }
    if (!consumed && arg.rfind("--opf=", 0) == 0) {
      const std::string value = arg.substr(std::strlen("--opf="));
      if (value == "explicit") {
        flags.opf_style = OpfStyle::kExplicitTable;
      } else if (value == "independent") {
        flags.opf_style = OpfStyle::kIndependent;
      } else if (value == "per-label") {
        flags.opf_style = OpfStyle::kPerLabelProduct;
      } else {
        std::fprintf(stderr,
                     "ignoring malformed %s (want explicit|independent|"
                     "per-label)\n",
                     arg.c_str());
      }
      consumed = true;
    }
    if (!consumed) argv[out++] = argv[i];
  }
  *argc = out;
  return flags;
}

inline const char* OpfStyleName(OpfStyle style) {
  switch (style) {
    case OpfStyle::kExplicitTable:
      return "explicit";
    case OpfStyle::kIndependent:
      return "independent";
    case OpfStyle::kPerLabelProduct:
      return "per-label";
  }
  return "?";
}

/// Minimal JSON emission for `--json=PATH`: a bench accumulates one flat
/// object per sweep row and writes {"bench": ..., "seed": ..., "rows":
/// [...]}. Every method is a no-op when no path was given, so call sites
/// stay unconditional. Doubles are printed with %.17g (exact
/// round-trip).
class JsonLog {
 public:
  JsonLog(std::string bench, const BenchFlags& flags)
      : bench_(std::move(bench)), path_(flags.json), seed_(flags.seed) {}

  bool enabled() const { return !path_.empty(); }

  void NextRow() {
    if (enabled()) rows_.emplace_back();
  }
  void Str(const char* key, const std::string& value) {
    if (enabled()) Append(key, StrCat("\"", value, "\""));
  }
  void Int(const char* key, std::uint64_t value) {
    if (enabled()) Append(key, StrCat(value));
  }
  void Num(const char* key, double value) {
    if (!enabled()) return;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Append(key, buf);
  }

  void Write() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench error: cannot open %s\n", path_.c_str());
      std::exit(1);
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"seed\":%llu,\"rows\":[",
                 bench_.c_str(), static_cast<unsigned long long>(seed_));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s{%s}", i == 0 ? "" : ",", rows_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  void Append(const char* key, const std::string& value) {
    std::string& row = rows_.back();
    if (!row.empty()) row += ',';
    row += StrCat("\"", key, "\":", value);
  }

  std::string bench_;
  std::string path_;
  std::uint64_t seed_;
  std::vector<std::string> rows_;
};

/// Parses a `--threads=N` flag; returns `default_threads` when absent
/// or malformed. Thin shim over ParseBenchFlags for benches that only
/// take the one flag.
inline std::size_t ParseThreadsFlag(int argc, char** argv,
                                    std::size_t default_threads) {
  BenchFlags defaults;
  defaults.threads = default_threads;
  return ParseBenchFlags(&argc, argv, defaults).threads;
}

/// Fails fast on infrastructure errors (generation, I/O).
inline void BenchCheck(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench error (%s): %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// The bench-side observability wiring: holds the run's TraceSession iff
/// `--trace=PATH` was given (session() is null otherwise — the zero-cost
/// disabled path all hot code branches on), and writes the trace /
/// `--metrics` registry snapshot in Finish(). Exits non-zero on I/O
/// failure so CI catches a broken export.
class ObsOutputs {
 public:
  explicit ObsOutputs(const BenchFlags& flags)
      : trace_path_(flags.trace),
        metrics_path_(flags.metrics),
        prom_path_(flags.prom) {
    if (!trace_path_.empty()) session_.emplace();
  }

  obs::TraceSession* session() {
    return session_.has_value() ? &*session_ : nullptr;
  }

  void Finish() {
    if (session_.has_value()) {
      BenchCheck(session_->WriteChromeTrace(trace_path_), "write trace");
      std::printf("# wrote Chrome trace (%zu spans) to %s\n",
                  session_->spans().size(), trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      if (!obs::WriteGlobalMetrics(metrics_path_)) std::exit(1);
      std::printf("# wrote metrics snapshot to %s\n", metrics_path_.c_str());
    }
    if (!prom_path_.empty()) {
      if (!obs::WriteGlobalPrometheus(prom_path_)) std::exit(1);
      std::printf("# wrote Prometheus text to %s\n", prom_path_.c_str());
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string prom_path_;
  std::optional<obs::TraceSession> session_;
};

/// Number of (instances, queries-per-instance) to average, scaled down
/// for large configurations to keep the sweep's wall time reasonable
/// (the paper averaged 10 x 10 on 2002 hardware).
inline std::pair<int, int> Repetitions(std::size_t objects) {
  if (objects > 50000) return {1, 2};
  if (objects > 5000) return {1, 5};
  return {2, 5};
}

struct ProjectionRow {
  SweepPoint point;
  std::size_t objects = 0;
  std::size_t opf_entries = 0;
  int queries = 0;
  double total_ms = 0;    // copy + locate + structure + update + write
  double copy_ms = 0;
  double locate_ms = 0;
  double structure_ms = 0;
  double update_ms = 0;   // the Fig 7(b) quantity
  double write_ms = 0;
  std::size_t kept_objects = 0;
  // Representation-sensitive work counters, summed over all queries
  // (DESIGN.md §9).
  std::uint64_t opf_row_ops = 0;
  std::uint64_t entries_materialized = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t frozen_passes = 0;
};

/// Runs the ancestor-projection experiment for one sweep point.
/// `opf_style` selects the generated OPF representation; with
/// `frozen` the instance is compiled once per generated instance (the
/// QueryEngine amortization model) and the marginalization pass runs on
/// the compiled kernels.
inline ProjectionRow RunProjectionPoint(
    const SweepPoint& point, std::uint64_t seed,
    OpfStyle opf_style = OpfStyle::kExplicitTable, bool frozen = false,
    obs::TraceSession* trace = nullptr) {
  ProjectionRow row;
  row.point = point;
  auto [num_instances, num_queries] = Repetitions(
      BalancedTreeObjectCount(point.depth, point.branching));
  Rng query_rng(seed ^ 0x51CA7E);
  std::string scratch = ScratchPath();
  for (int i = 0; i < num_instances; ++i) {
    GeneratorConfig config;
    config.depth = point.depth;
    config.branching = point.branching;
    config.labeling = point.scheme;
    config.opf_style = opf_style;
    config.seed = seed + static_cast<std::uint64_t>(i) * 7919;
    auto inst = GenerateBalancedTree(config);
    BenchCheck(inst.status(), "generate");
    row.objects = inst->weak().num_objects();
    row.opf_entries = inst->TotalOpfEntries();
    std::optional<FrozenInstance> snapshot;
    if (frozen) {
      auto fz = FrozenInstance::Freeze(*inst);
      BenchCheck(fz.status(), "freeze");
      snapshot.emplace(std::move(fz).ValueOrDie());
    }
    for (int q = 0; q < num_queries; ++q) {
      auto path = GenerateAcceptedPath(*inst, query_rng);
      BenchCheck(path.status(), "path");
      auto t0 = std::chrono::steady_clock::now();
      ProbabilisticInstance copy = *inst;  // the paper's copy phase
      double copy_ms = MsSince(t0);
      ProjectionStats stats;
      auto result = AncestorProject(
          copy, *path, &stats, snapshot ? &*snapshot : nullptr, trace);
      BenchCheck(result.status(), "project");
      auto tw = std::chrono::steady_clock::now();
      BenchCheck(WritePxmlFile(*result, scratch), "write");
      double write_ms = MsSince(tw);
      row.copy_ms += copy_ms;
      row.locate_ms += stats.locate_seconds * 1e3;
      row.structure_ms += stats.structure_seconds * 1e3;
      row.update_ms += stats.update_seconds * 1e3;
      row.write_ms += write_ms;
      row.total_ms += MsSince(t0);
      row.kept_objects += stats.kept_objects;
      row.opf_row_ops += stats.opf_row_ops;
      row.entries_materialized += stats.entries_materialized;
      row.bytes_allocated += stats.bytes_allocated;
      row.frozen_passes += stats.frozen_passes;
      ++row.queries;
    }
  }
  std::remove(scratch.c_str());
  double n = row.queries;
  row.total_ms /= n;
  row.copy_ms /= n;
  row.locate_ms /= n;
  row.structure_ms /= n;
  row.update_ms /= n;
  row.write_ms /= n;
  row.kept_objects = static_cast<std::size_t>(
      static_cast<double>(row.kept_objects) / n);
  return row;
}

struct SelectionRow {
  SweepPoint point;
  std::size_t objects = 0;
  std::size_t opf_entries = 0;
  int queries = 0;
  double total_ms = 0;  // copy + locate + ℘ update + write
  double locate_ms = 0;
  double update_ms = 0;
  double write_ms = 0;
};

/// Runs the selection experiment for one sweep point.
inline SelectionRow RunSelectionPoint(const SweepPoint& point,
                                      std::uint64_t seed,
                                      obs::TraceSession* trace = nullptr) {
  SelectionRow row;
  row.point = point;
  auto [num_instances, num_queries] = Repetitions(
      BalancedTreeObjectCount(point.depth, point.branching));
  Rng query_rng(seed ^ 0x5E1EC7);
  std::string scratch = ScratchPath();
  for (int i = 0; i < num_instances; ++i) {
    GeneratorConfig config;
    config.depth = point.depth;
    config.branching = point.branching;
    config.labeling = point.scheme;
    config.seed = seed + static_cast<std::uint64_t>(i) * 104729;
    auto inst = GenerateBalancedTree(config);
    BenchCheck(inst.status(), "generate");
    row.objects = inst->weak().num_objects();
    row.opf_entries = inst->TotalOpfEntries();
    for (int q = 0; q < num_queries; ++q) {
      auto cond = GenerateObjectSelection(*inst, query_rng);
      BenchCheck(cond.status(), "condition");
      auto t0 = std::chrono::steady_clock::now();
      SelectionStats stats;
      auto result = Select(*inst, *cond, &stats, trace);
      BenchCheck(result.status(), "select");
      auto tw = std::chrono::steady_clock::now();
      BenchCheck(WritePxmlFile(*result, scratch), "write");
      double write_ms = MsSince(tw);
      row.locate_ms += stats.locate_seconds * 1e3;
      row.update_ms += stats.update_seconds * 1e3;
      row.write_ms += write_ms;
      row.total_ms += MsSince(t0);
      ++row.queries;
    }
  }
  std::remove(scratch.c_str());
  double n = row.queries;
  row.total_ms /= n;
  row.locate_ms /= n;
  row.update_ms /= n;
  row.write_ms /= n;
  return row;
}

}  // namespace bench
}  // namespace pxml

#endif  // PXML_BENCH_FIG7_COMMON_H_
