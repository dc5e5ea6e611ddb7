// Frozen-kernel ablation (DESIGN.md §9): the fig7a workload with
// per-label-product OPFs (branching 8 split round-robin across 2
// labels), evaluated by the generic interpreter and by the compiled
// FrozenInstance kernels. Wall clock is unobservable in a 1-CPU CI
// container, so the wins are counter-verified instead:
//
//   * opf_row_ops: the frozen per-label kernel touches only the on-path
//     factor's 2^{b_l} rows (Σ_l 2^{b_l} for ε) instead of the generic
//     2^{Σ_l b_l} enumeration — required ratio ≥ 10×;
//   * entries_materialized == 0 on the frozen path (no OpfEntry is ever
//     heap-materialized);
//   * bytes_allocated == 0 on warm re-queries (scratch arenas and
//     thread-local buffers keep their capacity).
//
// Results must agree with the generic interpreter to 1e-12 (the
// factored per-label recurrence associates differently — see
// query/frozen.h).
//
// --check additionally gates the observability layer (DESIGN.md §10):
//
//   * registry reconcile: the `pxml.projection.*` / `pxml.epsilon.*`
//     registry counter deltas across the measured passes must equal the
//     legacy ProjectionStats/EpsilonStats totals exactly (both views are
//     flushed from one pass-local tally, so any drift is a bug);
//   * tracing neutrality: re-running a query with a TraceSession attached
//     must leave every hot-path work counter (recomputed, opf_row_ops,
//     entries_materialized) unchanged and return the bit-identical
//     answer — with tracing off the only cost is a branch on a null
//     pointer, and these counters are how that contract is enforced in a
//     container where wall clock is unobservable;
//   * recorder neutrality: a QueryEngine with the flight-recorder ring
//     and armed tail sampling must return bit-identical answers with
//     exactly equal row-op totals vs one with observability off, while
//     the ring records every completion and the sampler retains nothing
//     below threshold (the wall-clock side of the same contract is gated
//     by `bench_batch_queries --recorder-gate`).
//
// --check additionally gates the SIMD lane backends (DESIGN.md §14):
//
//   * agreement: under every backend this host can run (scalar always;
//     SSE2/AVX2 per cpuid), independent-OPF answers are bit-identical to
//     the scalar backend and per-label answers agree to 1e-12 (the
//     documented MaskedDot reduction-order envelope);
//   * dispatch neutrality: the work counters (recomputed, opf_row_ops,
//     frozen_passes, entries_materialized) are EXACTLY equal across
//     backends — vectorization changes how the arithmetic is issued,
//     never how much work is accounted.
//
// Both sections degrade to scalar-only (still exercising the selection
// machinery) under PXML_FORCE_SCALAR=1 — the sanitizer CI leg.
//
// Usage: bench_frozen_kernels [--seed=S] [--json=PATH] [--check]
//        [--trace=PATH] [--metrics=PATH] [--simd=auto|avx2|sse2|scalar]
//        [--speed-gate]
// --check exits non-zero when any of the above assertions fail (the CI
// gate). --speed-gate additionally requires the vectorized single-thread
// sweep to beat --simd=scalar by >= 1.5x (only meaningful on quiet
// AVX2 hardware; off by default because CI wall clock is noisy).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fig7_common.h"
#include "query/engine.h"
#include "query/point_queries.h"
#include "util/simd.h"

namespace {

using namespace pxml;         // NOLINT
using namespace pxml::bench;  // NOLINT

int g_failures = 0;

void Check(bool ok, const char* what, const std::string& detail) {
  std::printf("%-7s %s (%s)\n", ok ? "ok" : "FAIL", what, detail.c_str());
  if (!ok) ++g_failures;
}

/// The lane backends this host can actually run, weakest first.
std::vector<simd::Backend> AvailableSimdBackends() {
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  if (simd::ForcedScalar()) return out;
  if (simd::DetectedBackend() >= simd::Backend::kSse2) {
    out.push_back(simd::Backend::kSse2);
  }
  if (simd::DetectedBackend() >= simd::Backend::kAvx2) {
    out.push_back(simd::Backend::kAvx2);
  }
  return out;
}

/// One warm frozen exists pass; returns the answer and copies out the
/// pass's work counters for the dispatch-neutrality comparison.
struct PassResult {
  double p = 0.0;
  std::uint64_t recomputed = 0;
  std::uint64_t opf_row_ops = 0;
  std::uint64_t frozen_passes = 0;
  std::uint64_t entries_materialized = 0;
};

PassResult RunFrozenExists(const ProbabilisticInstance& inst,
                           const FrozenInstance& frozen,
                           const PathExpression& path,
                           EpsilonScratch* scratch) {
  EpsilonStats stats;
  EpsilonHooks hooks;
  hooks.stats = &stats;
  hooks.frozen = &frozen;
  hooks.scratch = scratch;
  auto p = ExistsQuery(inst, path, {}, hooks);
  BenchCheck(p.status(), "simd exists");
  PassResult r;
  r.p = *p;
  r.recomputed = stats.recomputed.load();
  r.opf_row_ops = stats.opf_row_ops.load();
  r.frozen_passes = stats.frozen_passes.load();
  r.entries_materialized = stats.entries_materialized.load();
  return r;
}

/// Min-of-rounds wall clock of `reps` warm frozen exists passes over all
/// `paths` under the currently active backend.
double TimeFrozenSweepMs(const ProbabilisticInstance& inst,
                         const FrozenInstance& frozen,
                         const std::vector<PathExpression>& paths, int reps,
                         int rounds, EpsilonScratch* scratch) {
  // Warm the scratch arenas first so no round pays allocation.
  for (const PathExpression& p : paths) {
    RunFrozenExists(inst, frozen, p, scratch);
  }
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      for (const PathExpression& p : paths) {
        EpsilonHooks hooks;
        hooks.frozen = &frozen;
        hooks.scratch = scratch;
        auto res = ExistsQuery(inst, p, {}, hooks);
        BenchCheck(res.status(), "timed exists");
      }
    }
    const double ms = MsSince(t0);
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_mode = false;
  bool speed_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check_mode = true;
    if (std::strcmp(argv[i], "--speed-gate") == 0) speed_gate = true;
  }
  BenchFlags defaults;
  defaults.threads = 1;
  defaults.seed = 20260806;
  const BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  ApplySimdFlag(flags);
  JsonLog json("frozen_kernels", flags);
  ObsOutputs obs(flags);
  std::printf("# simd backend: %s (detected %s)\n",
              simd::BackendName(simd::ActiveBackend()),
              simd::BackendName(simd::DetectedBackend()));

  GeneratorConfig config;
  config.depth = 4;
  config.branching = 8;
  config.labels_per_level = 2;
  config.opf_style = OpfStyle::kPerLabelProduct;
  config.seed = flags.seed;
  auto generated = GenerateBalancedTree(config);
  BenchCheck(generated.status(), "generate");
  // A const view: the non-const weak() accessor bumps the instance's
  // version counters (by design), which would invalidate the snapshot.
  const ProbabilisticInstance& inst = *generated;
  std::printf("# frozen kernels vs generic interpreter: %zu objects, "
              "per-label OPFs (b=8 over 2 labels)\n",
              inst.weak().num_objects());

  Rng query_rng(flags.seed ^ 0x51CA7E);
  auto path = GenerateAcceptedPath(inst, query_rng);
  BenchCheck(path.status(), "path");

  auto snapshot = FrozenInstance::Freeze(inst);
  BenchCheck(snapshot.status(), "freeze");
  const FrozenInstance& frozen = *snapshot;

  // ---- Marginalization (ancestor projection ℘ update).
  const obs::MetricsSnapshot proj_reg0 = obs::Registry::Global().Snapshot();
  ProjectionStats generic_proj;
  auto generic_result = AncestorProject(inst, *path, &generic_proj, {},
                                        nullptr, nullptr, obs.session());
  BenchCheck(generic_result.status(), "generic project");
  ProjectionStats cold_proj;
  auto frozen_cold = AncestorProject(inst, *path, &cold_proj, {}, &frozen,
                                     nullptr, obs.session());
  BenchCheck(frozen_cold.status(), "frozen project (cold)");
  ProjectionStats warm_proj;
  auto frozen_result = AncestorProject(inst, *path, &warm_proj, {}, &frozen,
                                       nullptr, obs.session());
  BenchCheck(frozen_result.status(), "frozen project (warm)");
  const obs::MetricsSnapshot proj_reg1 = obs::Registry::Global().Snapshot();

  // ℘'(r)(∅) is the probability that no object matches the path — a
  // scalar summary of the whole marginalization.
  const ObjectId root = inst.weak().root();
  const double generic_empty = generic_result->GetOpf(root)->Prob(IdSet());
  const double frozen_empty = frozen_result->GetOpf(root)->Prob(IdSet());

  Check(warm_proj.frozen_passes == 1, "projection ran on frozen kernels",
        StrCat("frozen_passes=", warm_proj.frozen_passes));
  Check(warm_proj.entries_materialized == 0,
        "projection materialized no rows",
        StrCat("entries_materialized=", warm_proj.entries_materialized));
  Check(warm_proj.bytes_allocated == 0,
        "warm projection re-query allocated nothing",
        StrCat("bytes_allocated=", warm_proj.bytes_allocated));
  Check(warm_proj.opf_row_ops * 10 <= generic_proj.opf_row_ops,
        "projection row ops >= 10x fewer",
        StrCat("generic=", generic_proj.opf_row_ops,
               " frozen=", warm_proj.opf_row_ops));
  Check(std::abs(generic_empty - frozen_empty) <= 1e-12,
        "projection results agree to 1e-12",
        StrCat("generic=", generic_empty, " frozen=", frozen_empty));

  // Registry reconcile: the pxml.projection.* deltas across the three
  // passes above must equal the legacy stats totals exactly.
  auto delta = [](const obs::MetricsSnapshot& after,
                  const obs::MetricsSnapshot& before, const char* name) {
    return after.counter(name) - before.counter(name);
  };
  const std::uint64_t proj_row_ops_total = generic_proj.opf_row_ops +
                                           cold_proj.opf_row_ops +
                                           warm_proj.opf_row_ops;
  Check(delta(proj_reg1, proj_reg0, "pxml.projection.opf_row_ops") ==
            proj_row_ops_total,
        "projection registry row ops reconcile with legacy stats",
        StrCat("registry=",
               delta(proj_reg1, proj_reg0, "pxml.projection.opf_row_ops"),
               " legacy=", proj_row_ops_total));
  Check(delta(proj_reg1, proj_reg0, "pxml.projection.passes") == 3,
        "projection registry pass count reconciles",
        StrCat("registry=",
               delta(proj_reg1, proj_reg0, "pxml.projection.passes")));
  Check(delta(proj_reg1, proj_reg0, "pxml.projection.frozen_passes") ==
            cold_proj.frozen_passes + warm_proj.frozen_passes,
        "projection registry frozen passes reconcile",
        StrCat("registry=",
               delta(proj_reg1, proj_reg0, "pxml.projection.frozen_passes"),
               " legacy=", cold_proj.frozen_passes + warm_proj.frozen_passes));
  Check(delta(proj_reg1, proj_reg0, "pxml.projection.entries_materialized") ==
            generic_proj.entries_materialized +
                cold_proj.entries_materialized +
                warm_proj.entries_materialized,
        "projection registry materializations reconcile",
        StrCat("registry=",
               delta(proj_reg1, proj_reg0,
                     "pxml.projection.entries_materialized")));

  // ---- ε propagation (exists point query).
  const obs::MetricsSnapshot eps_reg0 = obs::Registry::Global().Snapshot();
  EpsilonStats generic_eps;
  EpsilonHooks generic_hooks;
  generic_hooks.stats = &generic_eps;
  auto generic_p = ExistsQuery(inst, *path, {}, generic_hooks);
  BenchCheck(generic_p.status(), "generic exists");

  EpsilonScratch scratch;
  EpsilonStats cold_eps;
  EpsilonHooks frozen_hooks;
  frozen_hooks.stats = &cold_eps;
  frozen_hooks.frozen = &frozen;
  frozen_hooks.scratch = &scratch;
  auto frozen_cold_p = ExistsQuery(inst, *path, {}, frozen_hooks);
  BenchCheck(frozen_cold_p.status(), "frozen exists (cold)");
  EpsilonStats warm_eps;
  frozen_hooks.stats = &warm_eps;
  auto frozen_p = ExistsQuery(inst, *path, {}, frozen_hooks);
  BenchCheck(frozen_p.status(), "frozen exists (warm)");
  const obs::MetricsSnapshot eps_reg1 = obs::Registry::Global().Snapshot();

  Check(warm_eps.frozen_passes.load() == 1, "epsilon ran on frozen kernels",
        StrCat("frozen_passes=", warm_eps.frozen_passes.load()));
  Check(warm_eps.entries_materialized.load() == 0,
        "epsilon materialized no rows",
        StrCat("entries_materialized=", warm_eps.entries_materialized.load()));
  Check(warm_eps.bytes_allocated.load() == 0,
        "warm epsilon re-query allocated nothing",
        StrCat("bytes_allocated=", warm_eps.bytes_allocated.load()));
  Check(warm_eps.opf_row_ops.load() * 10 <= generic_eps.opf_row_ops.load(),
        "epsilon row ops >= 10x fewer",
        StrCat("generic=", generic_eps.opf_row_ops.load(),
               " frozen=", warm_eps.opf_row_ops.load()));
  Check(std::abs(*generic_p - *frozen_p) <= 1e-12,
        "epsilon results agree to 1e-12",
        StrCat("generic=", *generic_p, " frozen=", *frozen_p));

  // Registry reconcile for the ε pass family.
  const std::uint64_t eps_recomputed_total = generic_eps.recomputed.load() +
                                             cold_eps.recomputed.load() +
                                             warm_eps.recomputed.load();
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.recomputed") ==
            eps_recomputed_total,
        "epsilon registry recomputed reconciles with legacy stats",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.recomputed"),
               " legacy=", eps_recomputed_total));
  const std::uint64_t eps_row_ops_total = generic_eps.opf_row_ops.load() +
                                          cold_eps.opf_row_ops.load() +
                                          warm_eps.opf_row_ops.load();
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.opf_row_ops") ==
            eps_row_ops_total,
        "epsilon registry row ops reconcile with legacy stats",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.opf_row_ops"),
               " legacy=", eps_row_ops_total));
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_generic") ==
            generic_eps.generic_passes.load(),
        "epsilon registry generic pass count reconciles",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_generic"),
               " legacy=", generic_eps.generic_passes.load()));
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_frozen") ==
            cold_eps.frozen_passes.load() + warm_eps.frozen_passes.load(),
        "epsilon registry frozen pass count reconciles",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_frozen"),
               " legacy=",
               cold_eps.frozen_passes.load() + warm_eps.frozen_passes.load()));

  // Tracing-neutrality / disabled-overhead gate: re-run the warm frozen
  // query with a live TraceSession. The hot-path work counters and the
  // answer must not move at all — observability observes, it never
  // steers. (The untraced runs above already paid only the null-pointer
  // branch; equal counters are the observable form of that contract.)
  obs::TraceSession gate_session;
  EpsilonStats traced_eps;
  frozen_hooks.stats = &traced_eps;
  frozen_hooks.trace = &gate_session;
  auto traced_p = ExistsQuery(inst, *path, {}, frozen_hooks);
  BenchCheck(traced_p.status(), "frozen exists (traced)");
  Check(std::memcmp(&*traced_p, &*frozen_p, sizeof(double)) == 0,
        "tracing leaves the answer bit-identical",
        StrCat("untraced=", *frozen_p, " traced=", *traced_p));
  Check(traced_eps.recomputed.load() == warm_eps.recomputed.load() &&
            traced_eps.opf_row_ops.load() == warm_eps.opf_row_ops.load() &&
            traced_eps.entries_materialized.load() ==
                warm_eps.entries_materialized.load() &&
            traced_eps.bytes_allocated.load() ==
                warm_eps.bytes_allocated.load(),
        "tracing leaves hot-path work counters unchanged",
        StrCat("recomputed ", warm_eps.recomputed.load(), "->",
               traced_eps.recomputed.load(), ", row_ops ",
               warm_eps.opf_row_ops.load(), "->",
               traced_eps.opf_row_ops.load(), ", bytes ",
               warm_eps.bytes_allocated.load(), "->",
               traced_eps.bytes_allocated.load()));
  Check(!gate_session.spans().empty() &&
            std::strcmp(gate_session.spans()[0].name, "epsilon") == 0 &&
            gate_session.spans()[0].closed,
        "traced run recorded its epsilon span",
        StrCat("spans=", gate_session.spans().size()));

  // Recorder/sampling-neutrality gate (DESIGN.md §13): the flight
  // recorder and the tail sampler must likewise only observe. Wall clock
  // is unobservable here, so the contract is counter-enforced exactly
  // like tracing: an engine with observability fully off (ring capacity
  // 0, sampling disabled) and one fully on (default ring + sampling
  // armed with a threshold nothing crosses) must produce bit-identical
  // answers with exactly equal row-op totals — and the ring must have
  // seen every completion without retaining anything.
  Rng batch_rng(flags.seed ^ 0x0B5);
  std::vector<BatchQuery> batch;
  while (batch.size() < 16) {
    auto p = GenerateAcceptedPath(inst, batch_rng);
    BenchCheck(p.status(), "batch path");
    if (batch.size() % 2 == 0) {
      batch.push_back(BatchQuery::Exists(*p));
    } else {
      batch.push_back(BatchQuery::AncestorProjection(*p));
    }
  }
  BatchOptions rec_off;
  rec_off.threads = 1;
  rec_off.frozen = true;
  rec_off.flight_recorder_capacity = 0;
  rec_off.slow_query_ns = 0;
  QueryEngine rec_off_engine(inst, rec_off);
  BatchOptions rec_on = rec_off;
  rec_on.flight_recorder_capacity = obs::FlightRecorder::kDefaultCapacity;
  rec_on.slow_query_ns = 3'600'000'000'000ull;  // sample, never retain
  QueryEngine rec_on_engine(inst, rec_on);
  BatchStats rec_off_stats;
  auto rec_off_answers = rec_off_engine.Run(batch, {}, &rec_off_stats);
  BenchCheck(rec_off_answers.status(), "recorder-off batch");
  BatchStats rec_on_stats;
  auto rec_on_answers = rec_on_engine.Run(batch, {}, &rec_on_stats);
  BenchCheck(rec_on_answers.status(), "recorder-on batch");
  bool rec_identical = rec_off_answers->size() == rec_on_answers->size();
  for (std::size_t i = 0; rec_identical && i < rec_off_answers->size(); ++i) {
    const BatchAnswer& a = (*rec_off_answers)[i];
    const BatchAnswer& b = (*rec_on_answers)[i];
    rec_identical =
        a.status.code() == b.status.code() &&
        std::memcmp(&a.probability, &b.probability, sizeof(double)) == 0 &&
        a.projection.has_value() == b.projection.has_value() &&
        (!a.projection.has_value() ||
         SerializePxml(*a.projection) == SerializePxml(*b.projection));
  }
  Check(rec_identical, "recorder+sampling leave answers bit-identical",
        StrCat("queries=", batch.size()));
  Check(rec_off_stats.opf_row_ops == rec_on_stats.opf_row_ops,
        "recorder+sampling leave row-op totals unchanged",
        StrCat("off=", rec_off_stats.opf_row_ops,
               " on=", rec_on_stats.opf_row_ops));
  Check(rec_on_engine.flight_recorder().total_recorded() == batch.size(),
        "flight recorder saw every completion",
        StrCat("recorded=",
               rec_on_engine.flight_recorder().total_recorded(),
               " queries=", batch.size()));
  Check(!rec_off_engine.flight_recorder().enabled() &&
            rec_off_engine.flight_recorder().total_recorded() == 0,
        "capacity-0 recorder stays fully disabled",
        StrCat("recorded=",
               rec_off_engine.flight_recorder().total_recorded()));
  Check(rec_on_engine.slow_query_log().retained() == 0,
        "armed sampler retained nothing below threshold",
        StrCat("retained=", rec_on_engine.slow_query_log().retained()));

  // ---- SIMD lane-backend agreement + dispatch neutrality (DESIGN.md
  // §14). The scalar backend is the reference: wider lanes must return
  // the same bits for independent kernels, agree to 1e-12 for per-label
  // kernels, and account exactly the same work either way. Under
  // PXML_FORCE_SCALAR=1 the loop degenerates to scalar-vs-scalar, which
  // still exercises the selection machinery.
  const simd::Backend entry_backend = simd::ActiveBackend();
  const std::vector<simd::Backend> lane_backends = AvailableSimdBackends();

  GeneratorConfig ind_config = config;
  ind_config.opf_style = OpfStyle::kIndependent;
  auto ind_generated = GenerateBalancedTree(ind_config);
  BenchCheck(ind_generated.status(), "generate independent");
  const ProbabilisticInstance& ind_inst = *ind_generated;
  auto ind_snapshot = FrozenInstance::Freeze(ind_inst);
  BenchCheck(ind_snapshot.status(), "freeze independent");

  Rng simd_rng(flags.seed ^ 0x51D0);
  auto ind_path = GenerateAcceptedPath(ind_inst, simd_rng);
  BenchCheck(ind_path.status(), "independent path");

  std::vector<PassResult> ind_by_backend, pl_by_backend;
  for (simd::Backend b : lane_backends) {
    if (!simd::SetBackend(b)) BenchCheck(Status::Internal("set backend"), "simd");
    EpsilonScratch lane_scratch;
    // Cold pass to size the arenas, then the measured warm pass.
    RunFrozenExists(ind_inst, *ind_snapshot, *ind_path, &lane_scratch);
    ind_by_backend.push_back(
        RunFrozenExists(ind_inst, *ind_snapshot, *ind_path, &lane_scratch));
    RunFrozenExists(inst, frozen, *path, &lane_scratch);
    pl_by_backend.push_back(
        RunFrozenExists(inst, frozen, *path, &lane_scratch));
  }
  for (std::size_t i = 1; i < lane_backends.size(); ++i) {
    const char* name = simd::BackendName(lane_backends[i]);
    Check(std::memcmp(&ind_by_backend[i].p, &ind_by_backend[0].p,
                      sizeof(double)) == 0,
          "independent kernel bit-identical to scalar backend",
          StrCat(name, "=", ind_by_backend[i].p,
                 " scalar=", ind_by_backend[0].p));
    Check(std::abs(pl_by_backend[i].p - pl_by_backend[0].p) <= 1e-12,
          "per-label kernel within 1e-12 of scalar backend",
          StrCat(name, "=", pl_by_backend[i].p,
                 " scalar=", pl_by_backend[0].p));
  }
  bool dispatch_neutral = true;
  for (std::size_t i = 1; i < lane_backends.size(); ++i) {
    for (const std::vector<PassResult>* series :
         {&ind_by_backend, &pl_by_backend}) {
      const PassResult& a = (*series)[0];
      const PassResult& b = (*series)[i];
      dispatch_neutral = dispatch_neutral && a.recomputed == b.recomputed &&
                         a.opf_row_ops == b.opf_row_ops &&
                         a.frozen_passes == b.frozen_passes &&
                         a.entries_materialized == b.entries_materialized;
    }
  }
  Check(dispatch_neutral,
        "work counters exactly equal across lane backends",
        StrCat("backends=", lane_backends.size(), " row_ops=",
               pl_by_backend[0].opf_row_ops));

  // ---- Single-thread wall clock: vectorized sweep vs --simd=scalar on
  // kernel-bound fig7a-shaped workloads (min-of-rounds; the 1.5x
  // acceptance bar is only gated under --speed-gate because CI
  // containers have noisy clocks). --simd=scalar is the exact
  // pre-vectorization reference path, so the ratio measures the full
  // frozen-kernel rewrite: Freeze-time subset tables + lane arithmetic
  // vs the scalar per-label recurrence. Branching 8 over a single label
  // gives every kernel a 2^8-row dense factor (L1-resident tables, no
  // gather — Factor::dense), and depth 4 yields 585 kernels per pass so
  // kernel time dominates layer pruning (which the frozen fast path in
  // point_queries.cc made cheap). The independent sweep is reported but
  // not relied on for the gate: its bit-identity contract forces each
  // kernel's sequential multiply chain, which vectorizes only in the
  // term precompute.
  GeneratorConfig pl_time_config = config;
  pl_time_config.depth = 4;
  pl_time_config.branching = 8;
  pl_time_config.labels_per_level = 1;
  auto pl_time_generated = GenerateBalancedTree(pl_time_config);
  BenchCheck(pl_time_generated.status(), "generate per-label timing");
  const ProbabilisticInstance& pl_time_inst = *pl_time_generated;
  auto pl_time_snapshot = FrozenInstance::Freeze(pl_time_inst);
  BenchCheck(pl_time_snapshot.status(), "freeze per-label timing");
  GeneratorConfig ind_time_config = pl_time_config;
  ind_time_config.depth = 4;
  ind_time_config.opf_style = OpfStyle::kIndependent;
  auto ind_time_generated = GenerateBalancedTree(ind_time_config);
  BenchCheck(ind_time_generated.status(), "generate independent timing");
  const ProbabilisticInstance& ind_time_inst = *ind_time_generated;
  auto ind_time_snapshot = FrozenInstance::Freeze(ind_time_inst);
  BenchCheck(ind_time_snapshot.status(), "freeze independent timing");

  std::vector<PathExpression> pl_paths, ind_paths;
  Rng time_rng(flags.seed ^ 0x7143);
  for (int i = 0; i < 4; ++i) {
    auto p1 = GenerateAcceptedPath(pl_time_inst, time_rng);
    BenchCheck(p1.status(), "timing path");
    pl_paths.push_back(*p1);
    auto p2 = GenerateAcceptedPath(ind_time_inst, time_rng);
    BenchCheck(p2.status(), "timing path");
    ind_paths.push_back(*p2);
  }
  const int kReps = 8, kRounds = 5;
  EpsilonScratch time_scratch;
  simd::SetBackend(simd::Backend::kScalar);
  const double pl_scalar_ms = TimeFrozenSweepMs(
      pl_time_inst, *pl_time_snapshot, pl_paths, kReps, kRounds,
      &time_scratch);
  const double ind_scalar_ms = TimeFrozenSweepMs(
      ind_time_inst, *ind_time_snapshot, ind_paths, kReps, kRounds,
      &time_scratch);
  simd::SetBackend(entry_backend);
  const double pl_vec_ms = TimeFrozenSweepMs(
      pl_time_inst, *pl_time_snapshot, pl_paths, kReps, kRounds,
      &time_scratch);
  const double ind_vec_ms = TimeFrozenSweepMs(
      ind_time_inst, *ind_time_snapshot, ind_paths, kReps, kRounds,
      &time_scratch);
  const double pl_speedup = pl_vec_ms > 0 ? pl_scalar_ms / pl_vec_ms : 0.0;
  const double ind_speedup = ind_vec_ms > 0 ? ind_scalar_ms / ind_vec_ms : 0.0;
  std::printf("# per-label sweep: scalar %.3f ms, %s %.3f ms (%.2fx)\n",
              pl_scalar_ms, simd::BackendName(entry_backend), pl_vec_ms,
              pl_speedup);
  std::printf("# independent sweep: scalar %.3f ms, %s %.3f ms (%.2fx)\n",
              ind_scalar_ms, simd::BackendName(entry_backend), ind_vec_ms,
              ind_speedup);
  if (speed_gate && entry_backend != simd::Backend::kScalar) {
    Check(pl_speedup >= 1.5 || ind_speedup >= 1.5,
          "vectorized sweep >= 1.5x over scalar",
          StrCat("per-label=", pl_speedup, "x independent=", ind_speedup,
                 "x"));
  }

  json.NextRow();
  json.Str("pass", "projection");
  json.Int("objects", inst.weak().num_objects());
  json.Int("generic_opf_row_ops", generic_proj.opf_row_ops);
  json.Int("frozen_opf_row_ops", warm_proj.opf_row_ops);
  json.Int("generic_entries_materialized", generic_proj.entries_materialized);
  json.Int("frozen_entries_materialized", warm_proj.entries_materialized);
  json.Int("frozen_cold_bytes_allocated", cold_proj.bytes_allocated);
  json.Int("frozen_warm_bytes_allocated", warm_proj.bytes_allocated);
  json.Num("generic_empty_prob", generic_empty);
  json.Num("frozen_empty_prob", frozen_empty);
  json.NextRow();
  json.Str("pass", "epsilon");
  json.Int("objects", inst.weak().num_objects());
  json.Int("generic_opf_row_ops", generic_eps.opf_row_ops.load());
  json.Int("frozen_opf_row_ops", warm_eps.opf_row_ops.load());
  json.Int("generic_entries_materialized",
           generic_eps.entries_materialized.load());
  json.Int("frozen_entries_materialized",
           warm_eps.entries_materialized.load());
  json.Int("frozen_cold_bytes_allocated", cold_eps.bytes_allocated.load());
  json.Int("frozen_warm_bytes_allocated", warm_eps.bytes_allocated.load());
  json.Num("generic_exists_prob", *generic_p);
  json.Num("frozen_exists_prob", *frozen_p);
  json.NextRow();
  json.Str("pass", "observability");
  json.Int("registry_epsilon_recomputed_delta",
           delta(eps_reg1, eps_reg0, "pxml.epsilon.recomputed"));
  json.Int("legacy_epsilon_recomputed_total", eps_recomputed_total);
  json.Int("registry_projection_opf_row_ops_delta",
           delta(proj_reg1, proj_reg0, "pxml.projection.opf_row_ops"));
  json.Int("legacy_projection_opf_row_ops_total", proj_row_ops_total);
  json.Int("traced_spans", gate_session.spans().size());
  json.Int("recorder_records", rec_on_engine.flight_recorder().total_recorded());
  json.Int("recorder_slow_retained", rec_on_engine.slow_query_log().retained());
  json.NextRow();
  json.Str("pass", "simd");
  json.Str("backend", simd::BackendName(entry_backend));
  json.Str("detected", simd::BackendName(simd::DetectedBackend()));
  json.Int("lane_backends", lane_backends.size());
  json.Num("per_label_scalar_ms", pl_scalar_ms);
  json.Num("per_label_vec_ms", pl_vec_ms);
  json.Num("per_label_speedup", pl_speedup);
  json.Num("independent_scalar_ms", ind_scalar_ms);
  json.Num("independent_vec_ms", ind_vec_ms);
  json.Num("independent_speedup", ind_speedup);
  json.Write();
  obs.Finish();

  if (g_failures != 0) {
    std::printf("%d check(s) FAILED\n", g_failures);
    return check_mode ? 1 : 0;
  }
  std::printf("all checks passed\n");
  return 0;
}
