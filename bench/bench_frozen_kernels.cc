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
// Usage: bench_frozen_kernels [--seed=S] [--json=PATH] [--check]
//        [--trace=PATH] [--metrics=PATH]
// --check exits non-zero when any of the above assertions fail (the CI
// gate).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fig7_common.h"
#include "query/engine.h"
#include "query/point_queries.h"

namespace {

using namespace pxml;         // NOLINT
using namespace pxml::bench;  // NOLINT

int g_failures = 0;

void Check(bool ok, const char* what, const std::string& detail) {
  std::printf("%-7s %s (%s)\n", ok ? "ok" : "FAIL", what, detail.c_str());
  if (!ok) ++g_failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check_mode = true;
  }
  BenchFlags defaults;
  defaults.threads = 1;
  defaults.seed = 20260806;
  const BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  JsonLog json("frozen_kernels", flags);
  ObsOutputs obs(flags);

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
  auto generic_result = AncestorProject(inst, *path, &generic_proj, nullptr,
                                        obs.session());
  BenchCheck(generic_result.status(), "generic project");
  ProjectionStats cold_proj;
  auto frozen_cold =
      AncestorProject(inst, *path, &cold_proj, &frozen, obs.session());
  BenchCheck(frozen_cold.status(), "frozen project (cold)");
  ProjectionStats warm_proj;
  auto frozen_result =
      AncestorProject(inst, *path, &warm_proj, &frozen, obs.session());
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
  auto generic_p = ExistsQuery(inst, *path, generic_hooks);
  BenchCheck(generic_p.status(), "generic exists");

  EpsilonScratch scratch;
  EpsilonStats cold_eps;
  EpsilonHooks frozen_hooks;
  frozen_hooks.stats = &cold_eps;
  frozen_hooks.frozen = &frozen;
  frozen_hooks.scratch = &scratch;
  auto frozen_cold_p = ExistsQuery(inst, *path, frozen_hooks);
  BenchCheck(frozen_cold_p.status(), "frozen exists (cold)");
  EpsilonStats warm_eps;
  frozen_hooks.stats = &warm_eps;
  auto frozen_p = ExistsQuery(inst, *path, frozen_hooks);
  BenchCheck(frozen_p.status(), "frozen exists (warm)");
  const obs::MetricsSnapshot eps_reg1 = obs::Registry::Global().Snapshot();

  Check(warm_eps.frozen_passes == 1, "epsilon ran on frozen kernels",
        StrCat("frozen_passes=", warm_eps.frozen_passes));
  Check(warm_eps.entries_materialized == 0,
        "epsilon materialized no rows",
        StrCat("entries_materialized=", warm_eps.entries_materialized));
  Check(warm_eps.bytes_allocated == 0,
        "warm epsilon re-query allocated nothing",
        StrCat("bytes_allocated=", warm_eps.bytes_allocated));
  Check(warm_eps.opf_row_ops * 10 <= generic_eps.opf_row_ops,
        "epsilon row ops >= 10x fewer",
        StrCat("generic=", generic_eps.opf_row_ops,
               " frozen=", warm_eps.opf_row_ops));
  Check(std::abs(*generic_p - *frozen_p) <= 1e-12,
        "epsilon results agree to 1e-12",
        StrCat("generic=", *generic_p, " frozen=", *frozen_p));

  // Registry reconcile for the ε pass family.
  const std::uint64_t eps_recomputed_total = generic_eps.recomputed +
                                             cold_eps.recomputed +
                                             warm_eps.recomputed;
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.recomputed") ==
            eps_recomputed_total,
        "epsilon registry recomputed reconciles with legacy stats",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.recomputed"),
               " legacy=", eps_recomputed_total));
  const std::uint64_t eps_row_ops_total = generic_eps.opf_row_ops +
                                          cold_eps.opf_row_ops +
                                          warm_eps.opf_row_ops;
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.opf_row_ops") ==
            eps_row_ops_total,
        "epsilon registry row ops reconcile with legacy stats",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.opf_row_ops"),
               " legacy=", eps_row_ops_total));
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_generic") ==
            generic_eps.generic_passes,
        "epsilon registry generic pass count reconciles",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_generic"),
               " legacy=", generic_eps.generic_passes));
  Check(delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_frozen") ==
            cold_eps.frozen_passes + warm_eps.frozen_passes,
        "epsilon registry frozen pass count reconciles",
        StrCat("registry=",
               delta(eps_reg1, eps_reg0, "pxml.epsilon.passes_frozen"),
               " legacy=",
               cold_eps.frozen_passes + warm_eps.frozen_passes));

  // Tracing-neutrality / disabled-overhead gate: re-run the warm frozen
  // query with a live TraceSession. The hot-path work counters and the
  // answer must not move at all — observability observes, it never
  // steers. (The untraced runs above already paid only the null-pointer
  // branch; equal counters are the observable form of that contract.)
  obs::TraceSession gate_session;
  EpsilonStats traced_eps;
  frozen_hooks.stats = &traced_eps;
  frozen_hooks.trace = &gate_session;
  auto traced_p = ExistsQuery(inst, *path, frozen_hooks);
  BenchCheck(traced_p.status(), "frozen exists (traced)");
  Check(std::memcmp(&*traced_p, &*frozen_p, sizeof(double)) == 0,
        "tracing leaves the answer bit-identical",
        StrCat("untraced=", *frozen_p, " traced=", *traced_p));
  Check(traced_eps.recomputed == warm_eps.recomputed &&
            traced_eps.opf_row_ops == warm_eps.opf_row_ops &&
            traced_eps.entries_materialized ==
                warm_eps.entries_materialized &&
            traced_eps.bytes_allocated ==
                warm_eps.bytes_allocated,
        "tracing leaves hot-path work counters unchanged",
        StrCat("recomputed ", warm_eps.recomputed, "->",
               traced_eps.recomputed, ", row_ops ",
               warm_eps.opf_row_ops, "->",
               traced_eps.opf_row_ops, ", bytes ",
               warm_eps.bytes_allocated, "->",
               traced_eps.bytes_allocated));
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
  json.Int("generic_opf_row_ops", generic_eps.opf_row_ops);
  json.Int("frozen_opf_row_ops", warm_eps.opf_row_ops);
  json.Int("generic_entries_materialized",
           generic_eps.entries_materialized);
  json.Int("frozen_entries_materialized",
           warm_eps.entries_materialized);
  json.Int("frozen_cold_bytes_allocated", cold_eps.bytes_allocated);
  json.Int("frozen_warm_bytes_allocated", warm_eps.bytes_allocated);
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
  json.Write();
  obs.Finish();

  if (g_failures != 0) {
    std::printf("%d check(s) FAILED\n", g_failures);
    return check_mode ? 1 : 0;
  }
  std::printf("all checks passed\n");
  return 0;
}
