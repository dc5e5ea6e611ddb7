#!/usr/bin/env bash
# Runs the JSON-emitting benchmark binaries and assembles their rows into
# one baseline file, OUT_DIR/bench_all.json. To check a new baseline in,
# copy that file to the next BENCH_<N>.json; the BENCH_*.json files
# already in the repository are history and this script never rewrites
# them.
#
# Usage: bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build directory containing bench/ (default: build)
#   OUT_DIR    where per-bench JSON files land (default: bench/out)
#
# The sweep caps (--max-objects) keep a full run under a couple of
# minutes on one CPU; raise them for paper-scale series. The assembled
# file embeds the fig7a series (generic explicit, and per-label with
# frozen kernels), the fig7c series, the frozen-kernel counter ablation
# (which also gates the observability layer: registry reconcile and
# tracing neutrality), the MVCC mixed read/write workload
# (bench_batch_queries --mutate-rate: snapshot-read throughput under a
# concurrent writer, epochs published, and mean snapshot age), the
# serving-path rows (the deadline mode, --deadline-ms: completed-vs-
# expired split, bit-identical against the unconstrained reference; and
# the admission overload mode, --overload: admitted/shed per priority
# class), the answer-cache rows (bench_answer_cache: the cache-off /
# cold / warm table on a 90%-repeat workload at 1 and 4 threads and the
# post-mutation zero-hit row), and the observability rows (the default
# batch table with per-query latency quantiles p50/p90/p99/p99.9 plus a
# flight-recorder dump and Prometheus text export into OUT_DIR, and the
# recorder-overhead gate, --recorder-gate: observability fully on vs
# off, bit-identical with wall ratio <= 1.02, plus a forced-slow
# retention check).
# bench_opf_representations writes google-benchmark JSON into OUT_DIR
# only (its output embeds machine context, so it is uploaded as a CI
# artifact rather than checked in). The fig7a run additionally exports
# a Chrome trace and a metrics snapshot into OUT_DIR as a smoke test of
# --trace/--metrics.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build}
OUT=${2:-bench/out}
mkdir -p "$OUT"

# Every binary the script is about to run must exist and be executable;
# a silently skipped bench would assemble a baseline with holes.
BENCH_BINARIES=(
  bench_fig7a_projection_total
  bench_fig7c_selection_total
  bench_frozen_kernels
  bench_answer_cache
  bench_opf_representations
  bench_batch_queries
)
missing=0
for bin in "${BENCH_BINARIES[@]}"; do
  if [[ ! -x "$BUILD/bench/$bin" ]]; then
    echo "error: bench binary missing or not executable: $BUILD/bench/$bin" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "error: build the bench targets first (cmake --build $BUILD)" >&2
  exit 1
fi

"$BUILD/bench/bench_fig7a_projection_total" --max-objects=5000 \
    --json="$OUT/fig7a.json" --trace="$OUT/fig7a_trace.json" \
    --metrics="$OUT/fig7a_metrics.json"
"$BUILD/bench/bench_fig7a_projection_total" --max-objects=5000 \
    --opf=per-label --frozen=on --json="$OUT/fig7a_perlabel_frozen.json"
"$BUILD/bench/bench_fig7c_selection_total" --max-objects=5000 \
    --json="$OUT/fig7c.json"
"$BUILD/bench/bench_frozen_kernels" --check --json="$OUT/frozen_kernels.json"
"$BUILD/bench/bench_batch_queries" --threads=4 --mutate-rate=0.1 \
    --json="$OUT/batch_mixed.json"
# Deadline mode: generous budget-free deadline — everything completes,
# the row records the serving-path overhead shape; and a zero deadline —
# everything sheds as kDeadlineExceeded without dispatch.
"$BUILD/bench/bench_batch_queries" --threads=4 --deadline-ms=60000 \
    --json="$OUT/batch_deadline.json"
"$BUILD/bench/bench_batch_queries" --threads=4 --deadline-ms=0 \
    --json="$OUT/batch_deadline_expired.json"
# Admission overload mode: small in-flight limit, three priority
# classes; the binary exits non-zero if non-best-effort traffic sheds.
"$BUILD/bench/bench_batch_queries" --threads=4 --overload \
    --json="$OUT/batch_overload.json"
# Observability (DESIGN.md §13): the default batch table with per-query
# latency quantiles, tail sampling armed at 1ms, a flight-recorder /
# DebugSnapshot dump, and the Prometheus text export; then the
# recorder-overhead gate (exits non-zero past a 1.02 wall ratio or any
# neutrality/retention failure).
"$BUILD/bench/bench_batch_queries" --threads=4 --slow-ms=1 \
    --json="$OUT/batch_quantiles.json" \
    --recorder-dump="$OUT/recorder_dump.json" \
    --prom="$OUT/metrics.prom"
"$BUILD/bench/bench_batch_queries" --threads=1 --recorder-gate \
    --json="$OUT/batch_recorder_gate.json"
"$BUILD/bench/bench_opf_representations" --json="$OUT/opf_representations.json" \
    --benchmark_min_time=0.01 >/dev/null
# Cross-query reuse (DESIGN.md §12): the --check gates (warm hit rate,
# bit-identity, zero hits across a commit, >= 2x pass reduction) run on
# every row, so a regression fails the whole script.
"$BUILD/bench/bench_answer_cache" --check --threads=1 --hit-rate=0.9 \
    --json="$OUT/answer_cache_t1.json"
"$BUILD/bench/bench_answer_cache" --check --threads=4 --hit-rate=0.9 \
    --json="$OUT/answer_cache_t4.json"

{
  printf '{"benches":{'
  printf '"fig7a":';                  cat "$OUT/fig7a.json" | tr -d '\n'
  printf ',"fig7a_perlabel_frozen":'; cat "$OUT/fig7a_perlabel_frozen.json" | tr -d '\n'
  printf ',"fig7c":';                 cat "$OUT/fig7c.json" | tr -d '\n'
  printf ',"frozen_kernels":';        cat "$OUT/frozen_kernels.json" | tr -d '\n'
  printf ',"batch_mixed":';           cat "$OUT/batch_mixed.json" | tr -d '\n'
  printf ',"batch_deadline":';        cat "$OUT/batch_deadline.json" | tr -d '\n'
  printf ',"batch_deadline_expired":'; cat "$OUT/batch_deadline_expired.json" | tr -d '\n'
  printf ',"batch_overload":';        cat "$OUT/batch_overload.json" | tr -d '\n'
  printf ',"batch_quantiles":';       cat "$OUT/batch_quantiles.json" | tr -d '\n'
  printf ',"batch_recorder_gate":';   cat "$OUT/batch_recorder_gate.json" | tr -d '\n'
  printf ',"answer_cache_t1":';       cat "$OUT/answer_cache_t1.json" | tr -d '\n'
  printf ',"answer_cache_t4":';       cat "$OUT/answer_cache_t4.json" | tr -d '\n'
  printf '}}\n'
} > "$OUT/bench_all.json"

echo "wrote $OUT/bench_all.json (+ per-bench JSON in $OUT)"
