#!/usr/bin/env python3
"""Builds the end-to-end benchmark into build-e2e/ and runs its workloads.

    python3 bench/e2e/run.py [--workload=a,b,...] [--runs=N] [--seed=S]
                             [--seconds=S] [--trace=0|1] [--smoke]

One workload with --runs=1 (the command BENCHMARK.json names) is a single
run: it prints the workload's `workload.metric value unit n=samples` lines
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics, or with --trace=1 the per-layer
ones (the Chrome trace goes to build-e2e/out/NAME.trace.json).

Otherwise it runs a set: every named workload (all of them by default) as
its own process, N times with seeds S, S+1, ..., printing each run's metric
lines and, with N > 1, each metric's median, quartiles and quartile spread.
With --trace=1 each Chrome trace is checked against
bench/schema/trace_event.schema.json. --smoke shrinks every instance and
measures a fixed 200 requests per client instead of --seconds. Exits
non-zero if any run fails a correctness check.

Build output goes to stderr; stdout carries only the benchmark's lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
OUT = BUILD / "out"
WORKLOADS = ["read_unique", "read_hot_batch", "project_fig7", "select_fig7",
             "mixed_rw_read", "mixed_rw_commit"]


def build():
    """Configures and builds pxml_e2e; returns the binary's path."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", "4",
              "--target", "pxml_e2e"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit(1)
    return BUILD / "pxml_e2e"


def command(binary, workload, seed, args, json_path=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={args.seconds}", f"--out={OUT}"]
    if args.trace:
        cmd.append(f"--trace={OUT / f'{workload}.trace.json'}")
    if args.smoke:
        cmd.append("--smoke")
    if json_path is not None:
        cmd.append(f"--json={json_path}")
    return cmd


def validate_trace(workload):
    tool = ROOT / "tools" / "validate_obs_json.py"
    schema = ROOT / "bench" / "schema" / "trace_event.schema.json"
    if not tool.exists() or not schema.exists():
        print(f"# {workload}: trace schema check skipped (no validator)")
        return True
    trace = OUT / f"{workload}.trace.json"
    ok = subprocess.run([sys.executable, str(tool), str(schema), str(trace)],
                        stdout=sys.stderr).returncode == 0
    print(f"# {workload}: trace {trace} {'valid' if ok else 'INVALID'}")
    return ok


def run_set(binary, workloads, args):
    values = {}  # (workload, metric) -> [values]
    units = {}
    ok = True
    for r in range(args.runs):
        seed = args.seed + r
        for w in workloads:
            json_path = OUT / f"{w}-{seed}.json"
            proc = subprocess.run(command(binary, w, seed, args, json_path),
                                  stdout=subprocess.PIPE, text=True)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0 or not json_path.exists():
                print(f"# {w} seed {seed}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(json_path.read_text())
            ok = ok and result["correct"]
            for group in ("end_to_end", "tails", "input", "per_layer"):
                for name, m in result[group].items():
                    values.setdefault((w, name), []).append(m["value"])
                    units[(w, name)] = m["unit"]
            if args.trace:
                ok = validate_trace(w) and ok
    if args.runs > 1:
        print(f"# {args.runs} runs per workload: median, quartiles, "
              "and (q3 - q1) / median")
        for (w, name), vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w}.{name} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.2%} {units[(w, name)]} runs={len(vs)}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workloads = args.workload.split(",")
    binary = build()
    OUT.mkdir(parents=True, exist_ok=True)
    if len(workloads) == 1 and args.runs == 1:
        return subprocess.run(
            command(binary, workloads[0], args.seed, args)).returncode
    return run_set(binary, workloads, args)


if __name__ == "__main__":
    sys.exit(main())
