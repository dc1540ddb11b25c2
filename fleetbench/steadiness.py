#!/usr/bin/env python3
# Copyright 2026 The QLOVE Reproduction Authors
"""Steadiness report: runs workloads repeatedly, interleaved, and compares
each metric's run-to-run spread with the bound BENCHMARK.json declares.

    python3 fleetbench/steadiness.py --runs 10 --sets 2
    python3 fleetbench/steadiness.py --workloads wide_keys --runs 5 --sets 1

Each set runs every chosen workload --runs times, round robin (run i of
every workload before run i+1 of any), each run with its own seed. Per
(workload, metric) it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median against
the bound, and with two or more sets how far each later set's median moved
from the first set's in the metric's worse direction. setup_s is exempt
from the spread rule; only its median shift is gated. Raw results are
saved as JSON under fleetbench/build/ for later inspection.

Verdicts: "steady" (spread below a third of the bound), "within" (below
the bound), "NOISY" (above it); "shift ok" / "SHIFT" for the set medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if run.returncode != 0 or not result or not result["correct"]:
        print(f"  run failed: {workload} seed {seed} (exit {run.returncode})",
              file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(all_workloads))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="report the per-layer metrics instead")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    # results[set][workload] = list of {metric: value}, saved after every
    # run so a long report can be inspected while it runs.
    out = HERE / "build" / ("steadiness-trace.json" if args.trace
                            else "steadiness.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    results = []
    started = time.time()
    for s in range(args.sets):
        per_workload = {w: [] for w in workloads}
        results.append(per_workload)
        for i in range(args.runs):
            for w in workloads:
                seed = args.first_seed + s * args.runs + i
                values = run_once(w, seed, args.seconds, args.trace)
                if values is not None:
                    per_workload[w].append(values)
                out.write_text(json.dumps(results, indent=1))
                print(f"  set {s + 1} run {i + 1}/{args.runs} {w} seed {seed}"
                      f" ({time.time() - started:.0f} s elapsed)",
                      file=sys.stderr)

    worst_ok = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':30} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6} verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            first_median = None
            for s, per_workload in enumerate(results):
                values = [r[name] for r in per_workload[w] if name in r]
                if len(values) < 2:
                    print(f"{name:30} {s + 1:>3} too few runs")
                    worst_ok = False
                    continue
                median, q1, q3, rel = spread(values)
                verdict = ""
                if bound is not None:
                    if name == "setup_s":
                        verdict = "(spread exempt)"
                    elif rel < bound / 3:
                        verdict = "steady"
                    elif rel <= bound:
                        verdict = "within"
                    else:
                        verdict, worst_ok = "NOISY", False
                    if first_median is None:
                        first_median = median
                    elif first_median:
                        sign = -1 if m["better"] == "higher" else 1
                        shift = sign * (median - first_median) / abs(first_median)
                        ok = shift <= bound
                        worst_ok = worst_ok and ok
                        verdict += f"; shift {shift:+.3f} " + (
                            "ok" if ok else "SHIFT")
                print(f"{name:30} {s + 1:>3} {median:14.6g} {q1:14.6g} "
                      f"{q3:14.6g} {rel:8.4f} "
                      f"{'' if bound is None else bound:>6} {verdict}")
    print(f"\nraw results: {out}")
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
