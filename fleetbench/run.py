#!/usr/bin/env python3
# Copyright 2026 The QLOVE Reproduction Authors
"""Builds the fleet benchmark from source and runs one workload.

    python3 fleetbench/run.py --workload hot_path --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and compiles
fleetbench/ (the QLOVE library straight from src/ plus the benchmark
binary) into fleetbench/build/; later runs only rebuild what changed. All
build and run output stays inside that directory, the agent WAL included.

Prints the binary's lines and, as the last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer ledger with --trace 1, exactly as BENCHMARK.json
names them. Exits nonzero when the build fails, the sources are missing, a
correctness check fails, or the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
# A benchmark run must end within 180 s: stop a hung binary before that.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        fail(f"no QLOVE sources under {ROOT / 'src'}; run from a full checkout")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if compiled.returncode != 0:
        fail("build failed")
    return BUILD / "fleet_bench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    wal_dir = BUILD / "wal"
    wal_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--wal-dir", str(wal_dir)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"fleet_bench exited {run.returncode} without a result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if result["correct"]:
        want = declared_metrics(args.trace)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail(f"metrics {got} do not match BENCHMARK.json {want}")
    print(json.dumps(result))
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"]:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
