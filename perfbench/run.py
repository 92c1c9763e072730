#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all four).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a process of its own with one host pool thread
(`BLAST_THREADS=1`), so peak memory and the program's process-global
modes belong to that workload alone. The child prints its metric table and,
last, one JSON result line; this script checks that line against
`BENCHMARK.json` and prints it as its own last line. `--workload all` runs
the four workloads one after another and ends with one combined line whose
metric names are prefixed with the workload name.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "sedov3d-q2-stored",
    "sedov3d-q2-matfree",
    "triplepoint2d-q3-hybrid-resilient",
    "serve-routed-mix",
]
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary; exits non-zero (printing no result) if
    the build fails, e.g. when the repository's crates are absent."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot start cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; echoes its table and returns
    the parsed result line."""
    env = dict(os.environ, BLAST_THREADS="1")
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--out", os.path.join(ROOT, ".bench_out"),
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.exit(f"run.py: {workload} reported {sorted(got.items())}, expected {sorted(want.items())}")
    bad = [n for n, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        sys.exit(f"run.py: {workload} reported non-finite values for {bad}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        sys.exit("run.py: --seconds must be positive")

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_one(binary, w, args.seed, args.seconds, args.trace == 1) for w in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
