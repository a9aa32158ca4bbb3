#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run from the root of a checkout. The benchmark (perfbench/bench.ml) is built
from source with dune, then run once per workload; the last line of its
standard output is the JSON result. With `--workload all` every workload
runs in turn and a table of every metric, by name and unit, follows the
last workload's result line on standard error.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tcp_keepalive", "shard_churn", "sweep_kill", "explore_timeout"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    # The benchmark builds against the libraries of the checkout it sits
    # in; without them (a directory holding only the benchmark) this fails.
    # The shared dune cache lives outside the checkout, so it stays off.
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of a checkout (no dune-project here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(
        ["git", "rev-parse", "--short=12", "HEAD"],
        capture_output=True,
        text=True,
    )
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, env):
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    r = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        sys.exit(f"perfbench: {workload} exited with {r.returncode}")
    return r.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")
    build()
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    if args.workload != "all":
        sys.stdout.write(run_one(args.workload, args.seed, args.seconds, args.trace, env))
        return
    rows = []
    for w in WORKLOADS:
        out = run_one(w, args.seed, args.seconds, args.trace, env)
        sys.stdout.write(out)
        result = json.loads(out.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
    for w, name, value, unit in rows:
        sys.stderr.write(f"{w:16} {name:38} {value:18.4f} {unit}\n")


if __name__ == "__main__":
    main()
