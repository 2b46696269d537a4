#!/usr/bin/env python3
"""Builds the FluXQuery benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds `perfbench` (a package of its
own, depending on the engine crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and passes its output through. The last
line of standard output is the result: one JSON object with `correct`,
`attempted`, `failed` and `metrics`, whose names and units are checked
against `BENCHMARK.json`. With `--trace 1` the spans of the run are written
to `<target dir>/perfbench-traces/<workload>.json`.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return target_dir() / "release" / "perfbench"


def catalogue(trace):
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Why `result` does not meet the result contract, or None."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    want = catalogue(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(target_dir() / "perfbench-traces" / f"{args.workload}.json")]
    try:
        # On timeout the child is killed and waited for.
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: run failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    problem = check(result, args.trace == "1")
    if problem:
        sys.exit(f"perfbench: {problem}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
