#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload lookup-ref --seed 3 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/ (and with it the
runtime library under src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the named workload once.  The last line of
standard output is the run's JSON result; a copy is kept under
<build dir>/results/ for perfbench/compare.py.  The exit code is nonzero
when the build fails, a check inside the run fails, or the run overruns.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup-ref", "mixed-cache", "ycsb-churn", "join-groupby-ref")
# The workload binary is killed after this many seconds.  The build before
# it is not counted: the first run of a checkout builds for minutes.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build perfbench; returns the binary's path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_metrics(metrics, trace):
    """Problems of a result's metrics against BENCHMARK.json, which lists
    every metric with its unit.  Untraced runs must report every end-to-end
    metric, finite and above 0.  Traced runs report the per-layer metrics
    of the layers their workload runs; the others are filled in as 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    problems = [f"{name} is not in BENCHMARK.json"
                for name in metrics if name not in units]
    for name, unit in units.items():
        m = metrics.get(name)
        if m is None:
            if trace:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                problems.append(f"{name} was not measured")
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name} has unit {m.get('unit')!r}, not {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number: {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name} is {value}, not above 0")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"run.py: build failed: {err}")
        return 1
    results = os.path.join(build_dir, "results", args.workload)
    os.makedirs(results, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", results]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run.py: workload overran {RUN_DEADLINE_S} s")
        return 1
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        log(line)
    if not lines:
        log(f"run.py: no result (exit code {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"run.py: last line is not JSON: {lines[-1]!r}")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"run.py: unexpected result keys {sorted(result)}")
        return 1
    problems = check_metrics(result["metrics"], args.trace)
    for problem in problems:
        log(f"run.py: metric {problem}")
    if problems:
        result["correct"] = False

    name = f"trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(result, f)
        f.write("\n")
    log(f"run.py: {args.workload} seed {args.seed} took "
        f"{time.monotonic() - started:.1f} s")
    print(json.dumps(result), flush=True)
    return 1 if problems else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
