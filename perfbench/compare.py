#!/usr/bin/env python3
"""Compare two sets of benchmark results: parent against change, or a
rerun against a rerun of one build.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds results as perfbench/run.py writes them:
<dir>/<workload>/trace0-seed<N>.json.  For every workload and end-to-end
metric it prints each side's median and quartiles, the share of pairs the
change won, and a verdict under the benchmark's own bounds:

  improved    at least 10 pairs, the change won at least 9 of 10 of them,
              and the medians differ by more than the distance between the
              base's quartiles and by more than 1% of the base median (a
              near-constant metric such as peak_rss_mb has almost no
              quartile distance, and reruns move it by a few tenths of a
              percent);
  worse       the change's median is worse than the base's by more than the
              metric's bound, and both sides' spreads are within the bound;
  unresolved  a side's spread (quartile distance over median) is wider than
              the bound, so a change within it cannot be told from noise,
              unless every change run reads better than every base run; or
              a gain that rests on fewer than 10 pairs;
  -           no verdict: within the bound and no resolved gain.

Runs whose result is not correct carry no metric values.  They are counted
per side in an "incorrect runs" row of each workload, which is "worse" when
the change has more of them than the base; a workload with no correct run
on a side still gets that row.  Runs pair by seed when both sides share
seeds, otherwise in seed order.  The exit code is 1 when any verdict is
"worse".
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9
MIN_GAIN = 0.01
MIN_PAIRS = 10
INCORRECT = "incorrect runs"


def load_results(path):
    """({workload: {seed: {metric: value}}} of the correct untraced runs in
    `path`, {workload: number of incorrect runs})."""
    runs, incorrect = {}, {}
    for file in sorted(glob.glob(os.path.join(path, "*", "trace0-seed*.json"))):
        workload = os.path.basename(os.path.dirname(file))
        seed = int(re.search(r"seed(\d+)\.json$", file).group(1))
        with open(file) as f:
            result = json.load(f)
        runs.setdefault(workload, {})
        incorrect.setdefault(workload, 0)
        if not result.get("correct", False):
            incorrect[workload] += 1
            continue
        runs[workload][seed] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return runs, incorrect


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def pair_up(base, change):
    """Pairs of (base value, change value), by shared seed if any."""
    shared = sorted(set(base) & set(change))
    if shared:
        return [(base[s], change[s]) for s in shared]
    return list(zip([base[s] for s in sorted(base)],
                    [change[s] for s in sorted(change)]))


def verdict(base, change, better, bound):
    """Verdict and stats for one metric; `base`/`change` map seed -> value."""
    b_med, b_q1, b_q3 = summary(list(base.values()))
    c_med, c_q1, c_q3 = summary(list(change.values()))
    sign = 1.0 if better == "higher" else -1.0
    pairs = pair_up(base, change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    # Positive: the change is worse, as a share of the base median.
    worse_by = -sign * (c_med - b_med) / b_med if b_med else 0.0
    b_spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    c_spread = (c_q3 - c_q1) / c_med if c_med else 0.0
    stats = {"base": (b_med, b_q1, b_q3), "change": (c_med, c_q1, c_q3),
             "won": won, "worse_by": worse_by,
             "spread": max(b_spread, c_spread)}
    gap = sign * (c_med - b_med)
    if won >= WIN_SHARE and gap > b_q3 - b_q1 and gap > MIN_GAIN * b_med:
        if len(pairs) < MIN_PAIRS:
            return "unresolved", stats
        return "improved", stats
    if max(b_spread, c_spread) > bound:
        if all(sign * (c - b) > 0 for c in change.values()
               for b in base.values()):
            return "-", stats
        return "unresolved", stats
    if worse_by > bound:
        return "worse", stats
    return "-", stats


def compare(base, change, spec):
    """Rows (workload, metric, verdict, stats) for every workload either
    side ran; `base` and `change` are load_results() pairs."""
    (b_runs, b_bad), (c_runs, c_bad) = base, change
    rows = []
    for workload in sorted(set(b_runs) | set(c_runs)):
        nb, nc = b_bad.get(workload, 0), c_bad.get(workload, 0)
        rows.append((workload, INCORRECT, "worse" if nc > nb else "-",
                     {"base": nb, "change": nc}))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: v[name] for s, v in b_runs.get(workload, {}).items()
                 if name in v}
            c = {s: v[name] for s, v in c_runs.get(workload, {}).items()
                 if name in v}
            if not b or not c:
                continue
            v, stats = verdict(b, c, metric["better"], metric["bound"])
            rows.append((workload, name, v, stats))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    rows = compare(load_results(args.base), load_results(args.change), spec)
    if not rows:
        print("no results on either side")
        return 2
    print(f"{'workload':18} {'metric':16} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse by':>9} {'won':>5}  verdict")
    fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"
    for workload, name, v, s in rows:
        if name == INCORRECT:
            print(f"{workload:18} {name:16} {s['base']:>32} {s['change']:>32} "
                  f"{'':>9} {'':>5}  {v}")
            continue
        print(f"{workload:18} {name:16} {fmt(s['base']):>32} "
              f"{fmt(s['change']):>32} {100 * s['worse_by']:+8.1f}% "
              f"{s['won']:5.2f}  {v}")
    return 1 if any(v == "worse" for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
