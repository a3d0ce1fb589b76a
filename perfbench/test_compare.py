#!/usr/bin/env python3
"""Self-test of perfbench/compare.py on synthetic results.

    python3 perfbench/test_compare.py

It must flag an injected 15% slowdown as worse, and give no verdict when
comparing reruns of one build.  Result sets are load_results() pairs:
({workload: {seed: {metric: value}}}, {workload: incorrect runs}).
"""

import json
import os
import random
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "inputs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]}
SEEDS = range(1, 11)


def runs(seed, slowdown=1.0, noise=0.02, seeds=SEEDS, incorrect=0):
    """Runs of one build: the metric values jitter by `noise`, and a
    slowdown divides throughput and multiplies latency."""
    rng = random.Random(seed)
    out = {}
    for s in seeds:
        jitter = lambda: 1.0 + rng.uniform(-noise, noise)
        out[s] = {"inputs_per_s": 1.6e7 * jitter() / slowdown,
                  "latency_p50_ms": 7.5 * jitter() * slowdown}
    return {"lookup-ref": out}, {"lookup-ref": incorrect}


def verdicts(base, change):
    return {name: v for _, name, v, _ in compare.compare(base, change, SPEC)}


QUIET = {compare.INCORRECT: "-"}


class CompareTest(unittest.TestCase):
    def test_flags_injected_slowdown(self):
        got = verdicts(runs(1), runs(2, slowdown=1.15))
        self.assertEqual(got, {**QUIET, "inputs_per_s": "worse",
                               "latency_p50_ms": "worse"})

    def test_flags_injected_speedup_as_improved(self):
        got = verdicts(runs(1), runs(2, slowdown=1 / 1.15))
        self.assertEqual(got, {**QUIET, "inputs_per_s": "improved",
                               "latency_p50_ms": "improved"})

    def test_gain_on_fewer_than_ten_pairs_is_unresolved(self):
        got = verdicts(runs(1, seeds=[1]),
                       runs(2, slowdown=1 / 1.15, seeds=[1]))
        self.assertEqual(got, {**QUIET, "inputs_per_s": "unresolved",
                               "latency_p50_ms": "unresolved"})
        got = verdicts(runs(1, seeds=range(1, 10)),
                       runs(2, slowdown=1 / 1.15, seeds=range(1, 10)))
        self.assertEqual(got, {**QUIET, "inputs_per_s": "unresolved",
                               "latency_p50_ms": "unresolved"})

    def test_tiny_steady_shift_is_not_a_gain(self):
        # A near-constant metric that a rerun moves by 0.1% on every seed.
        base = {s: {"inputs_per_s": 1.0e7 * (1 + 1e-5 * s)} for s in SEEDS}
        change = {s: {"inputs_per_s": v["inputs_per_s"] * 1.001}
                  for s, v in base.items()}
        got = verdicts(({"lookup-ref": base}, {"lookup-ref": 0}),
                       ({"lookup-ref": change}, {"lookup-ref": 0}))
        self.assertEqual(got, {**QUIET, "inputs_per_s": "-"})

    def test_more_incorrect_runs_is_worse(self):
        # Two change runs failed: only eight correct ones are compared, and
        # they are as fast as the base's, but the failures count.
        got = verdicts(runs(1), runs(2, seeds=range(1, 9), incorrect=2))
        self.assertEqual(got[compare.INCORRECT], "worse")
        self.assertEqual(verdicts(runs(1, incorrect=2),
                                  runs(2, incorrect=2))[compare.INCORRECT],
                         "-")

    def test_workload_failing_every_run_is_worse(self):
        base = runs(1)
        change = {"lookup-ref": {}}, {"lookup-ref": len(SEEDS)}
        self.assertEqual(verdicts(base, change), {compare.INCORRECT: "worse"})

    def test_quiet_on_reruns_of_one_build(self):
        sets = [runs(seed) for seed in (3, 4, 5)]
        for a in sets:
            for b in sets:
                if a is not b:
                    self.assertEqual(set(verdicts(a, b).values()), {"-"})

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = runs(6, noise=0.3)
        got = verdicts(noisy, runs(7, slowdown=1.15, noise=0.3))
        self.assertEqual(got, {**QUIET, "inputs_per_s": "unresolved",
                               "latency_p50_ms": "unresolved"})

    def test_load_results_counts_incorrect_runs(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "lookup-ref"))
            for seed, correct in ((1, True), (2, False), (3, False)):
                path = os.path.join(root, "lookup-ref",
                                    f"trace0-seed{seed}.json")
                with open(path, "w") as f:
                    json.dump({"correct": correct, "attempted": 1,
                               "failed": 0 if correct else 1,
                               "metrics": {"inputs_per_s": {
                                   "value": 1.0e7, "unit": "1/s"}}}, f)
            got = compare.load_results(root)
        self.assertEqual(got, ({"lookup-ref": {1: {"inputs_per_s": 1.0e7}}},
                               {"lookup-ref": 2}))

    def test_pairs_by_shared_seed(self):
        self.assertEqual(compare.pair_up({1: 1.0, 2: 2.0}, {2: 4.0, 3: 9.0}),
                         [(2.0, 4.0)])
        self.assertEqual(compare.pair_up({1: 1.0, 2: 2.0}, {5: 4.0, 6: 9.0}),
                         [(1.0, 4.0), (2.0, 9.0)])


if __name__ == "__main__":
    unittest.main()
