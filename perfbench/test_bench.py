#!/usr/bin/env python3
"""Determinism test of the benchmark's counters.

    python3 perfbench/test_bench.py

Runs the traced certify-batch and simulate workloads twice at one seed
and once at another (one second each, through run.py).  The counters
that do not depend on the machine must repeat exactly at one seed, and
the other seed must change both workloads' generated inputs.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COUNTERS = {
    "certify-batch": [
        "spectral.solves",
        "spectral.gram_applies",
        "spectral.capped_solves",
        "delay_matrix.norm_calls",
        "delay_matrix.blocks",
        "delay_matrix.distinct_blocks",
        "certificate.lambda_points",
        "certificate.bound_total",
        "delay_digraph.activations",
        "context.hits",
        "context.misses",
        "context.norm.misses",
        "context.delay_digraph.misses",
        "context.gossip_time.misses",
    ],
    "simulate": ["engine.rounds", "chunked.rounds"],
}

INPUTS = {"certify-batch": ["inputs"], "simulate": ["explicit_inputs", "implicit_input"]}


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip().splitlines()
    report, result = json.loads(out[-2]), json.loads(out[-1])
    return report, result


class Determinism(unittest.TestCase):
    def check(self, workload):
        rep_a, res_a = run(workload, 7)
        rep_b, res_b = run(workload, 7)
        rep_c, _ = run(workload, 8)
        for r in (res_a, res_b):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        for name in COUNTERS[workload]:
            a = res_a["metrics"][name]["value"]
            self.assertEqual(a, res_b["metrics"][name]["value"], name)
        self.assertGreater(res_a["metrics"][COUNTERS[workload][0]]["value"], 0)
        inputs = lambda rep: json.dumps([rep[k] for k in INPUTS[workload]], sort_keys=True)
        self.assertEqual(inputs(rep_a), inputs(rep_b))
        self.assertNotEqual(inputs(rep_a), inputs(rep_c))

    def test_certify_batch(self):
        self.check("certify-batch")

    def test_simulate(self):
        self.check("simulate")


if __name__ == "__main__":
    unittest.main()
