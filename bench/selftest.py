"""Tests of the benchmark itself.  Run from the checkout root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from tracer import Span  # noqa: E402

LIB = worker._load_library(HERE.parent)


def _signature(workload):
    files, job_list = workload
    return files, [(j.kind, j.name, j.argv, j.call, j.expect, j.facts, j.output)
                   for j in job_list]


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_jobs_and_argv(self):
        for name in jobs.WORKLOADS:
            first = _signature(jobs.make_workload(name, 7))
            self.assertEqual(first, _signature(jobs.make_workload(name, 7)))
            self.assertNotEqual(first, _signature(jobs.make_workload(name, 8)))

    def test_every_cli_job_asks_for_json(self):
        for name in jobs.WORKLOADS:
            for job in jobs.make_workload(name, jobs.DEFAULT_SEED)[1]:
                if job.kind == "cli":
                    self.assertIn("json", job.argv)


class SelfTimeTest(unittest.TestCase):
    # job [0,10] holds verify [1,4] (which holds a build [2,3]) and parse [5,9]
    SPANS = [
        Span("job", 0.0, 10.0, -1, 0, {}),
        Span("rainbow.verify_rainbow", 1.0, 4.0, 0, 0,
             {"coverage": "exhaustive", "sets": 30, "workers": 1}),
        Span("stepup.random_colouring", 2.0, 3.0, 1, 0, {}),
        Span("cli.parse", 5.0, 9.0, 0, 0, {}),
        Span("job", 10.0, 12.0, -1, 1, {}),
    ]

    def test_self_time_is_span_minus_children(self):
        self.assertEqual(tracer.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 2.0])

    def test_shares_roll_up_to_the_nearest_operation(self):
        m = tracer.layer_metrics(self.SPANS, ["verify-exhaustive", "host-scan"], passes=2)
        self.assertAlmostEqual(m["share.verify"], 2.0 / 12)
        self.assertAlmostEqual(m["share.build"], 1.0 / 12)
        self.assertAlmostEqual(m["share.parse"], 4.0 / 12)
        self.assertAlmostEqual(m["share.other"], 3.0 / 12)
        self.assertAlmostEqual(m["share.host_scan"], 2.0 / 12)
        self.assertAlmostEqual(sum(m[f"share.{op}"] for op in tracer.SHARES), 1.0)
        # per-pass totals; the rate keeps its base
        self.assertAlmostEqual(m["rainbow.verify_exhaustive_s"], 1.5)
        self.assertAlmostEqual(m["rainbow.verify_exhaustive_sets"], 15)
        self.assertAlmostEqual(m["rainbow.verify_exhaustive_sets_per_s"], 10.0)
        self.assertAlmostEqual(m["cli.self_s"], 1.5)
        self.assertAlmostEqual(m["hedgehog.host_scan_s"], 1.0)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.runner = worker.Runner(LIB, [])

    def _run(self, job):
        _, problems, doc = self.runner.run_job(0, job)
        self.assertEqual(problems, [])
        return doc

    def test_flipped_oracle_verdict_is_rejected(self):
        job = jobs._cli("exact-oracle", ["exact-oracle", "--k", 2, "--n", 6, "--q", 2,
                                         "--t", 3, "--p", 2], expect=(1,), exists=False)
        doc = self._run(job)
        forged = dict(doc, exists=True)
        self.assertTrue(gate.check(job, 1, forged))
        self.assertTrue(gate.check(job, 0, forged))
        self.assertNotEqual(gate.digest(doc), gate.digest(forged))

    def test_flipped_verify_verdict_is_rejected(self):
        job = jobs._cli("verify-exhaustive",
                        ["verify", "--random-base", 2, 8, 3, 5, "--t", 5, "--p", 2],
                        expect=(0, 1), t=5, p=2, n=8)
        doc = self._run(job)
        self.assertIs(doc["passed"], True)
        self.assertTrue(gate.check(job, 0, dict(doc, passed=False)))
        self.assertTrue(gate.check(job, 1, doc))
        short = dict(doc, sets_checked=str(int(doc["sets_checked"]) - 1))
        self.assertTrue(gate.check(job, 0, short))

    def test_forged_sweep_histogram_is_rejected(self):
        job = jobs.Job("sweep", "sweep-up1", call=("up1", 3, 4, 3, 9, 5))
        doc = self._run(job)
        some = next(iter(doc["histogram"]))
        inflated = copy.deepcopy(doc)
        inflated["histogram"][some] = str(int(inflated["histogram"][some]) + 1)
        self.assertTrue(gate.check(job, 0, inflated))
        foreign = copy.deepcopy(doc)
        foreign["histogram"]["b99"] = foreign["histogram"].pop(some)
        self.assertTrue(gate.check(job, 0, foreign))
        wide = copy.deepcopy(doc)
        wide["palette"] = wide["palette"] + [f"x{i}" for i in range(20)]
        self.assertTrue(gate.check(job, 0, wide))

    def test_forged_witness_is_rejected(self):
        job = jobs._cli("verify-exhaustive",
                        ["verify", "--random-base", 2, 8, 3, 5, "--t", 5, "--p", 4],
                        expect=(0, 1), t=5, p=4, n=8)
        doc = self._run(job)
        self.assertEqual(doc["witness_kind"], "rainbow-violation")
        forged = dict(doc, p="1")
        problems = gate.check(job, 1, forged, self.runner._validate)
        self.assertTrue(any("fails validate" in p for p in problems), problems)

    def test_digest_ignores_paths_only(self):
        doc = {"command": "verify", "passed": True,
               "config": {"schedule": "a/x.txt", "t": "5"}}
        moved = {"command": "verify", "passed": True,
                 "config": {"schedule": "b/y.txt", "t": "5"}}
        self.assertEqual(gate.digest(doc), gate.digest(moved))
        self.assertNotEqual(gate.digest(doc), gate.digest(dict(doc, passed=False)))


if __name__ == "__main__":
    unittest.main()
