"""Self-test of the benchmark's own checking and tracing.

    PYTHONPATH=src python3 bench/selftest.py

Runs a few cheap jobs in-process and checks that a corrupted reference entry
or a wrong exit code makes `tally` count the job as failed, that the stored
reference agrees with every job's closed-form expectation, and that the span
tree of a traced pass is well formed.  It lives here, not under tests/,
because it tests the benchmark rather than the package.
"""

from __future__ import annotations

import copy
import os
import sys
import unittest
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import load_reference  # noqa: E402
from run import tally  # noqa: E402
from tracer import Tracer, layer_totals, traced, tree_problems  # noqa: E402
from worker import run_job, setup  # noqa: E402
from workloads import WORKLOADS, judge  # noqa: E402

DOCS = os.path.join(os.path.dirname(HERE), ".bench_out", "selftest")


def _job(workload: str, job_id: str):
    return next(j for j in WORKLOADS[workload] if j.id == job_id)


class Checking(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from quiverkoszul.cli import main

        setup("resolve-ext", 0, DOCS)
        cls.job = _job("resolve-ext", "analyze-loop-cubed-D12")
        cls.outcome = run_job(main, cls.job.command(DOCS))
        cls.reference = load_reference()

    def test_real_outcome_passes(self):
        counted = tally([self.job], [{"outcomes": {self.job.id: self.outcome}}],
                        self.reference)
        self.assertEqual((counted["attempted"], counted["failed"]), (1, 0))
        self.assertTrue(counted["correct"])

    def test_corrupted_reference_entry_fails_the_job(self):
        reference = copy.deepcopy(self.reference)
        reference[self.job.id]["canonical"]["ext_totals"][3] += 1
        counted = tally([self.job], [{"outcomes": {self.job.id: self.outcome}}],
                        reference)
        self.assertEqual(counted["failed"], 1)
        self.assertFalse(counted["correct"])
        self.assertIn("ext_totals[3]", counted["failures"][self.job.id])

    def test_wrong_exit_code_fails_the_job(self):
        for code in (1, 2, None):
            outcome = dict(self.outcome, exit=code)
            counted = tally([self.job], [{"outcomes": {self.job.id: outcome}}],
                            self.reference)
            self.assertEqual(counted["failed"], 1, code)
            self.assertFalse(counted["correct"], code)

    def test_known_defect_refusal_counts_as_failed_only(self):
        probe = replace(self.job, known_defect="example")
        refused = dict(self.outcome, exit=2, canonical=None)
        counted = tally([probe], [{"outcomes": {probe.id: refused}}],
                        self.reference)
        self.assertEqual(counted["failed"], 1)
        self.assertTrue(counted["correct"])

    def test_added_report_fields_are_ignored(self):
        outcome = copy.deepcopy(self.outcome)
        outcome["canonical"]["new_field"] = 1
        outcome["canonical"]["verdict"]["extra"] = 2
        self.assertIsNone(judge(self.job, outcome, self.reference))

    def test_reference_meets_closed_forms(self):
        for jobs in WORKLOADS.values():
            for job in (j for j in jobs if j.recorded):
                problem = judge(replace(job, recorded=False),
                                self.reference[job.id], {})
                self.assertIsNone(problem, job.id)


class Tracing(unittest.TestCase):
    def test_span_tree_is_well_formed(self):
        from quiverkoszul.cli import main
        import quiverkoszul.cli as cli

        picks = [("model-window", "covering-theorem-exterior4-Z3-D5"),
                 ("model-window", "duality-dims-exterior3-D6"),
                 ("smash-structure", "radical-smash-exterior3-Z8-D6"),
                 ("smash-structure", "smash-iso-exterior3-Z8-D6")]
        for workload in {w for w, _ in picks}:
            setup(workload, 3, os.path.join(DOCS, workload))
        reference = load_reference()
        original = cli.AlgebraModel
        tracer = Tracer()
        with traced(tracer):
            for workload, job_id in picks:
                job = _job(workload, job_id)
                tracer.job = job.id
                with tracer.span("cli.main"):
                    outcome = run_job(main, job.command(
                        os.path.join(DOCS, workload)))
                self.assertIsNone(judge(job, outcome, reference), job.id)
        self.assertIs(cli.AlgebraModel, original)
        self.assertEqual(tree_problems(tracer.spans), [])
        totals = layer_totals(tracer.spans)
        # covering-theorem is replayed as its steps
        self.assertEqual(totals["algebra.models"], 2 + 2 + 1 + 2)
        self.assertEqual(totals["resolution.resolves"], 2 + 1)
        self.assertEqual(totals["structure.smash_dim"], 64 + 64)
        self.assertEqual(totals["structure.assoc_triples"], 64 ** 3)
        for name in ("algebra.model_s", "covering.build_s", "structure.iso_s",
                     "structure.radical_s", "duality.dual_s"):
            self.assertGreater(totals[name], 0, name)

    def test_malformed_trees_are_reported(self):
        root = {"id": 0, "name": "cli.main", "job": "j", "parent": None,
                "start": 0.0, "end": 1.0, "counts": {}}
        child = {"id": 1, "name": "algebra.model", "job": "j", "parent": 0,
                 "start": 0.5, "end": 1.5, "counts": {}}
        self.assertTrue(any("leaves its parent" in p
                            for p in tree_problems([root, child])))
        overlap = dict(child, id=2, start=0.2, end=0.9)
        inside = dict(child, start=0.1, end=0.8)
        self.assertTrue(any("negative self time" in p
                            for p in tree_problems([root, inside, overlap])))


if __name__ == "__main__":
    unittest.main()
