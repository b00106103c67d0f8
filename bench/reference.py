"""Record the reference outcome of every seed-independent benchmark job.

    PYTHONPATH=src python3 bench/reference.py

Runs each job whose `recorded` flag is set once, in-process, and writes its
exit code and the checked fields of its `canonical` block to
bench/reference.json.  Before writing, every outcome is checked against the
job's closed-form expectation (workloads.Job.expect), so the file cannot pin
a wrong answer.  Re-record only when a change is meant to alter a report.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import run_job, setup  # noqa: E402
from workloads import WORKLOADS, judge  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
CHECKED_FIELDS = ("dims", "hilbert", "verdict", "betti", "ext_totals",
                  "generation", "euler_identity", "passed", "details")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record() -> dict:
    from quiverkoszul.cli import main

    reference = {}
    docs = os.path.join(os.path.dirname(HERE), ".bench_out", "reference")
    for workload, jobs in WORKLOADS.items():
        setup(workload, 0, docs)
        for job in (j for j in jobs if j.recorded):
            outcome = run_job(main, job.command(docs))
            problem = judge(replace(job, recorded=False), outcome, {})
            if problem:
                raise SystemExit(f"{job.id}: {problem}")
            canonical = outcome["canonical"]
            reference[job.id] = {
                "exit": outcome["exit"],
                "canonical": {k: canonical[k] for k in CHECKED_FIELDS
                              if k in canonical},
            }
    return reference


if __name__ == "__main__":
    ref = record()
    # one job per line keeps a re-recording's diff readable
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(ref.items())]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(ref)} jobs in {REFERENCE}")
