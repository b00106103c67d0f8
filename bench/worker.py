"""One benchmark process: a set-up or one pass over a workload's jobs.

    python3 bench/worker.py setup WORKLOAD SEED DOCS_DIR
    python3 bench/worker.py pass WORKLOAD DOCS_DIR [--trace] [--timed-only]

run.py starts a fresh interpreter for each of these, with `src` on
PYTHONPATH, and reads the JSON object printed as the last line.

`setup` times importing the package plus building and writing the
workload's input documents.  `pass` runs every job once through
`quiverkoszul.cli.main`, timed jobs first, and reports each job's exit code
and `canonical` block, the summed time of the timed jobs and the peak
resident memory.  With --trace the timed jobs run inside `tracer.traced`
and the spans come back in the result; untimed jobs are never traced.
With --timed-only the untimed jobs are skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, traced  # noqa: E402
from workloads import WORKLOADS, build_documents  # noqa: E402


def setup(workload: str, seed: int, docs_dir: str) -> dict:
    started = time.perf_counter()
    import quiverkoszul  # noqa: F401  (import cost is part of set-up)
    from quiverkoszul.serialization import canonical_json

    documents = build_documents(workload, seed)
    os.makedirs(docs_dir, exist_ok=True)
    for name, doc in documents.items():
        with open(os.path.join(docs_dir, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
    return {"setup_s": time.perf_counter() - started}


def run_job(main, argv: list) -> dict:
    """Exit code, canonical block, last error line and seconds of one call."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exit_:  # argparse rejects the command line
        code = exit_.code
    except Exception as exc:  # a crash is a failed job, not a failed pass
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    seconds = time.perf_counter() - started
    try:
        canonical = json.loads(out.getvalue())["canonical"]
    except (ValueError, KeyError, TypeError):
        canonical = None
    lines = err.getvalue().strip().splitlines()
    return {"exit": code, "canonical": canonical, "seconds": seconds,
            "error": lines[-1] if lines else None}


def run_pass(workload: str, docs_dir: str, trace: bool,
             timed_only: bool) -> dict:
    from quiverkoszul.cli import main

    jobs = WORKLOADS[workload]
    tracer = Tracer()
    outcomes = {}
    with traced(tracer) if trace else contextlib.nullcontext():
        for job in (j for j in jobs if j.timed):
            tracer.job = job.id
            with tracer.span("cli.main") if trace else contextlib.nullcontext():
                outcomes[job.id] = run_job(main, job.command(docs_dir))
    wall = sum(o["seconds"] for o in outcomes.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for job in (j for j in jobs if not (j.timed or timed_only)):
        outcomes[job.id] = run_job(main, job.command(docs_dir))
    return {"wall_s": wall, "peak_rss_mb": peak_rss_mb,
            "outcomes": outcomes, "spans": tracer.spans}


def main(argv: list) -> int:
    if argv[0] == "setup":
        result = setup(argv[1], int(argv[2]), argv[3])
    elif argv[0] == "pass":
        result = run_pass(argv[1], argv[2], "--trace" in argv[3:],
                          "--timed-only" in argv[3:])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
