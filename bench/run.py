"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload model-window --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs installing.  Each
run times the set-up (import plus building and writing the input documents)
SETUP_REPEATS times and runs passes until --seconds is used up.
Every set-up and every pass is a fresh interpreter, as a CLI user gets one
per command, with QK_THREADS removed from its environment so the pass sees
the default thread pool.  Every job's outcome is checked against
workloads.Job.expect and reference.json.

--trace 0 alternates passes of the checkout's package (src/) with passes of
the yardstick, a frozen copy of the package at the commit that defined this
benchmark (bench/yardstick/), and reports the end-to-end metrics:
jobs_vs_seed (the checkout's jobs_best over the yardstick's in the same run,
where jobs_best is the sum over the timed jobs of each job's fastest run),
setup_s (the fastest set-up of the checkout) and the median peak_rss_mb.
Both sides see the host in the same mix of fast and slow stretches, so the
ratio holds still where raw times drift (NOTES.md).  The raw jobs_best of
both sides and the median and quartiles of the pass times are printed too.
--trace 1 alternates untraced and traced passes of the checkout and reports
the per-layer self times and work counts of the traced ones, plus the
tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result (with --workload all, each
workload's block ends in its own result line).  Details and the spans go to
.bench_out/<workload>-seed<seed>/ under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
YARDSTICK = os.path.join(HERE, "yardstick")
sys.path.insert(0, HERE)

from reference import load_reference  # noqa: E402
from tracer import layer_totals  # noqa: E402
from workloads import WORKLOADS, judge  # noqa: E402

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 120


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def pass_env(package_root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QK_THREADS"}
    env["PYTHONPATH"] = package_root
    return env


def run_worker(args: list, package_root: str = SRC) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=pass_env(package_root), cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"benchmark worker {args[0]} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over the package sources, to name what was measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "quiverkoszul")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def jobs_best(jobs: list, passes: list) -> float:
    """Sum over the timed jobs of each job's fastest run in `passes`.

    Each run of a job is a fixed amount of work, and the host this was tuned
    on slows by up to ~1.6x for stretches of a second to minutes, so the
    fastest run tracks the code more steadily than the median, which
    follows the share of slow time in a run.  Taking the minimum per job
    rather than per pass needs each job, not a whole pass, to land in a fast
    stretch.  A whole run can still sit in a slow stretch, which is why the
    metric divides the checkout's value by the yardstick's (NOTES.md).
    """
    return sum(min(p["outcomes"][job.id]["seconds"] for p in passes)
               for job in jobs if job.timed)


def summary(values: list) -> dict:
    """Median, quartiles, minimum and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "n": len(values)}


def tally(jobs: list, passes: list, reference: dict) -> dict:
    """Attempted and failed jobs over all passes, and whether any answer
    was wrong.  A known defect that fails is counted as failed but leaves
    `correct` alone only while the program refuses the job (exit 2)."""
    attempted = failed = 0
    correct = True
    failures = {}
    for result in passes:
        for job in jobs:
            attempted += 1
            outcome = result["outcomes"][job.id]
            problem = judge(job, outcome, reference)
            if problem is None:
                continue
            failed += 1
            failures.setdefault(job.id, problem)
            if not (job.known_defect and outcome["exit"] == 2):
                correct = False
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "failures": failures}


def measure(workload: str, seed: int, docs: str, seconds: float,
            trace: bool) -> tuple:
    """Set-ups and passes until `seconds` is spent.

    The first set-up writes the documents the passes read.  The other
    set-ups follow the passes, one after each, so that they sample the
    machine over the whole run rather than during its first second; any
    still missing run at the end.  A step that would overrun is not
    started.  Passes alternate between two kinds, the checkout's untraced
    pass first: with tracing the other kind is a traced pass, without it a
    yardstick pass over the timed jobs, reading documents the yardstick
    wrote itself.  Each pass is tagged with its kind: plain, traced or seed.
    """
    def set_up():
        return run_worker(["setup", workload, str(seed), docs])

    setups = [set_up()]
    seed_docs = docs + "-seed"
    if not trace:
        run_worker(["setup", workload, str(seed), seed_docs], YARDSTICK)
    passes = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if len(passes) % 2 == 0:
            kind, result = "plain", run_worker(["pass", workload, docs])
        elif trace:
            kind, result = "traced", run_worker(
                ["pass", workload, docs, "--trace"])
        else:
            kind, result = "seed", run_worker(
                ["pass", workload, seed_docs, "--timed-only"], YARDSTICK)
        result["kind"] = kind
        passes.append(result)
        if len(setups) < SETUP_REPEATS:
            setups.append(set_up())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - started + longest > seconds:
            if len(passes) >= 2:
                break
    setups += [set_up() for _ in range(SETUP_REPEATS - len(setups))]
    return setups, passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; print its report lines."""
    jobs = WORKLOADS[workload]
    out_dir = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}")
    docs = os.path.join(out_dir, "docs")

    setups, passes = measure(workload, seed, docs, seconds, trace)
    reference = load_reference()
    checkout = [p for p in passes if p["kind"] != "seed"]
    yardstick = [p for p in passes if p["kind"] == "seed"]
    counted = tally(jobs, checkout, reference)
    # the yardstick is the package the reference was recorded from
    if tally([j for j in jobs if j.timed], yardstick, reference)["failed"]:
        raise SystemExit("a yardstick pass failed a job; bench/yardstick/ "
                         "must be the package the reference was recorded from")

    plain = [p for p in passes if p["kind"] == "plain"]
    stats = {
        "wall_s": summary([p["wall_s"] for p in plain]),
        "setup_s": summary([s["setup_s"] for s in setups]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain]),
    }
    env = {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "source_sha256": source_digest(),
        "QK_THREADS": "unset", "gc": "enabled",
    }
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    declared = declared_units("end_to_end")
    units = {"wall_s": "s", "setup_s": declared["setup_s"],
             "peak_rss_mb": declared["peak_rss_mb"]}
    for name, s in stats.items():
        print(f"{name:12s} median {s['median']:.4f} {units[name]}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  min {s['min']:.4f}  "
              f"n={s['n']}")
    error_rate = counted["failed"] / counted["attempted"]
    print(f"{'error_rate':12s} {error_rate:.4f} ratio  "
          f"({counted['failed']} of {counted['attempted']} jobs)")
    for job_id, problem in counted["failures"].items():
        print(f"  failed {job_id}: {problem}")

    if trace:
        metrics, per_job = layer_metrics(jobs, passes)
        traced_total = sum(v["value"] for k, v in metrics.items()
                           if k.endswith("_s") and k != "trace.overhead_s")
        for name, v in metrics.items():
            share = (f"  {v['value'] / traced_total:6.1%}"
                     if v["unit"] == "s" and name != "trace.overhead_s" else "")
            value = f"{v['value']:12.4f}" if v["unit"] == "s" else \
                f"{v['value']:12d}"
            print(f"  {name:28s} {value} {v['unit']}{share}")
        for job_id, layers in per_job.items():
            top = sorted(((v, k) for k, v in layers.items()
                          if k.endswith("_s")), reverse=True)[:3]
            print(f"  {job_id}: " + ", ".join(f"{k} {v:.3f}" for v, k in top)
                  + ", zero_degree_paths "
                  f"{layers.get('algebra.zero_degree_paths', 0)}")
    else:
        best, seed_best = jobs_best(jobs, plain), jobs_best(jobs, yardstick)
        values = {"jobs_vs_seed": best / seed_best,
                  "setup_s": stats["setup_s"]["min"],
                  "peak_rss_mb": stats["peak_rss_mb"]["median"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared.items()}
        print(f"{'jobs_best_s':12s} {best:.4f} s  (sum of each timed job's "
              f"fastest of {len(plain)} runs)")
        print(f"{'seed_best_s':12s} {seed_best:.4f} s  (the same, yardstick, "
              f"{len(yardstick)} runs)")
        print(f"{'jobs_vs_seed':12s} {values['jobs_vs_seed']:.4f} "
              f"{declared['jobs_vs_seed']}")

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "stats": stats, "metrics": metrics,
                   "tally": counted, "setups": setups,
                   "passes": passes}, fh, indent=1)
    result = {"correct": counted["correct"], "attempted": counted["attempted"],
              "failed": counted["failed"], "metrics": metrics}
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quiverkoszul", "cli.py")):
        print(f"error: no quiverkoszul sources under {ROOT}/src; run from a "
              "source checkout", file=sys.stderr)
        return 1
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, bool(args.trace))
    return 0


def layer_metrics(jobs: list, passes: list):
    """Median per-layer totals over the traced passes, and per-job medians."""
    traced = [p for p in passes if p["kind"] == "traced"]
    per_pass = [layer_totals(p["spans"]) for p in traced]
    metrics = {}
    for name, unit in declared_units("per_layer").items():
        values = [t.get(name, 0) for t in per_pass]
        # counts repeat exactly from pass to pass; keep them whole numbers
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = {"value": middle(values), "unit": unit}
    plain = [p for p in passes if p["kind"] == "plain"]
    metrics["trace.overhead_s"]["value"] = (
        jobs_best(jobs, traced) - jobs_best(jobs, plain))
    per_job = {}
    for job in (j for j in jobs if j.timed):
        totals = [layer_totals([s for s in p["spans"] if s["job"] == job.id])
                  for p in traced]
        keys = set().union(*totals)
        per_job[job.id] = {k: statistics.median_low(t.get(k, 0) for t in totals)
                           for k in keys}
    return metrics, per_job


if __name__ == "__main__":
    sys.exit(main())
