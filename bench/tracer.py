"""Spans around the library calls the CLI handlers make, recorded from outside.

`traced(tracer)` rebinds the public functions that `quiverkoszul.cli` (and
`theorem_covering_check` in `quiverkoszul.resolution`) look up at call time
to wrappers that open a span around each call, and restores them on exit.
No file of the package is edited, and `cli.main` still produces its real
report, so a traced pass is checked like an untraced one.

A span is a dict with id, name, job, parent, start, end and counts.  Spans
stay in memory; the benchmark writes them out once, at the end of a run.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import time

# Slack for floating-point sums of perf_counter differences, in seconds.
TOLERANCE_S = 1e-6


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


# -- work counts, taken after the call inside a "trace.count" span ----------


def _model_counts(model, *args) -> dict:
    paths = basis = zero_paths = 0
    vanished = False
    for d in range(model.max_degree + 1):
        n = sum(len(model.all_paths(d, u, v)) for u, v in model.blocks(d))
        total = model.total_dim(d)
        vanished = vanished or total == 0
        paths += n
        basis += total
        if vanished:
            zero_paths += n
    return {"models": 1, "paths": paths, "basis": basis,
            "ideal_rank": paths - basis, "zero_degree_paths": zero_paths}


def _resolve_counts(report, *args) -> dict:
    return {"resolves": 1, "generators": sum(report.betti.values())}


def _lift_counts(generation, ext, *args) -> dict:
    return {"lifts": sum(ext.ext_dim(i) for i in range(generation.checked_to))}


def _smash_counts(smash, *args) -> dict:
    return {"smash_dim": smash.dim}


def _assoc_counts(failures, algebra) -> dict:
    return {"assoc_triples": algebra.dim ** 3}


# (module, attribute, span name, counter)
_FUNCTIONS = [
    ("cli", "parse_document", "serialization.parse", None),
    ("cli", "AlgebraModel", "algebra.model", _model_counts),
    ("resolution", "AlgebraModel", "algebra.model", _model_counts),
    ("cli", "resolve", "resolution.resolve", _resolve_counts),
    ("resolution", "resolve", "resolution.resolve", _resolve_counts),
    ("cli", "ExtAlgebra", "resolution.ext", None),
    ("cli", "generation_check", "resolution.ext", _lift_counts),
    ("cli", "hilbert_euler_check", "resolution.euler", None),
    ("cli", "build_covering", "covering.build", None),
    ("resolution", "build_covering", "covering.build", None),
    ("cli", "dual_presentation", "duality.dual", None),
    ("cli", "smash_product", "structure.smash", _smash_counts),
    ("cli", "verify_smash_covering_iso", "structure.iso", None),
    ("cli", "radical", "structure.radical", None),
]
_METHODS = [
    ("associativity_failures", "structure.assoc", _assoc_counts),
    ("unit_failures", "structure.unit", None),
]


def _wrap(tracer: Tracer, name: str, fn, counter):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if counter is not None:
            with tracer.span("trace.count"):
                record["counts"] = counter(result, *args)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the CLI's library calls through spans of `tracer`."""
    import importlib

    from quiverkoszul.structure import StructureConstantAlgebra

    saved = []
    for module_name, attr, name, counter in _FUNCTIONS:
        module = importlib.import_module(f"quiverkoszul.{module_name}")
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, _wrap(tracer, name, getattr(module, attr), counter))
    for attr, name, counter in _METHODS:
        method = getattr(StructureConstantAlgebra, attr)
        saved.append((StructureConstantAlgebra, attr, method))
        setattr(StructureConstantAlgebra, attr,
                _wrap(tracer, name, method, counter))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- reading spans back -----------------------------------------------------


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(spans: list) -> dict:
    """Per-layer self seconds ("<name>_s") and summed work counts."""
    totals = {}
    selfs = self_times(spans)
    for s in spans:
        key = s["name"] + "_s"
        totals[key] = totals.get(key, 0.0) + selfs[s["id"]]
        layer = s["name"].split(".")[0]
        for count, n in s["counts"].items():
            key = f"{layer}.{count}"
            totals[key] = totals.get(key, 0) + n
    return totals


def tree_problems(spans: list) -> list:
    """Ways the span tree is malformed; empty when it is well formed.

    Every child lies inside its parent and shares its job, every self time
    is at least zero, and each job's self times add up to its root span.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    roots = {}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} is not closed")
            continue
        if selfs[s["id"]] < -TOLERANCE_S:
            problems.append(f"span {s['id']} {s['name']} has negative self time")
        if s["parent"] is None:
            roots[s["job"]] = s
            continue
        parent = by_id[s["parent"]]
        if not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            problems.append(f"span {s['id']} {s['name']} leaves its parent")
        if parent["job"] != s["job"]:
            problems.append(f"span {s['id']} {s['name']} changes job")
    for job, root in roots.items():
        total = sum(selfs[s["id"]] for s in spans if s["job"] == job)
        if abs(total - (root["end"] - root["start"])) > TOLERANCE_S:
            problems.append(f"job {job}: self times sum to {total}, "
                            f"root span is {root['end'] - root['start']}")
    return problems
