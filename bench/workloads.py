"""The three benchmark workloads: their input documents and their jobs.

A job is one `quiverkoszul` command line, run in-process through
`quiverkoszul.cli.main`.  Each workload puts most of its time in a different
layer (see NOTES.md for the measured shares):

- model-window: `AlgebraModel`, mostly in degrees past the algebra's top
  degree, plus one job (the symmetric algebra) that has no vanishing degree;
- resolve-ext: `resolve` and the Yoneda lifts of `generation_check`, where
  Ext grows like k^i;
- smash-structure: the structure-constant layer (smash product, the
  O(dim^3) associativity sweep, the iso check, the radical).

The seed only picks the group weights of the seeded graded documents.  They
are drawn from one orbit of arrow permutations and group automorphisms of a
fixed base weighting, so every seed gives an isomorphic covering (the same
amount of work) and every weighting is homogeneous.

This module imports `quiverkoszul` only inside `build_documents`, so the
parent benchmark process never loads the package it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd


@dataclass(frozen=True)
class Job:
    """One CLI call and what its outcome must be.

    `expect` holds the exit code and a subset of the report's `canonical`
    block that must hold on every seed (closed forms and structural
    invariants).  A job with `recorded` set must also match the outcome
    stored in reference.json for its id.  Untimed jobs run in every pass of
    the checkout, never in a yardstick pass, and stay out of `wall_s`; a
    job naming a `known_defect` is expected to fail until that defect is
    fixed.
    """

    id: str
    doc: str
    argv: tuple
    expect: dict
    recorded: bool = True
    timed: bool = True
    known_defect: str | None = None

    def command(self, docs_dir: str) -> list:
        return [self.argv[0], f"{docs_dir}/{self.doc}.json", *self.argv[1:]]


def _window(d: int, i: int | None = None) -> tuple:
    out = ("--max-degree", str(d))
    return out if i is None else out + ("--max-homological", str(i))


def _koszul(totals: list) -> dict:
    return {
        "verdict": {"status": "koszul-to-bound", "witness": None},
        "ext_totals": totals,
        "generation": {"passed": True},
        "euler_identity": {"holds": True},
    }


def _passed(**details) -> dict:
    return {"exit": 0, "canonical": {"passed": True, "details": details}}


def _exterior_totals(m: int, i_max: int) -> list:
    return [comb(m + i - 1, i) for i in range(i_max + 1)]


def _job(id, doc, command, window, expect, **kw) -> Job:
    return Job(id, doc, (command,) + window, expect, **kw)


WORKLOADS = {
    "model-window": [
        _job("analyze-exterior4-D6", "exterior4", "analyze", _window(6, 6),
             {"exit": 0, "canonical": _koszul(_exterior_totals(4, 6))}),
        _job("analyze-exterior3-D7", "exterior3", "analyze", _window(7, 7),
             {"exit": 0, "canonical": _koszul(_exterior_totals(3, 7))}),
        # the polynomial ring never vanishes: nothing past a top degree
        _job("analyze-dual-exterior3-D7", "dual-exterior3", "analyze",
             _window(7, 4),
             {"exit": 0, "canonical": _koszul([1, 3, 3, 1, 0])}),
        _job("covering-theorem-exterior4-Z3-D5", "exterior4-Z3-seeded",
             "verify", ("--check", "covering-theorem") + _window(5, 5),
             _passed(group_order=3, mismatches=[]), recorded=False),
        _job("duality-dims-exterior3-D6", "exterior3", "verify",
             ("--check", "duality-dims") + _window(6, 4), _passed()),
    ],
    "resolve-ext": [
        _job("analyze-loops2-D10", "loops2", "analyze", _window(10, 10),
             {"exit": 0, "canonical": _koszul([2 ** i for i in range(11)])}),
        _job("analyze-loops2-Z3-cover-D8", "loops2-Z3-cover-seeded",
             "analyze", _window(8, 8),
             {"exit": 0,
              "canonical": _koszul([3 * 2 ** i for i in range(9)])},
             recorded=False),
        _job("koszul-loops3-D7", "loops3", "verify",
             ("--check", "koszul") + _window(7, 7),
             _passed(ext_totals=[3 ** i for i in range(8)])),
        _job("analyze-ted-star4-D8", "ted-star4", "analyze", _window(8, 8),
             {"exit": 0, "canonical": {
                 "verdict": {"status": "koszul-to-bound"}}}),
        _job("analyze-loop-cubed-D12", "loop-cubed", "analyze",
             _window(12, 12),
             {"exit": 0, "canonical": {
                 "verdict": {"status": "fails-at", "witness": [2, 3]}}}),
        _job("analyze-preprojective-line6-D6", "preprojective-line6",
             "analyze", _window(6, 6),
             {"exit": 0, "canonical": {
                 "verdict": {"status": "koszul-to-bound"}}}),
    ],
    "smash-structure": [
        # top degree 3: window 6 is the smallest that holds every product
        _job("smash-iso-preprojective-line4-Z3-D6",
             "preprojective-line4-Z3", "verify",
             ("--check", "smash-iso") + _window(6),
             _passed(isomorphic=True, smash_dim=60)),
        _job("radical-smash-preprojective-line4-Z3-D6",
             "preprojective-line4-Z3", "verify",
             ("--check", "radical-smash") + _window(6),
             _passed(radical_dim=48, expected_dim=48, spans_match=True)),
        _job("smash-iso-exterior3-Z8-D6", "exterior3-Z8-seeded", "verify",
             ("--check", "smash-iso") + _window(6),
             _passed(isomorphic=True, smash_dim=64), recorded=False),
        _job("radical-smash-exterior3-Z8-D6", "exterior3-Z8-seeded",
             "verify", ("--check", "radical-smash") + _window(6),
             _passed(radical_dim=56, expected_dim=56, spans_match=True),
             recorded=False),
        # exterior(4) has top degree 4, so its products reach degree 8
        _job("probe-4a-smash-iso-exterior4-Z3-D6", "exterior4-Z3-ones",
             "verify", ("--check", "smash-iso") + _window(6),
             {"exit": 0, "canonical": {"passed": True}},
             recorded=False, timed=False,
             known_defect="ROADMAP 4a: products past the window exit 2"),
    ],
}


def _seeded_weights(rng: random.Random, labels: list, order: int,
                    base: list) -> dict:
    """A random arrow permutation and unit multiple of the base weights."""
    units = [u for u in range(1, order) if gcd(u, order) == 1]
    u = rng.choice(units)
    shuffled = list(base)
    rng.shuffle(shuffled)
    return {a: str(u * w % order) for a, w in zip(labels, shuffled)}


def build_documents(workload: str, seed: int) -> dict:
    """Document name -> document dict, for every input of the workload."""
    from quiverkoszul import (
        build_corpus,
        build_covering,
        cyclic_group,
        dual_presentation,
    )
    from quiverkoszul.serialization import presentation_to_document

    rng = random.Random(seed)

    def graded(p, order, weights):
        return presentation_to_document(p, ("cyclic", order), weights)

    def labels(p):
        return [a.label for a in p.quiver.arrows]

    def exterior4_z3():
        p = build_corpus("exterior", "4")
        return graded(p, 3, _seeded_weights(rng, labels(p), 3, [0, 1, 1, 2]))

    def loops2_z3_cover():
        p = build_corpus("radical_square_zero", "loops:2")
        w = _seeded_weights(rng, labels(p), 3, [1, 2])
        return presentation_to_document(build_covering(p, cyclic_group(3), w))

    def exterior3_z8():
        p = build_corpus("exterior", "3")
        return graded(p, 8, _seeded_weights(rng, labels(p), 8, [1, 2, 4]))

    def all_ones(name, args, order):
        p = build_corpus(name, args)
        return graded(p, order, {a: "1" for a in labels(p)})

    def plain(name, args=""):
        return presentation_to_document(build_corpus(name, args))

    builders = {
        "exterior3": lambda: plain("exterior", "3"),
        "exterior4": lambda: plain("exterior", "4"),
        "dual-exterior3": lambda: presentation_to_document(
            dual_presentation(build_corpus("exterior", "3"))),
        "exterior4-Z3-seeded": exterior4_z3,
        "loops2": lambda: plain("radical_square_zero", "loops:2"),
        "loops2-Z3-cover-seeded": loops2_z3_cover,
        "loops3": lambda: plain("radical_square_zero", "loops:3"),
        "ted-star4": lambda: plain("trivial_extension_dual", "star:4"),
        "loop-cubed": lambda: plain("loop_cubed"),
        "preprojective-line6": lambda: plain("preprojective", "line:6"),
        "preprojective-line4-Z3": lambda: all_ones(
            "preprojective", "line:4", 3),
        "exterior3-Z8-seeded": exterior3_z8,
        "exterior4-Z3-ones": lambda: all_ones("exterior", "4", 3),
    }
    # sorted order fixes which document consumes which random draws
    names = sorted({job.doc for job in WORKLOADS[workload]})
    return {name: builders[name]() for name in names}


def first_mismatch(want, got, where: str = "canonical") -> str | None:
    """Where `got` departs from `want`; keys absent from `want` are ignored."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object, got {got!r}"
        for key, value in want.items():
            if key not in got:
                return f"{where}.{key}: missing"
            found = first_mismatch(value, got[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: expected {want!r}, got {got!r}"
        for k, (w, g) in enumerate(zip(want, got)):
            found = first_mismatch(w, g, f"{where}[{k}]")
            if found:
                return found
        return None
    if want != got:
        return f"{where}: expected {want!r}, got {got!r}"
    return None


def judge(job: Job, outcome: dict, reference: dict) -> str | None:
    """Why the job's outcome is wrong, or None when it is right."""
    wants = [job.expect]
    if job.recorded:
        if job.id not in reference:
            return "no recorded reference for this job"
        wants.append(reference[job.id])
    for want in wants:
        if outcome["exit"] != want["exit"]:
            reason = f"exit {outcome['exit']}, expected {want['exit']}"
            if outcome.get("error"):
                reason += f" ({outcome['error']})"
            return reason
        found = first_mismatch(want.get("canonical", {}),
                               outcome.get("canonical"))
        if found:
            return found
    return None
