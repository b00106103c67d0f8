"""Command-line surface.

Five subcommands: analyze (resolve and report), dual (quadratic dual
document), cover (finite covering document), verify (single named check
with an exit code), corpus (built-in presentations).  Reports are
canonical JSON; timing sits outside the comparable section, with the
number of simples resolved and relabelled under ``timing.sizes`` for the
commands that resolve.

Exit codes: 0 pass, 1 failed check (witness in the report), 2 input error,
3 internal error (a consistency check inside the library failed, which is a
defect of the program and not of the input).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import cache

from .algebra import AlgebraModel, InternalError, Presentation, hilbert_matrix
from .corpus import CORPUS, build_corpus
from .covering import build_covering
from .duality import dual_presentation
from .groups import FiniteGroup
from .linalg import EchelonSpan, ONE
from .resolution import (
    KOSZUL_TO_BOUND,
    ExtAlgebra,
    generation_check,
    hilbert_euler_check,
    koszul_duality_dim_check,
    resolution_sizes,
    resolve,
    theorem_covering_check,
)
from .serialization import (
    DocumentError,
    ParsedDocument,
    build_group,
    canonical_json,
    parse_document,
    parse_group_spec,
    presentation_to_document,
)
from .structure import radical, smash_product, verify_smash_covering_iso

def _read_document(path: str) -> ParsedDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _plain(obj):
    """Rewrite nested witnesses into JSON-native values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return str(obj)


def _split_outside_parens(text: str) -> list:
    # group element labels may contain commas, e.g. "(1,0)"
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_weight_option(text: str, p: Presentation, group: FiniteGroup) -> dict:
    """Weights from ARROW=ELEMENT pairs; unnamed arrows get the identity."""
    given = {}
    for item in _split_outside_parens(text):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise DocumentError(
                f"bad weight assignment {item!r}: expected ARROW=ELEMENT"
            )
        if name not in {a.label for a in p.quiver.arrows}:
            raise DocumentError(f"weight names unknown arrow {name!r}")
        if name in given:
            raise DocumentError(f"duplicate weight for arrow {name!r}")
        given[name] = value
    return {a.label: given.get(a.label, group.identity) for a in p.quiver.arrows}


def _grading_from_document(doc: ParsedDocument):
    if doc.group_spec is None:
        raise DocumentError(
            "this check needs a grading section (group and weights) in the file"
        )
    return doc.group(), dict(doc.weights)


def _report_json(command: str, canonical: dict, started: float,
                 sizes: dict) -> str:
    """The report; ``timing.seconds`` runs from ``main``'s entry, so it
    covers parsing the arguments, reading the document and the work, and
    leaves out only the rendering."""
    timing = {"seconds": round(time.perf_counter() - started, 6)}
    if sizes:
        timing["sizes"] = sizes
    return canonical_json(
        {
            "format": 1,
            "canonical": {"command": command, **canonical},
            "timing": timing,
        }
    )


def _dims_section(model: AlgebraModel) -> list:
    out = []
    for d in range(model.max_degree + 1):
        blocks = [
            {"from": u, "to": v, "dim": model.dim(d, u, v)}
            for u, v in model.blocks(d)
        ]
        out.append({"degree": d, "total": model.total_dim(d), "blocks": blocks})
    return out


def _hilbert_section(model: AlgebraModel) -> list:
    return [
        {"from": u, "to": v, "coefficients": poly}
        for (u, v), poly in hilbert_matrix(model, model.max_degree).items()
    ]


def _betti_section(report) -> list:
    index = report.model.quiver.vertex_index
    rows = sorted(
        report.betti.items(),
        key=lambda kv: (index(kv[0][0]), kv[0][1], kv[0][2], index(kv[0][3])),
    )
    return [
        {"simple": u, "step": i, "degree": d, "vertex": w, "count": n}
        for (u, i, d, w), n in rows
    ]


def _verdict_section(verdict) -> dict:
    return {"status": verdict.status, "witness": _plain(verdict.witness)}


def _koszul_section(report) -> dict:
    return {
        "verdict": _verdict_section(report.verdict()),
        "betti": _betti_section(report),
        "ext_totals": report.ext_totals(),
    }


def _generation_section(generation) -> dict:
    return {
        "passed": generation.passed,
        "checked_to": generation.checked_to,
        "first_failure": generation.first_failure_i,
    }


def _resolved(doc, args, sizes: dict):
    """The resolution of the document's algebra over the window, which holds
    its model; the resolution's sizes go into ``sizes``."""
    model = AlgebraModel(doc.presentation, args.max_degree)
    report = resolve(model, args.max_homological)
    sizes.update(resolution_sizes(report))
    return report


def _run_analyze(args) -> int:
    doc = _read_document(args.file)
    sizes = {}
    report = _resolved(doc, args, sizes)
    generation = generation_check(ExtAlgebra(report))
    cutoff = min(report.d_max, report.i_max)
    euler_ok, euler_witness = hilbert_euler_check(report, cutoff)
    canonical = {
        "max_degree": args.max_degree,
        "max_homological": args.max_homological,
        "dims": _dims_section(report.model),
        "hilbert": _hilbert_section(report.model),
        **_koszul_section(report),
        "generation": _generation_section(generation),
        "euler_identity": {
            "cutoff": cutoff,
            "holds": euler_ok,
            "witness": _plain(euler_witness),
        },
    }
    _emit(_report_json("analyze", canonical, args.started, sizes), args.json)
    return 0


def _run_dual(args) -> int:
    doc = _read_document(args.file)
    dual = dual_presentation(doc.presentation)
    _emit(canonical_json(presentation_to_document(dual)), args.out)
    return 0


def _run_cover(args) -> int:
    doc = _read_document(args.file)
    spec = parse_group_spec(args.group)
    group = build_group(spec)
    if args.weights is not None:
        weights = _parse_weight_option(args.weights, doc.presentation, group)
    elif doc.group_spec == spec:
        weights = dict(doc.weights)
    else:
        weights = {a.label: group.identity for a in doc.presentation.quiver.arrows}
    covering = build_covering(doc.presentation, group, weights)
    _emit(canonical_json(presentation_to_document(covering)), args.out)
    return 0


def _check_koszul(doc, args, sizes):
    report = _resolved(doc, args, sizes)
    details = _koszul_section(report)
    return details["verdict"]["status"] == KOSZUL_TO_BOUND, details


def _check_generation(doc, args, sizes):
    report = _resolved(doc, args, sizes)
    generation = generation_check(ExtAlgebra(report))
    details = {
        **_generation_section(generation),
        "steps": [
            {"step": i, "achieved": a, "required": r}
            for i, a, r in generation.steps
        ],
    }
    return generation.passed, details


def _check_hilbert_euler(doc, args, sizes):
    report = _resolved(doc, args, sizes)
    cutoff = min(report.d_max, report.i_max) if args.cutoff is None else args.cutoff
    ok, witness = hilbert_euler_check(report, cutoff)
    return ok, {"cutoff": cutoff, "witness": _plain(witness)}


def _check_covering_theorem(doc, args, sizes):
    group, weights = _grading_from_document(doc)
    outcome = theorem_covering_check(
        doc.presentation, group, weights, args.max_homological, args.max_degree
    )
    sizes.update(outcome.sizes)
    details = {
        "group_order": outcome.group_order,
        "base_verdict": _verdict_section(outcome.base_verdict),
        "cover_verdict": _verdict_section(outcome.cover_verdict),
        "mismatches": _plain(outcome.mismatches),
    }
    return outcome.passed, details


def _graded_smash(doc, args):
    """The document's grading and the smash product of its base model."""
    group, weights = _grading_from_document(doc)
    base_model = AlgebraModel(doc.presentation, args.max_degree)
    return group, weights, smash_product(base_model, group, weights)


def _check_smash_iso(doc, args, sizes):
    group, weights, smash = _graded_smash(doc, args)
    covering = build_covering(doc.presentation, group, weights)
    cover_model = AlgebraModel(covering, args.max_degree)
    # a window that shows no top degree failed in _graded_smash already,
    # and the covering of the same window vanishes where its base does
    iso = verify_smash_covering_iso(cover_model, smash)
    associativity = smash.associativity_failures()
    units = smash.unit_failures()
    passed = iso and not associativity and not units
    details = {
        "isomorphic": iso,
        "smash_dim": smash.dim,
        "associativity_failures": _plain(associativity[:5]),
        "unit_failures": _plain(units[:5]),
        "notes": [],
    }
    return passed, details


def _check_radical_smash(doc, args, sizes):
    _, _, smash = _graded_smash(doc, args)
    rad = radical(smash)
    # the radical should be spanned by the positive-degree labels b#p_g
    expected = EchelonSpan()
    for i, (b, _) in enumerate(smash.labels):
        if b.length:
            expected.add({i: ONE})
    found = EchelonSpan()
    for vec in rad:
        found.add(vec)
    spans_match = found.equals(expected)
    passed = len(rad) == expected.rank and spans_match
    details = {
        "radical_dim": len(rad),
        "expected_dim": expected.rank,
        "spans_match": spans_match,
    }
    return passed, details


def _check_duality_dims(doc, args, sizes):
    # a presentation with no quadratic dual is rejected before any resolving
    dual = dual_presentation(doc.presentation)
    report = _resolved(doc, args, sizes)
    dual_model = AlgebraModel(dual, args.max_degree)
    ok, witness = koszul_duality_dim_check(dual_model, report)
    return ok, {"witness": _plain(witness)}


_CHECK_RUNNERS = {
    "koszul": _check_koszul,
    "generation": _check_generation,
    "hilbert-euler": _check_hilbert_euler,
    "covering-theorem": _check_covering_theorem,
    "smash-iso": _check_smash_iso,
    "radical-smash": _check_radical_smash,
    "duality-dims": _check_duality_dims,
}


def _run_verify(args) -> int:
    doc = _read_document(args.file)
    sizes = {}
    passed, details = _CHECK_RUNNERS[args.check](doc, args, sizes)
    canonical = {
        "check": args.check,
        "max_degree": args.max_degree,
        "max_homological": args.max_homological,
        "passed": passed,
        "details": details,
    }
    _emit(_report_json("verify", canonical, args.started, sizes), None)
    return 0 if passed else 1


def _run_corpus(args) -> int:
    if args.corpus_command == "list":
        for name, signature in CORPUS.items():
            line = f"{name}  {signature}" if signature else name
            sys.stdout.write(line + "\n")
        return 0
    presentation = build_corpus(args.name, args.args or "")
    _emit(canonical_json(presentation_to_document(presentation)), args.out)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process
    and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="quiverkoszul",
        description="Finite quiver algebras: resolutions, coverings, duality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bounds(p, max_degree=6, max_homological=4):
        p.add_argument("--max-degree", type=int, default=max_degree,
                       help="largest graded degree computed")
        p.add_argument("--max-homological", type=int, default=max_homological,
                       help="largest resolution step computed")

    p = sub.add_parser("analyze", help="resolve a presentation and report")
    p.add_argument("file")
    add_bounds(p)
    p.add_argument("--json", metavar="OUT", default=None,
                   help="write the report to OUT instead of stdout")
    p.set_defaults(handler=_run_analyze)

    p = sub.add_parser("dual", help="quadratic dual of a presentation")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_run_dual)

    p = sub.add_parser("cover", help="finite covering from a weight function")
    p.add_argument("file")
    p.add_argument("--group", required=True,
                   help="cyclic:n | product:SPEC,SPEC | dihedral:n")
    p.add_argument("--weights", default=None,
                   help="comma list ARROW=ELEMENT; omitted arrows get the identity")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_run_cover)

    p = sub.add_parser("verify", help="run one named check, exit 0/1")
    p.add_argument("file")
    p.add_argument("--check", required=True, choices=list(_CHECK_RUNNERS))
    add_bounds(p)
    p.add_argument("--cutoff", type=int, default=None,
                   help="hilbert-euler truncation order (default: window bound)")
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("corpus", help="built-in presentations")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="names and argument signatures")
    b = corpus_sub.add_parser("build", help="emit one presentation document")
    b.add_argument("name")
    b.add_argument("args", nargs="?", default="")
    b.add_argument("--out", default=None)
    p.set_defaults(handler=_run_corpus)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _build_parser().parse_args(argv)
    args.started = started
    try:
        return args.handler(args)
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        # covers document, corpus, group, weight and precondition errors
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
