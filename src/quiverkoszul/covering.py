"""Arrow-weight gradings and finite coverings of presentations.

A weight function W: arrows -> G grades the path algebra: the weight of a
path is the ordered product of its arrow weights, last-applied leftmost.
When every relation is weight-homogeneous the grading descends to the
quotient and the covering construction applies: the covering quiver has a
sheet of vertices per group element, the lift of arrow a from sheet g runs
(i(a), g) -> (t(a), W(a)·g), and each relation lifts once per start sheet
along the unique path lifts.  Right translation of sheets is a free action
on the covering whose orbit quiver is the base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Presentation
from .groups import FiniteGroup, GroupAction
from .quiver import Arrow, Path, PathCombination, Quiver, trivial_path


SHEET_SEPARATOR = "|"


class WeightError(ValueError):
    pass


class InhomogeneousGradingError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


def _check_weights(p: Presentation, group: FiniteGroup, weights: dict) -> dict:
    known = {a.label for a in p.quiver.arrows}
    for name in weights:
        if name not in known:
            raise WeightError(f"weight names unknown arrow {name!r}")
    table = {}
    for a in p.quiver.arrows:
        if a.label not in weights:
            raise WeightError(f"weight function is missing arrow {a.label!r}")
        w = str(weights[a.label])
        if w not in group:
            raise WeightError(
                f"weight {w!r} of arrow {a.label!r} is not an element of {group.name}"
            )
        table[a.label] = w
    return table


def path_weight(group: FiniteGroup, weights: dict, path: Path) -> str:
    """Ordered product of arrow weights, last-applied arrow leftmost."""
    acc = group.identity
    for a in path.arrows:  # stored last-applied first
        acc = group.multiply(acc, weights[a.label])
    return acc


@dataclass(frozen=True)
class GradingReport:
    homogeneous: bool
    failures: tuple  # ((relation index, str(relation), tuple of (term, weight)), ...)

    def __str__(self) -> str:
        if self.homogeneous:
            return "grading is homogeneous"
        lines = []
        for index, rel, pairs in self.failures:
            seen = ", ".join(f"{term} has weight {w}" for term, w in pairs)
            lines.append(f"relation #{index} ({rel}) is inhomogeneous: {seen}")
        return "; ".join(lines)


def is_homogeneous_grading(p: Presentation, group: FiniteGroup, weights: dict) -> GradingReport:
    table = _check_weights(p, group, weights)
    failures = []
    for index, r in enumerate(p.relations):
        by_weight = {}
        for path, _ in r.items():
            by_weight.setdefault(path_weight(group, table, path), []).append(path)
        if len(by_weight) > 1:
            pairs = tuple(
                (str(paths[0]), w) for w, paths in sorted(by_weight.items())
            )
            failures.append((index, str(r), pairs))
    return GradingReport(not failures, tuple(failures))


def homogeneous_weights(p: Presentation, group: FiniteGroup, weights: dict) -> dict:
    """The weights as an arrow label -> group element table, after checking
    that they grade every relation homogeneously."""
    table = _check_weights(p, group, weights)
    report = is_homogeneous_grading(p, group, table)
    if not report.homogeneous:
        raise InhomogeneousGradingError(report)
    return table


def sheet_label(base: str, g: str) -> str:
    return f"{base}{SHEET_SEPARATOR}{g}"


def split_sheet(label: str):
    base, _, g = label.rpartition(SHEET_SEPARATOR)
    if not base:
        raise WeightError(f"label {label!r} carries no sheet component")
    return base, g


def lift_path(group: FiniteGroup, weights: dict, covering_quiver: Quiver,
              path: Path, sheet: str) -> Path:
    """The unique lift of a base path starting on the given sheet."""
    if not path.arrows:
        return trivial_path(sheet_label(path.base, sheet))
    lifted = []
    g = sheet
    for a in reversed(path.arrows):  # first applied first
        lifted.append(covering_quiver.arrow(sheet_label(a.label, g)))
        g = group.multiply(weights[a.label], g)
    return Path(tuple(reversed(lifted)))


def build_covering(p: Presentation, group: FiniteGroup, weights: dict) -> Presentation:
    """Finite covering presentation attached to a homogeneous weight grading.

    Vertices (v, g) and arrows (a, g): (i(a), g) -> (t(a), W(a)·g) are
    labelled ``base|g``; relations lift once per start sheet.  Requires
    every relation to be weight-homogeneous.
    """
    table = homogeneous_weights(p, group, weights)
    q = p.quiver
    vertices = [sheet_label(v, g) for v in q.vertices for g in group.elements]
    arrows = [
        Arrow(
            sheet_label(a.label, g),
            sheet_label(a.source, g),
            sheet_label(a.target, group.multiply(table[a.label], g)),
        )
        for a in q.arrows
        for g in group.elements
    ]
    cov_q = Quiver(vertices, arrows)
    relations = []
    for r in p.relations:
        for g in group.elements:
            relations.append(
                PathCombination(
                    {lift_path(group, table, cov_q, path, g): c for path, c in r.items()}
                )
            )
    return Presentation(cov_q, relations)


def deck_action(cov: Presentation, group: FiniteGroup) -> GroupAction:
    """Right sheet translation as a left action: h sends (v, g) to (v, g·h^-1)."""
    q = cov.quiver
    vertex_maps = {}
    arrow_maps = {}
    for h in group.elements:
        hinv = group.inverse(h)
        vm = {}
        for v in q.vertices:
            base, g = split_sheet(v)
            vm[v] = sheet_label(base, group.multiply(g, hinv))
        am = {}
        for a in q.arrows:
            base, g = split_sheet(a.label)
            am[a.label] = sheet_label(base, group.multiply(g, hinv))
        vertex_maps[h] = vm
        arrow_maps[h] = am
    action = GroupAction(group, vertex_maps, arrow_maps)
    action.validate(q)
    return action

