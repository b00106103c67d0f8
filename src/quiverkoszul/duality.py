"""Quadratic presentations and their duals.

The dual of a quadratic presentation lives on the opposite quiver.  Degree-2
words pair by ``<b∘a, a_op∘b_op> = delta``; the dual relation space of a
block (u, v) is the orthogonal complement of the relation span inside the
span of degree-2 paths u -> v, rewritten over the opposite block (v, u).
For a one-vertex quiver the opposite quiver is identified with the original
(labels unchanged), so the classical one-vertex statements read literally.
"""

from __future__ import annotations

from .linalg import EchelonSpan, kernel_basis_sparse
from .quiver import Path, PathCombination, enumerate_paths, opposite_label, opposite_quiver
from .algebra import Presentation


class NotQuadraticError(ValueError):
    pass


def quadratic_check(p: Presentation) -> bool:
    return all(r.length == 2 for r in p.relations)


def _require_quadratic(p: Presentation) -> None:
    bad = [r for r in p.relations if r.length != 2]
    if bad:
        raise NotQuadraticError(
            f"presentation is not quadratic: relation of length {bad[0].length} ({bad[0]})"
        )


def _relation_spans(p: Presentation) -> dict:
    """Per (u, v) block: (ordered degree-2 paths, EchelonSpan of relations)."""
    q = p.quiver
    blocks = {}
    for path in enumerate_paths(q, 2):
        blocks.setdefault((path.source, path.target), []).append(path)
    spans = {}
    for key, paths in blocks.items():
        index = {path: j for j, path in enumerate(paths)}
        span = EchelonSpan()
        for r in p.relations:
            if (r.source, r.target) == key:
                span.add({index[path]: c for path, c in r.items()})
        spans[key] = (paths, span)
    return spans


def dual_presentation(p: Presentation) -> Presentation:
    """Quadratic dual: orthogonal complements of the relation blocks,
    written on the opposite quiver in rref-canonical form."""
    _require_quadratic(p)
    q = p.quiver
    one_vertex = len(q.vertices) == 1
    dual_q = q if one_vertex else opposite_quiver(q)

    def dual_word(path: Path) -> Path:
        # b∘a (a applied first)  ->  a_op∘b_op (b_op applied first)
        b, a = path.arrows
        if one_vertex:
            a_op = dual_q.arrow(a.label)
            b_op = dual_q.arrow(b.label)
        else:
            a_op = dual_q.arrow(opposite_label(a.label))
            b_op = dual_q.arrow(opposite_label(b.label))
        return Path((a_op, b_op))

    relations = []
    spans = _relation_spans(p)
    for u, v in sorted(spans, key=q.pair_key):
        paths, span = spans[(u, v)]
        columns = [{} for _ in paths]
        for i, row in enumerate(span.rref_rows()):
            for j, c in row.items():
                columns[j][i] = c
        complement = kernel_basis_sparse(columns)
        # rewrite over the opposite block and re-canonicalize there
        op_paths = enumerate_paths(dual_q, 2, source=v, target=u)
        op_index = {path: j for j, path in enumerate(op_paths)}
        op_span = EchelonSpan()
        for vec in complement:
            op_span.add({op_index[dual_word(paths[j])]: vec[j] for j in sorted(vec)})
        for row in op_span.rref_rows():
            relations.append(PathCombination({op_paths[j]: c for j, c in row.items()}))
    return Presentation(dual_q, relations)


def double_dual_check(p: Presentation) -> bool:
    """The double dual has the same quiver and the same relation spans."""
    dd = dual_presentation(dual_presentation(p))
    if dd.quiver != p.quiver:
        return False
    original = _relation_spans(p)
    doubled = _relation_spans(dd)
    if set(original) != set(doubled):
        return False
    for key in original:
        paths_a, span_a = original[key]
        paths_b, span_b = doubled[key]
        if paths_a != paths_b:
            return False
        if not span_a.equals(span_b):
            return False
    return True
