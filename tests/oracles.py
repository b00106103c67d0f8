"""Views of library objects that only the tests read.

``basis_paths`` lists a model's basis words as paths, block by block, and
``canonical_key`` compares presentations up to the order of their
relations.  ``span_reduce`` and ``solve`` read an ``EchelonSpan`` and a
``ColumnSolver`` without changing them.  ``resolve_in_full`` resolves with
the Anick-chain certificate refused, so the tests that pin a resolution's
steps, transport and sizes keep reading one.
"""

from __future__ import annotations

import pytest

from quiverkoszul import resolution
from quiverkoszul.linalg import _clean
from quiverkoszul.resolution import resolve


def basis_paths(model, d: int, u: str | None = None, v: str | None = None) -> list:
    """The degree-d basis words of the model as paths, from u to v, or from
    and to every vertex where u or v is None, in block then id order."""
    model._check_degree(d)
    return [model.words[x] for uu in (model.quiver.vertices if u is None else [u])
            for vv, ids in model.blocks_from.get((d, uu), ()) if v in (None, vv)
            for x in ids]


def canonical_key(p):
    """Order-insensitive content key of a presentation, for comparing
    constructions."""
    rel_keys = []
    for r in p.relations:
        terms = sorted((path.labels_first_applied(), path.source, c) for path, c in r.items())
        rel_keys.append(tuple(terms))
    return (
        p.quiver.vertices,
        tuple((a.label, a.source, a.target) for a in p.quiver.arrows),
        tuple(sorted(rel_keys)),
    )


def span_reduce(span, vec: dict) -> dict:
    """vec reduced by the span's stored rows, smallest pivot first; the
    residue has no entry at any pivot."""
    return span._reduce(_clean(vec))


def solve(solver, vec: dict):
    """Coordinates of vec over the solver's independent columns, or None."""
    residue = span_reduce(solver._span, vec)
    if residue and min(residue) < solver.height:
        return None
    # a residue without row entries is -sum c_i * tag_i, where vec is
    # sum c_i * column_i over the independent columns i
    h = solver.height
    return {j - h: -c for j, c in residue.items()}


def refuse_certificate(monkeypatch) -> None:
    """Make ``resolve`` resolve every input, certified or not."""
    monkeypatch.setattr(resolution, "_chain_betti", lambda model, i_max: None)


def resolve_in_full(model, i_max: int):
    """``resolve`` with the certificate refused: the full resolution."""
    with pytest.MonkeyPatch.context() as mp:
        refuse_certificate(mp)
        return resolve(model, i_max)
