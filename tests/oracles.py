"""Views of library objects that only the tests read.

``basis_paths`` lists a model's basis words as paths, block by block, and
``canonical_key`` compares presentations up to the order of their
relations.
"""

from __future__ import annotations


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
