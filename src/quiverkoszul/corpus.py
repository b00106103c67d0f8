"""Built-in presentations.

Exterior algebras and their cyclic, mixed-weight, product, and dihedral
coverings (generated by build_covering; tests/test_corpus.py keeps the
closed-form relation lists as the oracle they are compared with), the
double-quiver constructions on trees, free and radical-square-zero
algebras on small quivers, and the cubic loop counterexample.
"""

from __future__ import annotations

import re
import warnings

from .algebra import Presentation
from .covering import build_covering
from .groups import cyclic_group, dihedral_group, direct_product
from .linalg import ONE
from .quiver import (
    PathCombination,
    Quiver,
    double_quiver,
    enumerate_paths,
)


class CorpusError(ValueError):
    pass


def exterior(m: int) -> Presentation:
    """Exterior algebra on m anticommuting generators, one vertex."""
    if m < 1:
        raise CorpusError("exterior algebra needs at least one generator")
    q = Quiver(["1"], [(f"a{i}", "1", "1") for i in range(1, m + 1)])
    relations = []
    for i in range(1, m + 1):
        relations.append(q.path([f"a{i}", f"a{i}"]))
        for j in range(i + 1, m + 1):
            relations.append(PathCombination({
                q.path([f"a{i}", f"a{j}"]): ONE,
                q.path([f"a{j}", f"a{i}"]): ONE,
            }))
    return Presentation(q, relations)


def loop_cubed() -> Presentation:
    """One loop with its cube killed; the stock nonlinear counterexample."""
    q = Quiver(["1"], [("x", "1", "1")])
    return Presentation(q, [q.path(["x", "x", "x"])])


# ---------------------------------------------------------------------------
# quiver and tree specs


def parse_quiver_spec(text: str) -> Quiver:
    """line:N (a path of N vertices), star:N (N leaves, arrows into the
    center), loops:M (one vertex, M loops)."""
    text = text.strip()
    kind, sep, arg = text.partition(":")
    if not sep or not (arg.isascii() and arg.isdigit()):
        raise CorpusError(
            f"bad quiver spec {text!r}: expected line:N, star:N, or loops:M"
        )
    n = int(arg)
    if kind == "line":
        if n < 1:
            raise CorpusError("line needs at least one vertex")
        return Quiver(
            [str(i) for i in range(1, n + 1)],
            [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)],
        )
    if kind == "star":
        if n < 1:
            raise CorpusError("star needs at least one leaf")
        return Quiver(
            ["c"] + [f"l{i}" for i in range(1, n + 1)],
            [(f"a{i}", f"l{i}", "c") for i in range(1, n + 1)],
        )
    if kind == "loops":
        if n < 1:
            raise CorpusError("loops needs at least one loop")
        return Quiver(["1"], [(f"x{i}", "1", "1") for i in range(1, n + 1)])
    raise CorpusError(f"unknown quiver spec kind {kind!r}")


def path_algebra(q: Quiver) -> Presentation:
    return Presentation(q, [])


def radical_square_zero(q: Quiver) -> Presentation:
    """Kill every length-2 path."""
    return Presentation(q, [PathCombination({p: ONE}) for p in enumerate_paths(q, 2)])


def _underlying_edges(q: Quiver) -> list:
    return [(a.source, a.target) for a in q.arrows]


def _check_tree(q: Quiver, context: str) -> None:
    edges = _underlying_edges(q)
    for u, v in edges:
        if u == v:
            raise CorpusError(f"{context}: loop at {u!r}, not a tree")
    seen = set()
    for u, v in edges:
        key = frozenset((u, v))
        if key in seen:
            raise CorpusError(f"{context}: repeated edge between {u!r} and {v!r}")
        seen.add(key)
    if len(edges) != len(q.vertices) - 1:
        raise CorpusError(f"{context}: edge count does not match a tree")
    if q.vertices:
        adjacency = {v: [] for v in q.vertices}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        stack = [q.vertices[0]]
        reached = {q.vertices[0]}
        while stack:
            at = stack.pop()
            for nb in adjacency[at]:
                if nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if len(reached) != len(q.vertices):
            raise CorpusError(f"{context}: underlying graph is not connected")


def _dynkin_type(q: Quiver) -> str | None:
    """ADE type of the underlying tree, or None when outside the list."""
    degree = {v: 0 for v in q.vertices}
    for u, v in _underlying_edges(q):
        degree[u] += 1
        degree[v] += 1
    if any(d > 3 for d in degree.values()):
        return None
    branches = [v for v, d in degree.items() if d == 3]
    n = len(q.vertices)
    if not branches:
        return f"A{n}"
    if len(branches) > 1:
        return None
    adjacency = {v: [] for v in q.vertices}
    for u, v in _underlying_edges(q):
        adjacency[u].append(v)
        adjacency[v].append(u)
    center = branches[0]
    arms = []
    for start in adjacency[center]:
        length = 1
        prev, at = center, start
        while True:
            nxt = [x for x in adjacency[at] if x != prev]
            if not nxt:
                break
            prev, at = at, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    return None


def preprojective(tree: Quiver) -> Presentation:
    """Double quiver of a tree modulo the per-vertex commutator sums."""
    _check_tree(tree, "preprojective")
    dq = double_quiver(tree)
    relations = []
    for v in tree.vertices:
        terms = {}
        for a in tree.arrows:
            if a.target == v:
                terms[dq.path([f"{a.label}*", a.label])] = ONE
            if a.source == v:
                terms[dq.path([a.label, f"{a.label}*"])] = -ONE
        if terms:
            relations.append(PathCombination(terms))
    return Presentation(dq, relations)


def trivial_extension_dual(tree: Quiver) -> Presentation:
    """Double quiver of a bipartite-oriented tree with the four relation
    families: matched squares at sources and sinks, and the mixed length-2
    words through a common endpoint.

    Requires every vertex to be a source or a sink.  Warns on Dynkin trees
    other than a single vertex or single edge: there the construction is
    known not to be Koszul, and the resolution will exhibit the failure.
    """
    _check_tree(tree, "trivial_extension_dual")
    for v in tree.vertices:
        if tree.arrows_by_source[v] and tree.arrows_by_target[v]:
            raise CorpusError(
                f"trivial_extension_dual: vertex {v!r} has both incoming and"
                " outgoing arrows; every vertex must be a source or a sink"
            )
    dtype = _dynkin_type(tree)
    if dtype is not None and dtype not in ("A1", "A2"):
        warnings.warn(
            f"tree has Dynkin type {dtype}: this construction is Koszul only"
            " for a single vertex, a single edge, or a non-Dynkin tree",
            stacklevel=2,
        )
    dq = double_quiver(tree)
    relations = []
    for v in tree.vertices:
        outgoing = tree.arrows_by_source[v]
        for x in range(len(outgoing)):
            for y in range(x + 1, len(outgoing)):
                a, b = outgoing[x], outgoing[y]
                relations.append(PathCombination({
                    dq.path([a.label, f"{a.label}*"]): ONE,
                    dq.path([b.label, f"{b.label}*"]): -ONE,
                }))
        incoming = tree.arrows_by_target[v]
        for x in range(len(incoming)):
            for y in range(x + 1, len(incoming)):
                a, b = incoming[x], incoming[y]
                relations.append(PathCombination({
                    dq.path([f"{a.label}*", a.label]): ONE,
                    dq.path([f"{b.label}*", b.label]): -ONE,
                }))
        for a in incoming:
            for b in incoming:
                if a.label != b.label:
                    relations.append(
                        PathCombination({dq.path([a.label, f"{b.label}*"]): ONE})
                    )
        for a in outgoing:
            for b in outgoing:
                if a.label != b.label:
                    relations.append(
                        PathCombination({dq.path([f"{b.label}*", a.label]): ONE})
                    )
    return Presentation(dq, relations)


# ---------------------------------------------------------------------------
# covering families over exterior algebras


def example1(m: int, n: int) -> Presentation:
    """Cyclic n-fold covering of the exterior algebra, every weight 1."""
    if n < 1:
        raise CorpusError("covering needs a group of order at least 1")
    group = cyclic_group(n)
    weights = {f"a{i}": str(1 % n) for i in range(1, m + 1)}
    return build_covering(exterior(m), group, weights)


def example2(m: int, l: int, n: int) -> Presentation:
    """Cyclic covering of the exterior algebra with mixed weights: the
    first l generators carry 1, the rest carry the inverse."""
    if not (0 <= l <= m):
        raise CorpusError(f"weight split l={l} must lie between 0 and m={m}")
    if n < 1:
        raise CorpusError("covering needs a group of order at least 1")
    group = cyclic_group(n)
    weights = {
        f"a{i}": str(1 % n) if i <= l else str((n - 1) % n)
        for i in range(1, m + 1)
    }
    return build_covering(exterior(m), group, weights)


def example3(n: int) -> Presentation:
    """Covering of the two-generator exterior algebra by Z_2 x Z_n, each
    generator weighted by one factor's generator."""
    if n < 1:
        raise CorpusError("covering needs a group of order at least 1")
    group = direct_product(cyclic_group(2), cyclic_group(n))
    weights = {"a1": "(1,0)", "a2": f"(0,{1 % n})"}
    return build_covering(exterior(2), group, weights)


def example4(n: int = 2) -> Presentation:
    """Dihedral covering of the two-generator exterior algebra.

    Only n = 2 yields a homogeneous weighting; larger n is refused with the
    witness that the two generators' weights do not commute.
    """
    return build_covering(exterior(2), dihedral_group(n), {"a1": "s", "a2": "c"})


# ---------------------------------------------------------------------------
# registry


def _int_args(text: str, arity: int, signature: str) -> list:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != arity or not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
        raise CorpusError(f"expected arguments {signature!r}, got {text!r}")
    return [int(p) for p in parts]


_TREE = "tree spec (line:N | star:N)"
_QUIVER = "quiver spec (line:N | star:N | loops:M)"

# name -> (argument signature, family); the signature says how to read the
# argument text: a quiver spec, no argument, or comma-separated integers
_FAMILIES = {
    "exterior": ("m", exterior),
    "example1": ("m,n", example1),
    "example2": ("m,l,n", example2),
    "example3": ("n", example3),
    "example4": ("n", example4),
    "preprojective": (_TREE, preprojective),
    "trivial_extension_dual": (_TREE, trivial_extension_dual),
    "path_algebra": (_QUIVER, path_algebra),
    "radical_square_zero": (_QUIVER, radical_square_zero),
    "loop_cubed": ("", loop_cubed),
}

CORPUS = {name: signature for name, (signature, _) in _FAMILIES.items()}


def build_corpus(name: str, args: str = "") -> Presentation:
    if name not in _FAMILIES:
        raise CorpusError(f"unknown corpus name {name!r}; see corpus list")
    signature, family = _FAMILIES[name]
    if signature in (_TREE, _QUIVER):
        return family(parse_quiver_spec(args))
    if not signature:
        if args.strip():
            raise CorpusError(f"{name} takes no arguments")
        return family()
    return family(*_int_args(args, len(signature.split(",")), signature))


def corpus_instances() -> list:
    """Desk-scale instances of every family, for sweep-style checks."""
    return [
        ("exterior(1)", exterior(1)),
        ("exterior(2)", exterior(2)),
        ("exterior(3)", exterior(3)),
        ("loop_cubed", loop_cubed()),
        ("path_algebra(line:3)", path_algebra(parse_quiver_spec("line:3"))),
        ("radical_square_zero(loops:2)",
         radical_square_zero(parse_quiver_spec("loops:2"))),
        ("preprojective(line:2)", preprojective(parse_quiver_spec("line:2"))),
        ("preprojective(star:4)", preprojective(parse_quiver_spec("star:4"))),
        ("trivial_extension_dual(line:2)",
         trivial_extension_dual(parse_quiver_spec("line:2"))),
        ("trivial_extension_dual(star:4)",
         trivial_extension_dual(parse_quiver_spec("star:4"))),
        ("example1(1,2)", example1(1, 2)),
        ("example1(2,2)", example1(2, 2)),
        ("example2(2,1,3)", example2(2, 1, 3)),
        ("example3(2)", example3(2)),
        ("example4(2)", example4(2)),
    ]
