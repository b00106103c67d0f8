"""Quivers, paths, and rational combinations of parallel paths.

Composition is written right to left: in p∘q the path q is applied first,
so i(p∘q) = i(q) and t(p∘q) = t(p).  A word a_k…a_1 therefore stores its
last-applied arrow first and starts at source(a_1).  Serialized documents
list arrows in first-applied order instead; the loader reverses them.

Paths of equal length are ordered lexicographically by their arrow index
sequences read in first-applied order.  That order is what every normal
form and every pivot choice downstream is pinned to.

Arrows and paths are dict keys in every hot loop, so each computes its hash
once, at construction.  String hashes differ between interpreters, so a
pickled arrow or path is rebuilt from its fields rather than restored with
its stored hash.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import as_scalar


class QuiverError(ValueError):
    pass


class RelationError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.label, self.source, self.target)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Arrow, (self.label, self.source, self.target))


@dataclass(frozen=True)
class Path:
    """A path in a quiver: a composable word of arrows, or a trivial path.

    ``arrows`` holds the last-applied arrow first.  A trivial path has an
    empty word and carries its vertex in ``base``.
    """

    arrows: tuple = ()
    base: str | None = None

    def __post_init__(self):
        if self.arrows:
            if self.base is not None:
                raise QuiverError("nontrivial path must not carry a base vertex")
            for later, earlier in zip(self.arrows, self.arrows[1:]):
                if later.source != earlier.target:
                    raise QuiverError(
                        f"arrows {later.label} and {earlier.label} do not compose: "
                        f"{later.label} starts at {later.source}, "
                        f"{earlier.label} ends at {earlier.target}"
                    )
        elif self.base is None:
            raise QuiverError("trivial path needs a vertex")
        object.__setattr__(self, "_hash", hash((self.arrows, self.base)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Path, (self.arrows, self.base))

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        """i(p): where the first-applied arrow starts."""
        return self.arrows[-1].source if self.arrows else self.base

    @property
    def target(self) -> str:
        """t(p): where the last-applied arrow ends."""
        return self.arrows[0].target if self.arrows else self.base

    def labels_first_applied(self) -> tuple:
        return tuple(a.label for a in reversed(self.arrows))

    def __str__(self) -> str:
        if not self.arrows:
            return f"e({self.base})"
        return ".".join(a.label for a in self.arrows)


def trivial_path(vertex: str) -> Path:
    return Path((), vertex)


def compose(p: Path, q: Path) -> Path:
    """p∘q, applying q first.  Requires i(p) = t(q)."""
    if p.source != q.target:
        raise QuiverError(
            f"cannot compose: {p} starts at {p.source} but {q} ends at {q.target}"
        )
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.arrows + q.arrows)


def composed_path(arrows: tuple) -> Path:
    """Path(arrows) for a nonempty word already known to compose, without
    re-checking it; a path built from input goes through ``Path``."""
    p = object.__new__(Path)
    object.__setattr__(p, "arrows", arrows)
    object.__setattr__(p, "base", None)
    object.__setattr__(p, "_hash", hash((arrows, None)))
    return p


class Quiver:
    """A finite quiver: ordered vertices and ordered labelled arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            dup = _first_duplicate(self.vertices)
            raise QuiverError(f"duplicate vertex label {dup!r}")
        vertex_set = set(self.vertices)
        normalized = []
        for a in arrows:
            if not isinstance(a, Arrow):
                label, source, target = a
                a = Arrow(str(label), str(source), str(target))
            if a.source not in vertex_set:
                raise QuiverError(f"arrow {a.label!r} has dangling source {a.source!r}")
            if a.target not in vertex_set:
                raise QuiverError(f"arrow {a.label!r} has dangling target {a.target!r}")
            normalized.append(a)
        self.arrows = tuple(normalized)
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            dup = _first_duplicate(labels)
            raise QuiverError(f"duplicate arrow label {dup!r}")
        self._by_label = {a.label: a for a in self.arrows}
        self._index = {a.label: i for i, a in enumerate(self.arrows)}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrows_by_source = {v: [] for v in self.vertices}
        self.arrows_by_target = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_by_source[a.source].append(a)
            self.arrows_by_target[a.target].append(a)

    def arrow(self, label: str) -> Arrow:
        try:
            return self._by_label[label]
        except KeyError:
            raise QuiverError(f"no arrow labelled {label!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_index

    def vertex_index(self, v: str) -> int:
        return self._vertex_index[v]

    def path(self, labels_first_applied) -> Path:
        """Build a path from arrow labels listed in application order."""
        arrows = tuple(self.arrow(l) for l in reversed(list(labels_first_applied)))
        if not arrows:
            raise QuiverError("empty label list; use trivial_path for idempotents")
        return Path(arrows)

    def pair_key(self, pair) -> tuple:
        """Sort key of a vertex pair (u, v): the positions of u, then of v."""
        return (self._vertex_index[pair[0]], self._vertex_index[pair[1]])

    def path_key(self, p: Path) -> tuple:
        """Sort key: source vertex, then arrow indices in first-applied order."""
        return (
            self._vertex_index[p.source],
            tuple(self._index[a.label] for a in reversed(p.arrows)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


@dataclass
class QuiverAutomorphism:
    """A bijection of vertices and of arrows that respects incidence.

    The map may be partial: ``rooted_isomorphism`` defines it only on the
    vertices reached from one vertex and on the arrows leaving them.
    """

    vertices: dict  # vertex label -> vertex label
    arrows: dict  # Arrow -> Arrow

    def apply(self, p: Path) -> Path:
        if not p.arrows:
            return trivial_path(self.vertices[p.base])
        return Path(tuple(self.arrows[a] for a in p.arrows))


def rooted_isomorphism(q: Quiver, u: str, t: str):
    """A map from the part of q reached from u onto the part reached from t
    that sends u to t, or None when one forced propagation, without
    backtracking, finds none.

    At a vertex x with image y, the arrows leaving x go in order onto those
    leaving y: an arrow into a vertex that has an image goes to the next
    arrow into that image, so parallel arrows pair by index, and any other
    arrow goes to the next arrow whose target is no vertex's image yet,
    which becomes its target's image.  The map may reorder the arrows
    leaving a vertex, as a leaf swap of a star does.  Its vertex map is
    injective and forces the arrow map; every arrow leaving an image is
    used, so the image is the whole part reached from t.
    """
    vmap, amap, images, pending = {u: t}, {}, {t}, [u]
    while pending:
        x = pending.pop()
        outs, free = q.arrows_by_source[x], list(q.arrows_by_source[vmap[x]])
        if len(outs) != len(free):
            return None
        for a in outs:
            z = vmap.get(a.target)
            b = next((b for b in free if (b.target not in images if z is None
                                          else b.target == z)), None)
            if b is None:
                return None
            free.remove(b)
            amap[a] = b
            if z is None:
                vmap[a.target] = b.target
                images.add(b.target)
                pending.append(a.target)
    return QuiverAutomorphism(vmap, amap)


def _first_duplicate(items):
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


def enumerate_paths(q: Quiver, length: int, source: str | None = None,
                    target: str | None = None) -> list:
    """All paths of the given length, in first-applied lexicographic order."""
    if length < 0:
        raise QuiverError("path length must be nonnegative")
    if source is not None and not q.has_vertex(source):
        raise QuiverError(f"no vertex labelled {source!r}")
    if target is not None and not q.has_vertex(target):
        raise QuiverError(f"no vertex labelled {target!r}")
    starts = [source] if source is not None else list(q.vertices)
    out = []
    if length == 0:
        for v in starts:
            if target is None or v == target:
                out.append(trivial_path(v))
        return out

    def extend(prefix_first_applied, at):
        if len(prefix_first_applied) == length:
            if target is None or at == target:
                out.append(Path(tuple(reversed(prefix_first_applied))))
            return
        for a in q.arrows_by_source[at]:
            prefix_first_applied.append(a)
            extend(prefix_first_applied, a.target)
            prefix_first_applied.pop()

    for v in starts:
        extend([], v)
    return out


_OP_SUFFIX = "_op"


def opposite_label(label: str) -> str:
    if label.endswith(_OP_SUFFIX):
        return label[: -len(_OP_SUFFIX)]
    return label + _OP_SUFFIX


def opposite_quiver(q: Quiver) -> Quiver:
    """Reverse every arrow; labels toggle an ``_op`` suffix so the map involutes."""
    arrows = [Arrow(opposite_label(a.label), a.target, a.source) for a in q.arrows]
    return Quiver(q.vertices, arrows)


def double_quiver(q: Quiver) -> Quiver:
    """Adjoin a reversed starred copy a* for every arrow a."""
    starred = [Arrow(a.label + "*", a.target, a.source) for a in q.arrows]
    return Quiver(q.vertices, list(q.arrows) + starred)


def _check_uniform(terms: dict, min_length: int, context: str) -> None:
    if not terms:
        raise RelationError(f"{context}: no terms")
    paths = list(terms)
    lengths = {p.length for p in paths}
    if len(lengths) > 1:
        raise RelationError(f"{context}: mixed lengths {sorted(lengths)}")
    length = lengths.pop()
    if length < min_length:
        raise RelationError(f"{context}: length {length} below minimum {min_length}")
    endpoints = {(p.source, p.target) for p in paths}
    if len(endpoints) > 1:
        pretty = ", ".join(f"{u}->{v}" for u, v in sorted(endpoints))
        raise RelationError(f"{context}: terms are not parallel ({pretty})")
    for p, c in terms.items():
        if not c:
            raise RelationError(f"{context}: zero coefficient on {p}")


class PathCombination:
    """A rational combination of parallel paths of one common length >= 1.

    Coefficients are stored as exact scalars: ``int`` when integral,
    ``Fraction`` otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = {}
        for p, c in dict(terms).items():
            c = as_scalar(c)
            if c:
                cleaned[p] = c
        _check_uniform(cleaned, 1, "path combination")
        self.terms = cleaned

    @property
    def length(self) -> int:
        return next(iter(self.terms)).length

    @property
    def source(self) -> str:
        return next(iter(self.terms)).source

    @property
    def target(self) -> str:
        return next(iter(self.terms)).target

    def items(self):
        return self.terms.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathCombination):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self) -> str:
        parts = []
        for p, c in self.terms.items():
            parts.append(f"({c})*{p}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PathCombination({self})"


def validate_relation(q: Quiver, relation) -> None:
    """Accept a relation: nonzero coefficients on parallel equal-length
    paths of length >= 2 whose arrows all belong to q.  Raises
    RelationError with a diagnostic otherwise."""
    terms = relation.terms if isinstance(relation, PathCombination) else dict(relation)
    _check_uniform(terms, 2, "relation")
    for p in terms:
        for a in p.arrows:
            if not (a.label in q._by_label and q.arrow(a.label) == a):
                raise RelationError(f"relation uses arrow {a.label!r} not in the quiver")
