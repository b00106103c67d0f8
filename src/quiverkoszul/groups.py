"""Finite groups as validated multiplication tables, and quiver actions."""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import Quiver, QuiverAutomorphism


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group given by labelled elements and a full Cayley table."""

    def __init__(self, elements, table, name: str = "group"):
        self.elements = tuple(str(g) for g in elements)
        self.name = name
        if len(set(self.elements)) != len(self.elements):
            raise GroupError("duplicate element labels")
        universe = set(self.elements)
        self._table = {}
        for g in self.elements:
            for h in self.elements:
                try:
                    gh = table[(g, h)]
                except KeyError:
                    raise GroupError(f"table is missing the product {g}*{h}") from None
                if gh not in universe:
                    raise GroupError(f"product {g}*{h} = {gh!r} is not an element")
                self._table[(g, h)] = gh
        self.identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()
        self._index = {g: i for i, g in enumerate(self.elements)}

    def _find_identity(self) -> str:
        for e in self.elements:
            if all(
                self._table[(e, g)] == g and self._table[(g, e)] == g
                for g in self.elements
            ):
                return e
        raise GroupError("no identity element")

    def _find_inverses(self) -> dict:
        inv = {}
        for g in self.elements:
            for h in self.elements:
                if (
                    self._table[(g, h)] == self.identity
                    and self._table[(h, g)] == self.identity
                ):
                    inv[g] = h
                    break
            else:
                raise GroupError(f"element {g!r} has no inverse")
        return inv

    def _check_associativity(self) -> None:
        for g in self.elements:
            for h in self.elements:
                for k in self.elements:
                    if self._table[(self._table[(g, h)], k)] != self._table[
                        (g, self._table[(h, k)])
                    ]:
                        raise GroupError(f"associativity fails on ({g},{h},{k})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def multiply(self, g: str, h: str) -> str:
        return self._table[(g, h)]

    def inverse(self, g: str) -> str:
        return self._inverse[g]

    def index(self, g: str) -> int:
        return self._index[g]

    def __contains__(self, g) -> bool:
        return g in self._index

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError(f"cyclic group needs n >= 1, got {n}")
    elements = [str(i) for i in range(n)]
    table = {
        (str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)
    }
    return FiniteGroup(elements, table, name=f"cyclic:{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elements = [f"({a},{b})" for a in g.elements for b in h.elements]
    table = {}
    for a1 in g.elements:
        for b1 in h.elements:
            for a2 in g.elements:
                for b2 in h.elements:
                    table[(f"({a1},{b1})", f"({a2},{b2})")] = (
                        f"({g.multiply(a1, a2)},{h.multiply(b1, b2)})"
                    )
    return FiniteGroup(elements, table, name=f"product:{g.name},{h.name}")


def _dihedral_label(flip: int, k: int) -> str:
    if flip == 0:
        if k == 0:
            return "e"
        if k == 1:
            return "c"
        return f"c{k}"
    if k == 0:
        return "s"
    if k == 1:
        return "sc"
    return f"sc{k}"


def dihedral_group(n: int) -> FiniteGroup:
    """Order-2n dihedral group <c, s | c^n = s^2 = e, s·c·s = c^-1>."""
    if n < 2:
        raise GroupError(f"dihedral group needs n >= 2, got {n}")
    pairs = [(0, k) for k in range(n)] + [(1, k) for k in range(n)]
    elements = [_dihedral_label(f, k) for f, k in pairs]
    table = {}
    for f1, k1 in pairs:
        for f2, k2 in pairs:
            # (s^f1 c^k1)(s^f2 c^k2) = s^(f1+f2) c^(k1*(-1)^f2 + k2)
            f = (f1 + f2) % 2
            k = (k1 * (-1 if f2 else 1) + k2) % n
            table[(_dihedral_label(f1, k1), _dihedral_label(f2, k2))] = _dihedral_label(f, k)
    return FiniteGroup(elements, table, name=f"dihedral:{n}")


@dataclass(frozen=True)
class GroupAction:
    """A left action of a finite group on a quiver by automorphisms."""

    group: FiniteGroup
    vertex_maps: dict  # g -> {vertex -> vertex}
    arrow_maps: dict  # g -> {arrow label -> arrow label}

    def validate(self, q: Quiver) -> None:
        G = self.group
        for g in G.elements:
            vm = self.vertex_maps[g]
            am = self.arrow_maps[g]
            if sorted(vm) != sorted(q.vertices) or sorted(vm.values()) != sorted(q.vertices):
                raise GroupError(f"element {g!r} does not permute the vertices")
            labels = [a.label for a in q.arrows]
            if sorted(am) != sorted(labels) or sorted(am.values()) != sorted(labels):
                raise GroupError(f"element {g!r} does not permute the arrows")
            for a in q.arrows:
                image = q.arrow(am[a.label])
                if image.source != vm[a.source] or image.target != vm[a.target]:
                    raise GroupError(
                        f"element {g!r} breaks incidence on arrow {a.label!r}"
                    )
        e = G.identity
        if any(self.vertex_maps[e][v] != v for v in q.vertices):
            raise GroupError("identity must act trivially on vertices")
        if any(self.arrow_maps[e][a.label] != a.label for a in q.arrows):
            raise GroupError("identity must act trivially on arrows")
        for g in G.elements:
            for h in G.elements:
                gh = G.multiply(g, h)
                for v in q.vertices:
                    if self.vertex_maps[g][self.vertex_maps[h][v]] != self.vertex_maps[gh][v]:
                        raise GroupError(f"action law fails on ({g},{h}) at vertex {v!r}")
                for a in q.arrows:
                    lab = a.label
                    if self.arrow_maps[g][self.arrow_maps[h][lab]] != self.arrow_maps[gh][lab]:
                        raise GroupError(f"action law fails on ({g},{h}) at arrow {lab!r}")

    def automorphism(self, q: Quiver, g: str) -> QuiverAutomorphism:
        """g as a quiver automorphism of q; ``.apply(path)`` moves a path."""
        return QuiverAutomorphism(
            dict(self.vertex_maps[g]),
            {a: q.arrow(self.arrow_maps[g][a.label]) for a in q.arrows},
        )


def trivial_action(q: Quiver) -> GroupAction:
    g = cyclic_group(1)
    e = g.identity
    return GroupAction(
        g,
        {e: {v: v for v in q.vertices}},
        {e: {a.label: a.label for a in q.arrows}},
    )
