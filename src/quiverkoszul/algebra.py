"""Degreewise model of a path-algebra quotient by length-homogeneous relations.

The algebra KQ/<rho> is graded by path length.  For each degree d up to a
truncation bound the model stores, per (source, target) vertex pair, the
span of the degree-d slice of the ideal in reduced echelon form over the
degree-d paths, ordered first-applied-lexicographically.  The ideal slice in
degree d is generated by the degree-d relations together with arrow*(slice
d-1) and (slice d-1)*arrow, so slices are built degree by degree reusing the
previous one.  Non-pivot paths survive as the normal-form basis, so every
basis element is the class of an actual path, and the expression map sends
every degree-d path to its coordinates over those classes.  The first degree
in which no path survives ends the construction: every longer path is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import EchelonSpan, ZERO, ONE, vec_axpy
from .quiver import (
    Path,
    PathCombination,
    Quiver,
    compose,
    enumerate_paths,
    trivial_path,
    validate_relation,
)


class DegreeOverflowError(ValueError):
    pass


class InternalError(Exception):
    """A consistency check inside the library failed: a defect, not bad input."""


@dataclass(frozen=True)
class Presentation:
    """A quiver with validated length-homogeneous relations."""

    quiver: Quiver
    relations: tuple

    def __init__(self, quiver, relations):
        rels = []
        for r in relations:
            if isinstance(r, Path):
                r = PathCombination({r: Fraction(1)})
            elif not isinstance(r, PathCombination):
                r = PathCombination(r)
            validate_relation(quiver, r)
            rels.append(r)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "relations", tuple(rels))

    def canonical_key(self):
        """Order-insensitive content key, for comparing constructions."""
        rel_keys = []
        for r in self.relations:
            terms = sorted(
                ((p.labels_first_applied(), p.source, c) for p, c in r.items())
            )
            rel_keys.append(tuple(terms))
        return (
            self.quiver.vertices,
            tuple((a.label, a.source, a.target) for a in self.quiver.arrows),
            tuple(sorted(rel_keys)),
        )


class AlgebraModel:
    """Normal-form bases per degree and vertex pair, up to max_degree.

    Immutable once built; all query methods are pure.  Basis elements are
    residue classes of paths; products of basis classes reduce through the
    expression map, which covers every path of each eliminated degree.

    Elimination stops at the first vanishing degree d0: the length grading
    is generated in degree one, so every path of length >= d0 is zero, at
    any length, inside the window or past it.
    """

    def __init__(self, presentation: Presentation, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.max_degree = max_degree
        # _basis[(d, u, v)]: the normal-form subfamily of the degree-d paths
        # u->v, in canonical order
        self._basis = {}
        # _expr[path]: dict basis Path -> Fraction, for every path of length <= d0
        self._expr = {}
        # _block_keys[d]: the (u, v) pairs joined by a path of length d
        self._block_keys = {}
        # first degree with A_d = 0, or None if the window shows none
        self._zero_from = None
        self._arrow_set = frozenset(self.quiver.arrows)
        self._product_cache = {}
        self._build()

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        q = self.quiver
        for v in q.vertices:
            e = trivial_path(v)
            self._basis[(0, v, v)] = [e]
            self._expr[e] = {e: ONE}
        self._block_keys[0] = {(v, v) for v in q.vertices}
        if not q.vertices:
            self._zero_from = 0
        relations_by_degree = {}
        for r in self.presentation.relations:
            relations_by_degree.setdefault(r.length, []).append(r)

        prev_spans = {}
        blocks_prev = {}
        d = 1
        while self._zero_from is None and d <= self.max_degree:
            # enumerate and index the degree-d paths per block
            blocks = {}
            for p in enumerate_paths(q, d):
                blocks.setdefault((p.source, p.target), []).append(p)
            index = {}
            for key, paths in blocks.items():
                for j, p in enumerate(paths):
                    index[p] = j

            spans = {key: EchelonSpan() for key in blocks}

            def add_vector(key, vec):
                if vec:
                    spans[key].add(vec)

            for r in relations_by_degree.get(d, ()):
                vec = {index[p]: c for p, c in r.items()}
                add_vector((r.source, r.target), vec)

            for (u, v), span in prev_spans.items():
                paths_prev = blocks_prev[(u, v)]
                for row in span.rref_rows():
                    # arrow on the left: a∘p, lands in block (u, t(a))
                    for a in q.arrows_by_source[v]:
                        vec = {}
                        for j, c in row.items():
                            newp = Path((a,) + paths_prev[j].arrows)
                            vec[index[newp]] = c
                        add_vector((u, a.target), vec)
                    # arrow on the right: p∘a, lands in block (i(a), v)
                    for a in q.arrows_by_target[u]:
                        vec = {}
                        for j, c in row.items():
                            newp = Path(paths_prev[j].arrows + (a,))
                            vec[index[newp]] = c
                        add_vector((a.source, v), vec)

            survivors = 0
            for (u, v), paths in blocks.items():
                span = spans[(u, v)]
                pivot_set = set(span.pivots())
                basis = [p for j, p in enumerate(paths) if j not in pivot_set]
                survivors += len(basis)
                self._basis[(d, u, v)] = basis
                for p in basis:
                    self._expr[p] = {p: ONE}
                for pivot, row in span.rows.items():
                    expr = {}
                    for j, c in row.items():
                        if j != pivot:
                            expr[paths[j]] = -c
                    self._expr[paths[pivot]] = expr
            if not survivors:
                self._zero_from = d

            prev_spans = spans
            blocks_prev = blocks
            d += 1

        # blocks follow the walks, also past d0 where nothing is eliminated
        for d in range(1, self.max_degree + 1):
            self._block_keys[d] = {
                (u, a.target)
                for u, v in self._block_keys[d - 1]
                for a in q.arrows_by_source[v]
            }

        for r in self.presentation.relations:
            if r.length <= self.max_degree and self.normal_form(r):
                raise InternalError(f"relation {r} has nonzero normal form")

    # -- queries ------------------------------------------------------

    def blocks(self, d: int):
        """(u, v) blocks holding a degree-d path, in vertex order."""
        keys = self._block_keys.get(d, ())
        return [
            (u, v)
            for u in self.quiver.vertices
            for v in self.quiver.vertices
            if (u, v) in keys
        ]

    def basis_paths(self, d: int, u: str | None = None, v: str | None = None) -> list:
        self._check_degree(d)
        out = []
        for uu in self.quiver.vertices if u is None else [u]:
            for vv in self.quiver.vertices if v is None else [v]:
                out.extend(self._basis.get((d, uu, vv), ()))
        return out

    def all_paths(self, d: int, u: str, v: str) -> list:
        self._check_degree(d)
        return enumerate_paths(self.quiver, d, u, v)

    def dim(self, d: int, u: str, v: str) -> int:
        self._check_degree(d)
        return len(self._basis.get((d, u, v), ()))

    def total_dim(self, d: int) -> int:
        self._check_degree(d)
        return sum(len(b) for (dd, _, _), b in self._basis.items() if dd == d)

    def total_dims(self) -> list:
        return [self.total_dim(d) for d in range(self.max_degree + 1)]

    def top_degree(self) -> int | None:
        """Largest d with A_d != 0 if the truncation exhibits one, else None.

        Length gradings are generated in degree one, so a single zero degree
        forces all later degrees to vanish; seeing a zero inside the window
        certifies finite-dimensionality.
        """
        return None if self._zero_from is None else self._zero_from - 1

    def finite_basis(self) -> list:
        """All basis paths when the algebra provably vanishes in the window."""
        top = self.top_degree()
        if top is None:
            raise DegreeOverflowError(
                f"no vanishing degree within the window (max_degree={self.max_degree});"
                " cannot certify finite dimensionality"
            )
        out = []
        for d in range(top + 1):
            for u, v in self.blocks(d):
                out.extend(self._basis[(d, u, v)])
        return out

    def _vanishes(self, d: int) -> bool:
        """Whether A_d = 0 is certified, which holds for every d >= d0."""
        return self._zero_from is not None and d >= self._zero_from

    def _check_degree(self, d: int) -> None:
        if not (0 <= d <= self.max_degree):
            raise DegreeOverflowError(
                f"degree {d} outside the modelled window 0..{self.max_degree}"
            )

    def normal_form(self, x) -> dict:
        """Residue class of x as a basis-path combination (empty dict = 0)."""
        terms = _as_terms(x)
        out = {}
        for p, c in terms.items():
            if self._vanishes(p.length):
                if not self._arrow_set.issuperset(p.arrows):
                    raise ValueError(f"path {p} does not live in this quiver")
                continue
            if p.length > self.max_degree:
                raise DegreeOverflowError(
                    f"path of length {p.length} exceeds the window {self.max_degree}"
                )
            if p not in self._expr:
                raise ValueError(f"path {p} does not live in this quiver")
            vec_axpy(out, c, self._expr[p])
        return out

    def basis_product(self, bx: Path, by: Path) -> dict:
        """Product of two basis classes (bx applied last)."""
        key = (bx, by)
        hit = self._product_cache.get(key)
        if hit is not None:
            return hit
        d = bx.length + by.length
        if bx.source != by.target or self._vanishes(d):
            result = {}
        else:
            if d > self.max_degree:
                raise DegreeOverflowError(
                    f"product degree {d} exceeds the window {self.max_degree}"
                )
            result = dict(self._expr[compose(bx, by)])
        self._product_cache[key] = result
        return result

    def multiply(self, x, y) -> dict:
        """x·y with y applied first; inputs may be paths, combinations, or
        normal-form dicts."""
        nx = self.normal_form(x)
        ny = self.normal_form(y)
        out = {}
        for bx, cx in nx.items():
            for by, cy in ny.items():
                vec_axpy(out, cx * cy, self.basis_product(bx, by))
        return out


def _as_terms(x) -> dict:
    if isinstance(x, Path):
        return {x: ONE}
    if isinstance(x, PathCombination):
        return dict(x.items())
    if isinstance(x, dict):
        return {p: Fraction(c) for p, c in x.items()}
    raise TypeError(f"cannot interpret {type(x).__name__} as an algebra element")


# -- polynomial matrices over the integers (Hilbert / Betti series) ----


class PolyMatrix:
    """Square matrix of integer polynomials truncated past a fixed degree."""

    def __init__(self, labels, cutoff: int, coeffs=None):
        self.labels = tuple(labels)
        self.cutoff = cutoff
        self.coeffs = {}  # (u, v) -> list of ints, len cutoff+1
        for key, poly in (coeffs or {}).items():
            poly = list(poly)[: cutoff + 1]
            poly += [0] * (cutoff + 1 - len(poly))
            if any(poly):
                self.coeffs[key] = poly

    def entry(self, u, v) -> list:
        return list(self.coeffs.get((u, v), [0] * (self.cutoff + 1)))

    @classmethod
    def identity(cls, labels, cutoff: int) -> "PolyMatrix":
        coeffs = {(u, u): [1] + [0] * cutoff for u in labels}
        return cls(labels, cutoff, coeffs)

    def shape(self) -> str:
        return f"labels {list(self.labels)} cutoff {self.cutoff}"

    def add_term(self, u, v, degree: int, value: int) -> None:
        if degree > self.cutoff or not value:
            return
        poly = self.coeffs.setdefault((u, v), [0] * (self.cutoff + 1))
        poly[degree] += value
        if not any(poly):
            del self.coeffs[(u, v)]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.labels != other.labels or self.cutoff != other.cutoff:
            raise ValueError(
                f"cannot multiply a {self.shape()} matrix by a {other.shape()} matrix"
            )
        cutoff = self.cutoff
        out = PolyMatrix(self.labels, cutoff)
        lefts = {}
        for (u, w), poly in self.coeffs.items():
            lefts.setdefault(u, []).append((w, poly))
        rights = {}
        for (w, v), poly in other.coeffs.items():
            rights.setdefault(w, []).append((v, poly))
        for u, row in lefts.items():
            for w, lpoly in row:
                for v, rpoly in rights.get(w, ()):
                    target = out.coeffs.setdefault((u, v), [0] * (cutoff + 1))
                    for i, a in enumerate(lpoly):
                        if not a:
                            continue
                        for j in range(0, cutoff + 1 - i):
                            b = rpoly[j]
                            if b:
                                target[i + j] += a * b
        out.coeffs = {k: p for k, p in out.coeffs.items() if any(p)}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    def first_difference(self, other: "PolyMatrix"):
        """(u, v, degree, got, expected) for the first mismatch, or None."""
        for u in self.labels:
            for v in self.labels:
                a = self.entry(u, v)
                b = other.entry(u, v)
                for d in range(self.cutoff + 1):
                    if a[d] != b[d]:
                        return (u, v, d, a[d], b[d])
        return None


@dataclass(frozen=True)
class HilbertMatrix:
    """Entry (u, v) counts the degree-d basis classes of paths u -> v."""

    vertices: tuple
    max_degree: int
    coeffs: tuple  # tuple of ((u, v), tuple-of-ints) sorted

    def entry(self, u, v) -> tuple:
        for key, poly in self.coeffs:
            if key == (u, v):
                return poly
        return tuple([0] * (self.max_degree + 1))

    def identity_constant_term(self) -> bool:
        for u in self.vertices:
            for v in self.vertices:
                want = 1 if u == v else 0
                if self.entry(u, v)[0] != want:
                    return False
        return True

    def total_per_degree(self) -> list:
        out = [0] * (self.max_degree + 1)
        for _, poly in self.coeffs:
            for d, c in enumerate(poly):
                out[d] += c
        return out

    def as_poly_matrix(self, cutoff: int) -> PolyMatrix:
        if cutoff > self.max_degree:
            raise ValueError(
                f"cannot truncate a Hilbert matrix on {list(self.vertices)} with window "
                f"{self.max_degree} at cutoff {cutoff}: the cutoff is past the window"
            )
        coeffs = {key: list(poly[: cutoff + 1]) for key, poly in self.coeffs}
        return PolyMatrix(self.vertices, cutoff, coeffs)


def hilbert_matrix(m: AlgebraModel) -> HilbertMatrix:
    coeffs = []
    for u in m.quiver.vertices:
        for v in m.quiver.vertices:
            poly = tuple(m.dim(d, u, v) for d in range(m.max_degree + 1))
            if any(poly):
                coeffs.append(((u, v), poly))
    return HilbertMatrix(m.quiver.vertices, m.max_degree, tuple(coeffs))
