"""Degreewise model of a path-algebra quotient by length-homogeneous relations.

The algebra A = KQ/<rho> is graded by path length.  Words of equal length
are ordered first-applied-lexicographically; a word is standard when no
element of the ideal has it as its first (tip) word, and the standard words
of degree d, per (source, target) vertex pair, are the model's basis of A_d.
Every basis element is the class of an actual path.

Lex order on words of equal length is compatible with concatenation, so
standard words are closed under suffixes: a standard word of degree d is
a∘b for an arrow a and a standard word b of degree d-1.  Degree d is
therefore built from the previous degree's basis, not from every path:

    A_d = (arrows ⊗ A_{d-1}) / span{π(r∘b)}

The columns are the composable words a∘b, ordered by b and then by a (which
is first-applied-lexicographic order).  The rows are π(r∘b) for every
relation r of length k <= d and every basis word b of degree d-k ending at
the source of r, where π rewrites a∘w' as a∘NF(w') through the tables of
the lower degrees.  π only moves a word to larger words, so the lex-first
pivots of the projected span are exactly the tips of the ideal in degree
d (Green, "Noncommutative Gröbner bases, and projective resolutions"), and
the non-pivot columns are the degree-d basis.  The cost of a degree scales
with basis size × arrows rather than with the number of paths.

The rref rows give the left tables (arrow, basis word b) -> NF(a∘b), held
in the product cache under the pair of word ids; a normal form is read off
by walking a path's arrows through them, first-applied first.  The first
degree in which no word survives ends the construction: every longer path
is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import EchelonSpan, ONE, ZERO, as_scalar, vec_axpy
from .quiver import (
    Path,
    PathCombination,
    Quiver,
    QuiverAutomorphism,
    composed_path,
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
                r = PathCombination({r: ONE})
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
    residue classes of standard words.  Degree d is eliminated over the
    words a∘b with b a degree-(d-1) basis word, so the model stores, per
    degree, one normal form per (arrow, basis word) pair; normal forms and
    products walk a path's arrows through those left tables.

    Each basis word is numbered once, when it is built, in ``finite_basis``
    order: by degree, source and target in quiver order, then canonical
    order.  ``words[i]`` and ``lengths[i]`` are word i's path and length,
    ``word_ids`` numbers the paths, ``arrow_ids`` the arrows (the degree-1
    words) and ``blocks_from[(d, u)]`` lists (v, the ids of block (d, u, v))
    per nonempty block.  One cache, keyed by pairs of ids, holds the left
    tables and every product computed since (``product``); the path-keyed
    ``normal_form`` and ``multiply`` convert at its edge.

    A block's relation rows stop once its span has a pivot in every
    column: each further row lies in that span, so the basis and the
    tables are what every row would give.  ``normal_pairs`` holds (x, y)
    for each degree-2 basis word words[x]∘words[y]; the other composable
    pairs of arrows are the degree-2 tips.

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
        self.words, self.lengths, self.word_ids, self.arrow_ids = [], [], {}, {}
        # _basis[(d, u, v)]: the ids of the degree-d basis words u->v; a block
        # with paths but no basis word has no entry
        self._basis = {}
        self.blocks_from = {}
        # _products[(x, y)]: NF(words[x]∘words[y]); filled with the left
        # tables, NF(a∘b) for an arrow a and a basis word b with a∘b of
        # degree below d0, and with every other product once computed
        self._products = {}
        # _block_keys[d]: the (u, v) pairs joined by a path of length d
        self._block_keys = {}
        # first degree with A_d = 0, or None if the window shows none
        self._zero_from = None
        self.normal_pairs = frozenset()
        self._arrow_set = frozenset(self.quiver.arrows)
        self._vertex_set = frozenset(self.quiver.vertices)
        self._build()

    # -- construction -------------------------------------------------

    def _number(self, d: int, u: str, v: str, paths: list) -> range:
        """Give the next ids to the basis words of block (d, u, v)."""
        start = len(self.words)
        self.words += paths
        self.lengths += [d] * len(paths)
        ids = self._basis[(d, u, v)] = range(start, len(self.words))
        self.word_ids.update(zip(paths, ids))
        self.blocks_from.setdefault((d, u), []).append((v, ids))
        return ids

    def _build(self) -> None:
        q = self.quiver
        # last[u]: (id, target) of the last built degree's basis words from
        # u, in first-applied lexicographic order across all targets
        last = {v: [(x, v) for x in self._number(0, v, v, [trivial_path(v)])]
                for v in q.vertices}
        self._block_keys[0] = {(v, v) for v in q.vertices}
        if not q.vertices:
            self._zero_from = 0
        position = {v: k for k, v in enumerate(q.vertices)}
        arrow_position = {a: p for p, a in enumerate(q.arrows)}
        # out_of[v]: (position in q.arrows, target) of each arrow out of v
        out_of = {v: [] for v in q.vertices}
        for p, a in enumerate(q.arrows):
            out_of[a.source].append((p, a.target))
        # relations[k]: (source, target, terms) per relation of length k, a
        # term holding its last arrow's position, its first arrow's id, the
        # ids of the arrows between, first-applied first, and its
        # coefficient; split once the arrows have ids
        relations = {}
        products = self._products

        d = 1
        while self._zero_from is None and d <= self.max_degree:
            # columns a∘b per block, in first-applied lexicographic order;
            # order[u] lists every degree-d column from u in that order
            columns, index, order = {}, {}, {}
            for u, ws in last.items():
                seq = order[u] = []
                for b, t in ws:
                    for p, v in out_of[t]:
                        key = (u, v)
                        cols = columns.setdefault(key, [])
                        index[(p, b)] = len(cols)
                        seq.append((key, len(cols)))
                        cols.append((p, b))
            spans = {key: EchelonSpan() for key in columns}

            # rows π(r∘b): a relation of length k after a degree-(d-k) word,
            # each built in one pass into a fresh zero-free dict; a block
            # whose span has a pivot in every column holds every further
            # row, and a block without columns has only zero rows
            for k in range(2, d + 1):
                for source, target, terms in relations.get(k, ()):
                    for u in q.vertices:
                        span = spans.get((u, target))
                        if span is None:
                            continue
                        full = len(columns[(u, target)])
                        for b in self._basis.get((d - k, u, source), ()):
                            if span.rank == full:
                                break
                            row = {}
                            for p, first, rest, c in terms:
                                walked = products[(first, b)]
                                if rest:
                                    walked = self._walk(rest, walked)
                                for w, cw in walked.items():
                                    j = index[(p, w)]
                                    s = row.get(j, ZERO) + c * cw
                                    if s:
                                        row[j] = s
                                    else:
                                        del row[j]
                            if row:
                                span._add(row)

            # number the surviving words block by block, in vertex order
            rows, ids = {key: span.rows for key, span in spans.items()}, {}
            for key in sorted(columns, key=lambda uv: (position[uv[0]], position[uv[1]])):
                cols = columns[key]
                found = [j for j in range(len(cols)) if j not in rows[key]]
                if found:
                    # a column a∘b composes: a comes from out_of at b's target
                    paths = [composed_path((q.arrows[cols[j][0]],)
                                           + self.words[cols[j][1]].arrows)
                             for j in found]
                    ids[key] = dict(zip(found, self._number(d, *key, paths)))
            if not ids:
                self._zero_from = d
                break
            if d == 1:
                self.arrow_ids = {self.words[x].arrows[0]: x for x in range(
                    len(q.vertices), len(self.words))}
                arrow_word = [self.arrow_ids[a] for a in q.arrows]
                for r in self.presentation.relations:
                    terms = []
                    for s, c in r.items():
                        tail = [self.arrow_ids[a] for a in s.arrows[:0:-1]]
                        terms.append((arrow_position[s.arrows[0]], tail[0], tail[1:], c))
                    relations.setdefault(r.length, []).append((r.source, r.target, terms))
            elif d == 2:
                self.normal_pairs = frozenset(
                    (arrow_word[cols[j][0]], cols[j][1])
                    for key, cols in columns.items() for j in ids.get(key, ()))
            # the left tables: a surviving column is its own word, a pivot
            # column minus its row's other entries
            for key, cols in columns.items():
                survivors = ids.get(key, {})
                for j, x in survivors.items():
                    p, b = cols[j]
                    self._products[(arrow_word[p], b)] = {x: ONE}
                for pivot, row in rows[key].items():
                    p, b = cols[pivot]
                    self._products[(arrow_word[p], b)] = {
                        survivors[j]: -c for j, c in row.items() if j != pivot
                    }
            last = {
                u: [(ids[key][j], key[1]) for key, j in seq if j in ids.get(key, ())]
                for u, seq in order.items()
            }
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

    def _walk(self, arrows, vec: dict) -> dict:
        """Normal form of the arrows (their word ids, first-applied first)
        applied after vec, a normal form in word ids, through the tables."""
        products = self._products
        for x in arrows:
            out = {}
            for b, c in vec.items():
                vec_axpy(out, c, products[(x, b)])
            vec = out
        return vec

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
                out.extend(self.words[x] for x in self._basis.get((d, uu, vv), ()))
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
        if self.top_degree() is None:
            raise DegreeOverflowError(
                f"no vanishing degree within the window (max_degree={self.max_degree});"
                " cannot certify finite dimensionality"
            )
        return list(self.words)

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
        return {self.words[m]: c for m, c in self._normal_ids(x).items()}

    def _normal_ids(self, x) -> dict:
        out = {}
        for p, c in _as_terms(x).items():
            if self._vanishes(p.length):
                self._check_lives_here(p)
                continue
            if p.length > self.max_degree:
                raise DegreeOverflowError(
                    f"path of length {p.length} exceeds the window {self.max_degree}"
                )
            self._check_lives_here(p)
            seed = {self.word_ids[trivial_path(p.source)]: ONE}
            vec_axpy(out, c, self._walk(map(self.arrow_ids.get, reversed(p.arrows)), seed))
        return out

    def _check_lives_here(self, p: Path) -> None:
        if p.arrows:
            lives = self._arrow_set.issuperset(p.arrows)
        else:
            lives = p.base in self._vertex_set
        if not lives:
            raise ValueError(f"path {p} does not live in this quiver")

    def product(self, x: int, y: int) -> dict:
        """NF(words[x]∘words[y]) in word ids, y applied first; cached.  The
        caller must not mutate the result."""
        result = self._products.get((x, y))
        if result is None:
            bx, by = self.words[x], self.words[y]
            d = self.lengths[x] + self.lengths[y]
            if bx.source != by.target or self._vanishes(d):
                result = {}
            elif d > self.max_degree:
                raise DegreeOverflowError(
                    f"product degree {d} exceeds the window {self.max_degree}"
                )
            else:
                result = self._walk(map(self.arrow_ids.get, reversed(bx.arrows)), {y: ONE})
            self._products[(x, y)] = result
        return result

    def multiply(self, x, y) -> dict:
        """x·y with y applied first; inputs may be paths, combinations, or
        normal-form dicts."""
        nx = self._normal_ids(x)
        ny = self._normal_ids(y)
        out = {}
        for bx, cx in nx.items():
            for by, cy in ny.items():
                vec_axpy(out, cx * cy, self.product(bx, by))
        return {self.words[m]: c for m, c in out.items()}


def transport_word_map(model: AlgebraModel, sigma: QuiverAutomorphism) -> dict | None:
    """σ on the model's basis words that start where σ is defined, or None
    unless σ carries the model there onto the model on its image: each
    basis block's word list, word for word and in order, onto the image
    block's list, and each left table entry NF(a∘b) onto NF(σa∘σb).

    Together these make σ an isomorphism of the truncated models, so it
    keeps basis order, normal forms and products.  On the order-keeping maps
    of ``rooted_isomorphism``, pairing block words by position accepted the
    same maps in every case tried; a map that reorders arrows can pass the
    tables so paired while sending a basis word off the basis.
    """
    words = {}
    for d in range(model.max_degree + 1):
        for u, v in model.blocks(d):
            if u not in sigma.vertices:
                continue
            source = model.basis_paths(d, u, v)
            moved = [sigma.apply(b) for b in source]
            if moved != model.basis_paths(d, sigma.vertices[u], sigma.vertices[v]):
                return None
            words.update(zip(source, moved))
    # tables exist below the first vanishing degree, where both sides are 0
    top = model.top_degree()
    top = model.max_degree if top is None else top
    ids = model.word_ids
    pairs = {ids[b]: ids[moved] for b, moved in words.items()}
    for x, y in pairs.items():
        if model.lengths[x] < top:
            for a in model.quiver.arrows_by_source[model.words[x].target]:
                table = model.product(model.arrow_ids[a], x)
                image = {pairs[w]: c for w, c in table.items()}
                if model.product(model.arrow_ids[sigma.arrows[a]], y) != image:
                    return None
    return words


def _as_terms(x) -> dict:
    if isinstance(x, Path):
        return {x: ONE}
    if isinstance(x, PathCombination):
        return dict(x.items())
    if isinstance(x, dict):
        return {p: as_scalar(c) for p, c in x.items()}
    raise TypeError(f"cannot interpret {type(x).__name__} as an algebra element")


def hilbert_matrix(m: AlgebraModel, cutoff: int) -> dict:
    """(u, v) -> the dimensions of the degree-d basis blocks u -> v for
    d <= cutoff, over the pairs with a nonzero entry, in vertex order."""
    if cutoff < 0:
        raise ValueError(f"cutoff {cutoff} is negative")
    if cutoff > m.max_degree:
        raise ValueError(
            f"cannot truncate a Hilbert matrix on {list(m.quiver.vertices)} with window "
            f"{m.max_degree} at cutoff {cutoff}: the cutoff is past the window"
        )
    out = {}
    for u in m.quiver.vertices:
        for v in m.quiver.vertices:
            dims = [m.dim(d, u, v) for d in range(cutoff + 1)]
            if any(dims):
                out[(u, v)] = dims
    return out
