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
in the product cache in the arrow's row, under b's word id; a normal form
is read off by walking a path's arrows through them, first-applied first.
The first degree in which no word survives ends the construction: every
longer path is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


class CutoffError(ValueError):
    """A truncation cutoff below 0 or past the window it reads."""


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
    words), ``blocks_from[(d, u)]`` lists (v, the ids of block (d, u, v))
    per nonempty block and the by-target index ``blocks_into[(d, v)]``
    lists (u, the same ids), both in vertex order; block queries read them,
    not every vertex pair.  One cache holds the left tables and every
    product computed since (``product``), in one row per word id: row x
    maps y to NF(words[x]∘words[y]), so a caller with a fixed left factor
    reads its row once.  The path-keyed ``normal_form`` and ``multiply``
    convert at its edge.

    A relation r from s gets rows π(r∘b) for the words b of the blocks
    ``blocks_into`` lists at s.  A block's relation rows stop once its span
    has a pivot in every column: each further row lies in that span, so
    the basis and the tables are what every row would give.
    ``normal_pairs`` holds (x, y) for each degree-2 basis word
    words[x]∘words[y]; the other composable pairs of arrows are the
    degree-2 tips.

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
        self.blocks_from, self.blocks_into = {}, {}
        # _left[x][y]: NF(words[x]∘words[y]), one row per word id; filled
        # with the left tables, NF(a∘b) for an arrow a and a basis word b
        # with a∘b of degree below d0, and with every other product once
        # computed
        self._left = []
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
        self._left += [{} for _ in paths]
        ids = self._basis[(d, u, v)] = range(start, len(self.words))
        self.word_ids.update(zip(paths, ids))
        self.blocks_from.setdefault((d, u), []).append((v, ids))
        self.blocks_into.setdefault((d, v), []).append((u, ids))
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
        arrow_position = {a: p for p, a in enumerate(q.arrows)}
        # out_of[v]: (position in q.arrows, target) of each arrow out of v
        out_of = {v: [] for v in q.vertices}
        for p, a in enumerate(q.arrows):
            out_of[a.source].append((p, a.target))
        # relations[k]: (source, target, terms) per relation of length k, a
        # term holding its last arrow's position, its first arrow's row of
        # the product cache, the ids of the arrows between, first-applied
        # first, and its coefficient; split once the arrows have ids
        relations = {}
        left = self._left

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
                    for u, words in self.blocks_into.get((d - k, source), ()):
                        span = spans.get((u, target))
                        if span is None:
                            continue
                        full = len(columns[(u, target)])
                        for b in words:
                            if span.rank == full:
                                break
                            row = {}
                            for p, first, rest, c in terms:
                                walked = first[b]
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
            for key in sorted(columns, key=q.pair_key):
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
                        terms.append((arrow_position[s.arrows[0]], left[tail[0]],
                                      tail[1:], c))
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
                    left[arrow_word[p]][b] = {x: ONE}
                for pivot, row in rows[key].items():
                    p, b = cols[pivot]
                    left[arrow_word[p]][b] = {
                        survivors[j]: -c for j, c in row.items() if j != pivot
                    }
            last = {
                u: [(ids[key][j], key[1]) for key, j in seq if j in ids.get(key, ())]
                for u, seq in order.items()
            }
            d += 1

        # blocks follow the walks, also past d0 where nothing is eliminated
        for d in range(1, self.max_degree + 1):
            self._block_keys[d] = {(u, a.target) for u, v in self._block_keys[d - 1]
                                   for a in q.arrows_by_source[v]}

        for r in self.presentation.relations:
            if r.length <= self.max_degree and self.normal_form(r):
                raise InternalError(f"relation {r} has nonzero normal form")

    def _walk(self, arrows, vec: dict) -> dict:
        """Normal form of the arrows (their word ids, first-applied first)
        applied after vec, a normal form in word ids, through the tables."""
        left = self._left
        for x in arrows:
            row, out = left[x], {}
            for b, c in vec.items():
                vec_axpy(out, c, row[b])
            vec = out
        return vec

    # -- queries ------------------------------------------------------

    def blocks(self, d: int):
        """(u, v) blocks holding a degree-d path, in vertex order."""
        return sorted(self._block_keys.get(d, ()), key=self.quiver.pair_key)

    def all_paths(self, d: int, u: str, v: str) -> list:
        self._check_degree(d)
        return enumerate_paths(self.quiver, d, u, v)

    def dim(self, d: int, u: str, v: str) -> int:
        self._check_degree(d)
        return len(self._basis.get((d, u, v), ()))

    def total_dim(self, d: int) -> int:
        self._check_degree(d)
        return sum(len(ids) for u in self.quiver.vertices
                   for _, ids in self.blocks_from.get((d, u), ()))

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
            seed = {self._basis[(0, p.source, p.source)][0]: ONE}
            vec_axpy(out, c, self._walk(map(self.arrow_ids.get, reversed(p.arrows)), seed))
        return out

    def _check_lives_here(self, p: Path) -> None:
        if p.arrows:
            lives = self._arrow_set.issuperset(p.arrows)
        else:
            lives = p.base in self._vertex_set
        if not lives:
            raise ValueError(f"path {p} does not live in this quiver")

    @cached_property
    def _relations_from(self) -> dict:
        """Per source vertex, in presentation order, the relations that
        ``ideal_breaker`` reads, those no longer than the window and shorter
        than the vanishing degree, each as (r, its terms (the arrows of the
        term's path, first-applied first, and the coefficient))."""
        out = {}
        for r in self.presentation.relations:
            if r.length <= self.max_degree and not self._vanishes(r.length):
                out.setdefault(r.source, []).append(
                    (r, [(p.arrows[::-1], c) for p, c in r.items()]))
        return out

    def product(self, x: int, y: int) -> dict:
        """NF(words[x]∘words[y]) in word ids, y applied first; cached.  The
        caller must not mutate the result."""
        row = self._left[x]
        result = row.get(y)
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
            row[y] = result
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


def moved_normal_form(model: AlgebraModel, sigma: QuiverAutomorphism, p: Path) -> dict:
    """NF(σ(p)) in word ids, for a path p from σ's domain that is shorter
    than the vanishing degree and inside the window: σ(e_v) is e_σ(v), and
    a path of positive length has its arrows moved by σ and walked through
    the tables."""
    if not p.arrows:
        return {model.word_ids[trivial_path(sigma.vertices[p.base])]: ONE}
    return _moved_walk(model, sigma, p.arrows[::-1])


def _moved_walk(model: AlgebraModel, sigma: QuiverAutomorphism, arrows) -> dict:
    """NF(σ(p)) in word ids for the path p of these arrows, first-applied
    first, at least one."""
    ids = [model.arrow_ids[sigma.arrows[a]] for a in arrows]
    return model._walk(ids[1:], {ids[0]: ONE})


def ideal_breaker(model: AlgebraModel, sigma: QuiverAutomorphism):
    """A relation r from σ's domain with NF(σ(r)) != 0, or None when σ keeps
    the ideal.  The relations go in the order σ reached their sources, the
    root's first, and only those no longer than the window and shorter than
    the vanishing degree are read: a longer one lies past the window, or
    moves to paths that vanish as every path of its length does.  Each
    term's path moves as its arrows, first-applied first, which the model
    keeps per source with the relations (``_relations_from``), through the
    walk ``moved_normal_form`` takes."""
    relations = model._relations_from
    for x in sigma.vertices:
        for r, terms in relations.get(x, ()):
            image = {}
            for arrows, c in terms:
                vec_axpy(image, c, _moved_walk(model, sigma, arrows))
            if image:
                return r
    return None


def keeps_model(model: AlgebraModel, sigma: QuiverAutomorphism) -> bool:
    """Whether σ, a quiver isomorphism of the part reached from one vertex
    onto the part reached from another, carries the model on the first part
    onto the model on the second: every block (d, u, w) of its domain has
    the dimension of (d, σu, σw), read from the root outwards, and σ keeps
    the ideal (``ideal_breaker``).

    σ(I) ⊆ I makes the graded map NF(p) -> NF(σ(p)) of the truncated parts
    well defined, σ's bijection of paths makes it onto, and equal block
    dimensions make it bijective, so it keeps normal forms and products."""
    blocks, vmap = model.blocks_from, sigma.vertices
    for u, image in vmap.items():
        for d in range(model.max_degree + 1):
            row, moved = blocks.get((d, u), ()), dict(blocks.get((d, image), ()))
            if len(row) != len(moved) or any(
                    len(moved.get(vmap[w], ())) != len(ids) for w, ids in row):
                return False
    return ideal_breaker(model, sigma) is None


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
        raise CutoffError(f"cutoff {cutoff} is negative")
    if cutoff > m.max_degree:
        raise CutoffError(
            f"cannot truncate a Hilbert matrix on {list(m.quiver.vertices)} with window "
            f"{m.max_degree} at cutoff {cutoff}: the cutoff is past the window"
        )
    out = {}
    for (d, u), row in m.blocks_from.items():
        if d <= cutoff:
            for v, ids in row:
                out.setdefault((u, v), [0] * (cutoff + 1))[d] = len(ids)
    return {key: out[key] for key in sorted(out, key=m.quiver.pair_key)}
