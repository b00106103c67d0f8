"""Minimal graded projective resolutions of the vertex simples.

Everything downstream of the graded basis lives here: Betti numbers and the
linearity verdict, the check that cohomology is generated in low homological
degree, the alternating-sum identity against the Hilbert matrix, dimension
comparison with the quadratic dual, and the side-by-side comparison of an
algebra with a finite covering.

A resolution step presents its projective as runs of generators, each run n
equal (vertex, internal degree) pairs; the differential sends a new
generator to a combination of coordinates, each the int k·W + b for a
previous generator k and a basis word id b, with W = len(model.words).  The
ints sort as the (k, b) pairs do, so spans and solvers pivot on them
directly, and ``divmod(·, W)`` decodes one; no other module sees them.  The
differentials are kept per run of generators, each generator's image a dict
from coordinate to coefficient.  A block where the differential vanishes
gives one run whose images are the block's unit vectors, kept as a
``UnitBatch`` of the block's runs that builds them when first read.
Syzygies are built degreewise per target vertex, and exactness counts each
block, so a kernel is solved (finite exact linear algebra) only where the
arrow images fall short of the count and the differential need not vanish.
Every Betti number with internal degree inside the window is exact; nothing
is claimed past the window.  A quadratic model whose degree-2 tips form a
Gröbner basis needs none of this: ``resolve`` counts its Betti numbers as
Anick chains (``_chain_betti``).

The degree window is the model's ``max_degree``.  The report of ``resolve``
holds the model, so the checks downstream read model and window from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .algebra import (
    AlgebraModel, CutoffError, InternalError, hilbert_matrix, keeps_model, moved_normal_form,
)
from .covering import build_covering, split_sheet
from .linalg import ColumnSolver, EchelonSpan, ONE, ZERO, vec_axpy
from .quiver import QuiverAutomorphism, rooted_isomorphism

KOSZUL_TO_BOUND = "koszul-to-bound"
FAILS_AT = "fails-at"
UNKNOWN_BEYOND_BOUND = "unknown-beyond-bound"


class NotKoszulError(ValueError):
    """A check that needs a ``koszul-to-bound`` verdict got another."""


@dataclass(frozen=True)
class Generator:
    """A free-module generator sitting at a vertex in an internal degree."""

    vertex: str
    degree: int


def _step_blocks(model: AlgebraModel, gens: list, diffs: list) -> dict:
    """The blocks of the free module on a step's generator runs (g, n) past
    degree 0, keyed (D, w): runs (k, n, words, entry), the n generators g
    from index k times a ``blocks_from`` block of basis words into w, in
    generator order, and entry the run's ``diffs`` entry.  One walk reads
    each run once; a block's size is its Σ n·len(words), and only
    ``_run_coords`` builds its coordinates."""
    blocks, k = {}, 0
    for (g, n), entry in zip(gens, diffs):
        for d in range(max(1 - g.degree, 0), model.max_degree - g.degree + 1):
            for w, words in model.blocks_from.get((d, g.vertex), ()):
                blocks.setdefault((g.degree + d, w), []).append((k, n, words, entry))
        k += n
    return blocks


def _run_coords(runs: list, W: int) -> list:
    """A block's coordinates k·W + b, in generator order then canonical
    basis order (the order of the ids), so the list is sorted."""
    return [kk * W + b for k, n, words, _ in runs for kk in range(k, k + n) for b in words]


class UnitBatch:
    """The unit vectors of a block where the differential vanishes, as the
    block's runs (k, n, words, entry), with W = len(model.words) and size
    Σ n·len(words).  It reads as the sequence of their dicts {kk·W + b: 1},
    kk in [k, k + n) and b in words, in that order; they are built when the
    batch is first iterated, as an arrow image or a solved kernel reads it,
    and kept.  As a run's differential the batch gives one generator per
    unit vector, and as an Ω basis one row per unit vector."""

    __slots__ = ("runs", "W", "size", "_units")

    def __init__(self, runs: list, W: int, size: int):
        self.runs, self.W, self.size, self._units = runs, W, size, None

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        if self._units is None:
            self._units = [{c: ONE} for c in _run_coords(self.runs, self.W)]
        return iter(self._units)

    def words(self) -> set:
        """The word ids its unit vectors hold, each once."""
        return {b for _, _, words, _ in self.runs for b in words}


def _diff_image(model: AlgebraModel, entry: dict, b: int) -> dict:
    """Word b times the element entry, both in coordinates k·W + word id:
    the image of the coordinate b*g under a differential entry for g, or
    the arrow multiple b*x of a syzygy vector x.  An entry is a dict from
    coordinate to coefficient.  The products come from b's row of the
    model's product cache, taken once; a word c missing from it goes
    through ``model.product``, which computes and caches NF(b∘c), gives {}
    where it vanishes and raises ``DegreeOverflowError`` past the window."""
    out, W = {}, len(model.words)
    row = model._left[b]
    for key, coef in entry.items():
        c = key % W
        base = key - c
        nf = row.get(c)
        if nf is None:
            nf = model.product(b, c)
        for m, cm in nf.items():
            at = base + m
            s = out.get(at, ZERO) + coef * cm
            if s:
                out[at] = s
            else:
                del out[at]
    return out


class SimpleResolution:
    """Minimal resolution of one vertex simple through step i_max.

    ``gens[i]`` lists the step-i generators as runs (g, n): n generators g
    in a row, one run per block that gains generators, so step i has Σ n of
    them, indexed in run order.  ``diffs[i]`` has one entry per run, its n
    generators' images in order, step 0's the vertex generator's zero
    differential [{}]; a generator is its run and its offset there.  An
    image maps coordinates k·W + b (previous generator index k, word id b of
    the model) to its coefficients.  A run that is the whole kernel of a
    vanishing block is a ``UnitBatch``, which reads as its unit vectors but
    holds only the block's runs.  The Ω bases are written in the same
    coordinates, each block's as runs (a, rows): the rows of arrow a's
    images, or, with a None, a solved kernel or a vanishing block's
    ``UnitBatch``.  Minimality holds by construction: every differential
    coordinate uses a positive-length word, and the model's ``lengths`` give
    each word's length.

    Step i + 1 comes from one pass over the (D, w) blocks of P_i.  Exactness
    of 0 -> Ω^{i+1} -> P_i -> Ω^i -> 0 counts each block of Ω^{i+1} as dim
    P_i - dim Ω^i.  Where the arrow images of Ω^{i+1} one degree down reach
    that count (or it is 0), the independent images are the block's basis
    and no generator sits there; the images lie in that kernel, so once
    their span reaches the count the rest are dependent and are not
    computed.  Only elsewhere is the kernel of d_i solved; its vectors
    independent of the arrow images become generators.  A block whose count
    is its whole size, as no syzygy of step i sits there, is where d_i
    vanishes: its kernel is its unit vectors, taken without solving once
    every column is checked to be zero, and kept as a ``UnitBatch``.  Where
    the arrow images span nothing, the batch is the new run's entry as it
    is; otherwise the unit vectors independent of them are the generators.
    Every coordinate of a new generator, unit or not, is checked to hold a
    word of positive length.  Every differential word has length at least 1,
    so a column whose word is not shorter than the top degree is zero by
    degree and only the shorter ones are multiplied.  Where the arrow images
    are empty, every kernel vector is a generator, with no independence
    test.  ``kernels_computed`` and ``kernels_skipped`` count nonempty
    blocks of either kind, vanishing blocks among the former.

    One walk per step over the runs of equal generators of P_i files each
    run with its entry, once per basis-word length, under the block it
    reaches, from the model's ``blocks_from`` table (``_step_blocks``), and
    the pass visits those blocks in (D, vertex) order.  A block's size is a
    count over its runs, so a block that is skipped or filled by arrow
    images never builds a coordinate; ``_kernel`` builds them only where it
    solves a kernel, and a ``UnitBatch`` only when first read, which never
    happens on a radical-square-zero algebra.  A unit batch's minimality
    check reads the length of each of its block's words, once per word.
    Each visit takes its Ω^i block out of the previous pass's bases, so a
    block of Ω^i left over at the end of a step, which sits where P_i has no
    coordinate, is an ``InternalError``; a visited block where Ω^i outgrows
    P_i fails ``_kernel``'s dimension check.  Spans and solvers take the
    coordinates as they are.  An arrow image is built for its span, which
    keeps it as an echelon row: the block's Ω basis is those rows, which
    span what the independent images span, prefix by prefix.  The images x·a
    of normal pairs go first: x a kernel row, or a row of an arrow t with
    a∘t a degree-2 basis word (the model's ``normal_pairs``).  The images of
    tips a∘t follow, in the same order; they lie in the span more often, so
    fewer images are built.  The order changes no output: a block that
    reaches its count holds its whole syzygy block whatever rows span it,
    and one that falls short has tried every image, so its span, and with it
    the kernel and the generators, is the arrow multiples of Ω^{i+1} one
    degree down either way.  A block's new generators are added as one
    batch, one run of a shared ``Generator``.  Their largest coordinates are
    distinct, each with coefficient 1: a solved kernel vector's is its own
    dependent column, a unit generator's is its one coordinate, and the span
    keeps a subset of them.

    ``resolved_from`` is the vertex whose resolution was computed: this
    one's own, or, for a ``relabelled`` copy, its source's.
    """

    def __init__(self, model: AlgebraModel, vertex: str, i_max: int):
        if i_max < 0:
            raise ValueError("homological bound must be nonnegative")
        self.model = model
        self.vertex = self.resolved_from = vertex
        self.gens = [[(Generator(vertex, 0), 1)]]
        self.diffs = [[[{}]]]
        self.kernels_computed = self.kernels_skipped = 0
        q, lengths, W = model.quiver, model.lengths, len(model.words)
        # (arrow word id, source) of each arrow into a vertex; a window that
        # stops at degree 0 has no arrow words, and no degree reads them
        into = {}
        if model.max_degree:
            into = {w: [(model.arrow_ids[a], a.source) for a in q.arrows_by_target[w]]
                    for w in q.vertices}
        normal = model.normal_pairs
        # a basis of Ω^{i+1} per (D, w) in P_i coordinates, as runs
        # (arrow or None, rows); Ω^0 sits in degree 0
        omega = {}
        for i in range(i_max):
            image, omega, gens, diffs = omega, {}, [], []
            blocks = _step_blocks(model, self.gens[i], self.diffs[i])
            for D, w in sorted(blocks, key=lambda key: (key[0], q.vertex_index(key[1]))):
                block = blocks[D, w]
                size = sum(n * len(words) for _, n, words, _ in block)
                nullity = size - sum(len(rows) for _, rows in image.pop((D, w), ()))
                if not nullity:
                    self.kernels_skipped += 1
                    continue
                # the arrow images x·a of Ω one degree down, in runs:
                # normal pairs first, then the tips a∘t
                first, later = [], []
                for a, u in into[w]:
                    for t, rows in omega.get((D - 1, u), ()):
                        (first if t is None or (a, t) in normal else later).append((a, rows))
                span, runs = EchelonSpan(), []
                for a, rows in first + later:
                    kept = []
                    for x in rows:
                        if row := span._add(_diff_image(model, x, a)):
                            kept.append(row)
                            if span.rank == nullity:
                                break
                    if kept:
                        runs.append((a, kept))
                    if span.rank == nullity:
                        break
                if span.rank == nullity:
                    self.kernels_skipped += 1
                    omega[(D, w)] = runs
                    continue
                self.kernels_computed += 1
                basis = self._kernel(i, D, w, block, nullity)
                omega[(D, w)] = [(None, basis)]
                # a vanishing block's kernel is its unit vectors
                units = type(basis) is UnitBatch
                # the new generators: kernel vectors independent of the
                # arrow images, every one where the images span nothing;
                # diffs keeps them, so the span gets copies
                if span.rank:
                    basis = [x for x in basis if span.add(x)]
                if not basis:
                    continue
                if D <= i:
                    raise InternalError(
                        f"step {i + 1} generator in degree {D}, below its step"
                    )
                # a unit batch's words are its block's, read per word
                ids = (chain.from_iterable(words for _, _, words, _ in block) if units
                       else (key % W for key in chain.from_iterable(basis)))
                if any(lengths[b] == 0 for b in ids):
                    raise InternalError(
                        f"step {i + 1} generator in degree {D} has a"
                        " non-minimal column"
                    )
                gens.append((Generator(w, D), len(basis)))
                diffs.append(basis)
            if image:
                D, w = next(iter(image))
                raise InternalError(
                    f"step {i}: Ω^{i} has a block in degree {D} at vertex {w},"
                    f" where P_{i} has no coordinate"
                )
            self.gens.append(gens)
            self.diffs.append(diffs)

    def _kernel(self, i: int, D: int, w: str, block: list, nullity: int):
        """Kernel of d_i on the (D, w) block of P_i, given by its runs
        (k, n, words, entry), one vector per dependent column, in column
        order; a run's n generators read their images from its entry.

        Where exactness counts the whole block (at step 0 that is the
        radical of P_0), d_i vanishes on it: the kernel is the block's unit
        vectors, the order solving gives for zero columns, returned as a
        ``UnitBatch`` of the block's runs.  Only that every column is zero
        is checked, on the columns whose word is shorter than the top degree
        (every column without one).  Over a run whose entry is a
        ``UnitBatch`` a column is b·c, for its word b and the word c of the
        generator's unit coordinate, shifted, so each pair (b, c) is
        multiplied once per run, whatever its length.  Only a solved block
        builds its coordinates.  Its rows are the P_{i-1} coordinates, below
        Σ n·W over the runs of gens[i-1], and its kernel vectors are dicts."""
        model, W = self.model, len(self.model.words)
        size = sum(n * len(words) for _, n, words, _ in block)
        if nullity == size:
            top, lengths = model.top_degree(), model.lengths
            for _, _, words, entry in block:
                shorter = words if top is None else [b for b in words if lengths[b] < top]
                if not shorter:
                    continue
                # the vertex generator's image {} has zero columns
                columns = ((model.product(b, c) for c in entry.words() for b in shorter)
                           if type(entry) is UnitBatch else
                           (_diff_image(model, e, b) for e in entry if e for b in shorter))
                if any(columns):
                    raise InternalError(
                        f"step {i} differential is nonzero in degree {D} at vertex"
                        f" {w}, where exactness makes it vanish"
                    )
            return UnitBatch(block, W, size)
        coords = _run_coords(block, W)
        solver = ColumnSolver(sum(n for _, n in self.gens[i - 1]) * W)
        kernel = []
        for _, _, words, entry in block:
            for e in entry:
                for b in words:
                    vec = solver._add_column(_diff_image(model, e, b))
                    if vec is not None:
                        kernel.append({coords[p]: c for p, c in vec.items()})
        if len(kernel) != nullity:
            raise InternalError(
                f"step {i} kernel in degree {D} at vertex {w} has"
                f" dimension {len(kernel)}, exactness gives {nullity}"
            )
        return kernel

    def relabelled(self, sigma) -> "SimpleResolution":
        """The resolution of sigma(vertex) read off this one, with the
        generators' vertices moved by sigma, a map that ``keeps_model``
        accepts.  sigma is an isomorphism of the parts of the algebra reached
        from vertex and from its image, all either resolution reads, so the
        image is minimal too.  Its generator runs keep their lengths, each
        run's vertex moved; its differentials are built when first read."""
        out = object.__new__(SimpleResolution)
        out.model, out.resolved_from = self.model, self.resolved_from
        out.vertex = sigma.vertices[self.vertex]
        out.gens = [[(Generator(sigma.vertices[g.vertex], g.degree), n) for g, n in step]
                    for step in self.gens]
        out.kernels_computed = out.kernels_skipped = 0
        out._moved_by = (self, sigma)
        return out

    @cached_property
    def diffs(self) -> list:
        """A relabelled copy's differentials: its source's, each coordinate
        k·W + b replaced by k·W + NF(σ(words[b])), which may be a combination.
        Each run, a ``UnitBatch`` too, is read image by image and each is
        moved, so a copy's run is a list of the run's length."""
        (source, sigma), model, W = self._moved_by, self.model, len(self.model.words)

        def move(entry):
            vec = {}
            for key, c in entry.items():
                k, b = divmod(key, W)
                moved = moved_normal_form(model, sigma, model.words[b])
                vec_axpy(vec, c, {k * W + m: cm for m, cm in moved.items()})
            return vec
        return [[[move(entry) for entry in run] for run in step] for step in source.diffs]


@dataclass(frozen=True)
class KoszulVerdict:
    """Linearity verdict over a window; witness is the failing (step, degree)."""

    status: str
    witness: tuple | None = None

    def __str__(self) -> str:
        if self.status == FAILS_AT:
            return f"{FAILS_AT}({self.witness[0]},{self.witness[1]})"
        return self.status


class ResolutionReport:
    """Bundle of per-simple resolutions with the derived numerics.

    ``transported`` names the simples whose resolution was relabelled from
    another simple's rather than computed.  The Betti numbers are read off
    each step's generator runs, or, for a ``certified`` report, given as
    chain counts with no resolution behind them; the totals per (step,
    degree) and per step are summed once, here.
    """

    def __init__(self, model: AlgebraModel, i_max: int, per_simple: dict,
                 transported=frozenset(), betti: dict | None = None):
        self.model = model
        self.i_max = i_max
        self.simples = model.quiver.vertices
        self.per_simple = per_simple
        self.transported = frozenset(transported)
        self.certified = betti is not None
        if betti is None:
            betti = {}
            for u in self.simples:
                for i, runs in enumerate(per_simple[u].gens):
                    for g, n in runs:
                        key = (u, i, g.degree, g.vertex)
                        betti[key] = betti.get(key, 0) + n
        self.betti = betti
        self._totals, self._step_totals = {}, {}
        for (_, i, d, _), n in self.betti.items():
            self._totals[(i, d)] = self._totals.get((i, d), 0) + n
            self._step_totals[i] = self._step_totals.get(i, 0) + n

    @cached_property
    def arrow_ranks(self) -> list:
        """Per step i < i_max, the rank of the arrow parts of all the simples'
        step-(i+1) differential columns (``generation_check``): certified, the
        step total, as a minimal linear resolution's columns are independent
        and hold only arrow words; else each resolved simple's ranks
        (``_arrow_ranks``), which a transported simple repeats."""
        if self.certified:
            return [self.ext_total(i + 1) for i in range(self.i_max)]
        sources = [self.per_simple[u].resolved_from for u in self.simples]
        ranks = {v: _arrow_ranks(self.per_simple[v], self.i_max) for v in dict.fromkeys(sources)}
        return [sum(ranks[v][i] for v in sources) for i in range(self.i_max)]

    @property
    def d_max(self) -> int:
        return self.model.max_degree

    def betti_total(self, i: int, d: int) -> int:
        return self._totals.get((i, d), 0)

    def first_failure(self) -> tuple | None:
        """Earliest (step, degree) with an off-diagonal Betti number."""
        return min((key for key in self._totals if key[0] != key[1]), default=None)

    def verdict(self) -> KoszulVerdict:
        fail = self.first_failure()
        if fail is not None:
            return KoszulVerdict(FAILS_AT, fail)
        if self.d_max >= self.i_max:
            return KoszulVerdict(KOSZUL_TO_BOUND)
        return KoszulVerdict(UNKNOWN_BEYOND_BOUND)

    def ext_total(self, i: int) -> int:
        return self._step_totals.get(i, 0)

    def ext_totals(self) -> list:
        return [self.ext_total(i) for i in range(self.i_max + 1)]


def _chain_betti(model: AlgebraModel, i_max: int) -> dict | None:
    """The Betti table through step i_max as Anick chain counts, when the
    model certifies its degree-2 tips as a Gröbner basis; else None.

    The certificate needs relations of length 2 only and a window through
    degree 3.  T holds the composable arrow pairs (a, t), t applied first,
    whose word a∘t is no degree-2 basis word (``normal_pairs``).  A word
    with a factor in T is a tip, so per block dim A_3 is at most the number
    of length-3 paths with no pair in T; equality in every block means T
    gives every tip of degree 3.  A quadratic algebra's overlaps have length
    3, so T is then a Gröbner basis (Bergman's diamond lemma): A is PBW,
    hence Koszul (Priddy 1970), and its Anick resolution is linear and
    minimal.  Its n-chains are the length-n paths whose consecutive pairs
    all lie in T, so β(u, n, n, w) counts those from u to w (Anick 1986;
    Green, Solberg and Zacharia 2001) for n up to the window, and no other
    entry is nonzero.

    The tips are the model's, so its order must be a monomial order on the
    words of one length (Green, "Noncommutative Gröbner bases, and
    projective resolutions").  Columns a∘b are ordered by b, then by a in
    the quiver's arrow order: by induction on the length, lexicographic
    order from the first-applied arrow.  A pivot is its row's smallest
    column, so a tip is the largest word in the reverse order.  Both orders
    are total on the words of one length and kept by composing with a path
    on either side, which keeps the first position where two words differ.

    The counts run over (start vertex, last arrow); no chain is listed.
    """
    q, ids, normal = model.quiver, model.arrow_ids, model.normal_pairs
    if model.max_degree < 3 or any(r.length != 2 for r in model.presentation.relations):
        return None
    # after[t]: the arrows a with (a, t) in T; free[t]: the other arrows after t
    after, free = {}, {}
    for t in q.arrows:
        for a in q.arrows_by_source[t.target]:
            (free if (ids[a], ids[t]) in normal else after).setdefault(t, []).append(a)
    avoiding = {}
    for t in q.arrows:
        for b in free.get(t, ()):
            for a in free.get(b, ()):
                avoiding[t.source, a.target] = avoiding.get((t.source, a.target), 0) + 1
    if avoiding != {(u, v): len(words) for (d, u), row in model.blocks_from.items()
                    if d == 3 for v, words in row}:
        return None
    betti = {(u, 0, 0, u): 1 for u in q.vertices}
    chains = {(a.source, a): 1 for a in q.arrows}
    for n in range(1, min(i_max, model.max_degree) + 1):
        if n > 1:
            longer = {}
            for (u, t), c in chains.items():
                for a in after.get(t, ()):
                    longer[u, a] = longer.get((u, a), 0) + c
            chains = longer
        for (u, a), c in chains.items():
            betti[u, n, n, a.target] = betti.get((u, n, n, a.target), 0) + c
    return betti


def resolve(model: AlgebraModel, i_max: int) -> ResolutionReport:
    """Resolve every vertex simple through step i_max.

    A model that certifies its degree-2 tips as a Gröbner basis gets a
    ``certified`` report of chain counts (``_chain_betti``) and no
    resolution; what follows is about every other model.

    Resolving S_v reads only the part of the algebra on the vertices reached
    from v.  After resolving S_v, each unresolved simple S_t whose part is
    isomorphic to v's gets v's resolution relabelled instead: the
    ``rooted_isomorphism`` from v to t, which may reorder arrows, must carry
    the model on v's part onto the model on t's (``keeps_model``).  A
    covering's deck group moves simples this way, even when the covering
    falls apart into pieces, and so do the leaf swaps of a star.  Each map
    is checked once, keyed by its vertex map (it forces the arrows).

    A vertex t is not searched when its blocks per degree have other
    dimensions than v's, which ``keeps_model`` would refuse, or when an
    accepted map sends a refused vertex s to it.  The search commutes with
    a map that keeps the order of the arrows leaving each vertex, as a deck
    map does, so its map onto t is then the accepted map after the refused
    one.  A skip costs at most a transport, never an answer.

    The accepted maps from v are closed under composition, with no further
    search or check.  The composite τ∘ρ of two of them is defined when ρ(v)
    lies in τ's domain; its vertex and arrow maps are τ's after ρ's.  The
    part reached from ρ(v) is closed under out-arrows, so τ still keeps the
    ideal and the block dimensions there, and so does the composite.  On a
    covering, a deck map within v's piece and one onto each other piece
    serve every sheet.
    """
    if i_max < 0:
        raise ValueError("homological bound must be nonnegative")
    betti = _chain_betti(model, i_max)
    if betti is not None:
        return ResolutionReport(model, i_max, {}, betti=betti)
    q, blocks = model.quiver, model.blocks_from
    simples, transported, verdicts = {}, set(), {}
    # the sorted block dimensions from each vertex, per degree
    shape = {x: [sorted(len(ids) for _, ids in blocks.get((d, x), ()))
                 for d in range(model.max_degree + 1)] for x in q.vertices}
    for v in q.vertices:
        if v in simples:
            continue
        res = simples[v] = SimpleResolution(model, v, i_max)
        accepted, refused = [], []
        for t in q.vertices:
            if t in simples or shape[t] != shape[v] or any(
                    tau.vertices.get(s) == t for tau in accepted for s in refused):
                continue
            sigma = rooted_isomorphism(q, v, t)
            key = None if sigma is None else frozenset(sigma.vertices.items())
            if key is not None and key not in verdicts:
                verdicts[key] = keeps_model(model, sigma)
            if not verdicts.get(key):
                refused.append(t)
                continue
            simples[t] = res.relabelled(sigma)
            transported.add(t)
            pending = [sigma]
            while pending:
                new = pending.pop()
                accepted.append(new)
                for old in accepted:
                    for tau, rho in ((new, old), (old, new)):
                        u = tau.vertices.get(rho.vertices[v])
                        if u is None or u in simples:
                            continue
                        composite = QuiverAutomorphism(
                            {x: tau.vertices[y] for x, y in rho.vertices.items()},
                            {a: tau.arrows[b] for a, b in rho.arrows.items()},
                        )
                        simples[u] = res.relabelled(composite)
                        transported.add(u)
                        pending.append(composite)
    return ResolutionReport(
        model, i_max, {v: simples[v] for v in q.vertices}, transported,
    )


def resolution_sizes(*reports: ResolutionReport) -> dict:
    """Simples resolved, relabelled and certified, and over the resolved ones
    the blocks whose syzygy kernel was solved or only counted; and the
    generators of every step and the runs that hold them, a certified
    report's Betti numbers and its entries."""
    resolutions = [res for r in reports for u, res in r.per_simple.items()
                   if u not in r.transported]
    runs = [n for res in resolutions for step in res.gens for _, n in step]
    runs += [n for r in reports if r.certified for n in r.betti.values()]
    return {
        "simples_resolved": len(resolutions),
        "simples_transported": sum(len(r.transported) for r in reports),
        "simples_certified": sum(len(r.simples) for r in reports if r.certified),
        "kernels_computed": sum(res.kernels_computed for res in resolutions),
        "kernels_skipped": sum(res.kernels_skipped for res in resolutions),
        "generators": sum(runs),
        "generator_runs": len(runs),
    }


class ExtAlgebra:
    """Cohomology of the semisimple quotient, as far as the generation check
    reads it: step i has one class per step-i generator of the simples'
    resolutions, so its dimension is the report's Betti total."""

    def __init__(self, report: ResolutionReport):
        self.report = report
        self.i_max = report.i_max

    def ext_dim(self, i: int) -> int:
        if not (0 <= i <= self.i_max):
            raise ValueError(f"step {i} outside the window 0..{self.i_max}")
        return self.report.ext_total(i)


@dataclass
class GenerationReport:
    """Whether step-1 classes multiply each step onto the next, per step."""

    passed: bool
    checked_to: int
    first_failure_i: int | None
    steps: list  # (i, achieved, required)


def _arrow_ranks(res: SimpleResolution, i_max: int) -> list:
    """Per step i < i_max, the rank of the arrow parts of one resolution's
    step-(i+1) differential columns: the number of columns whose largest
    coordinate holds an arrow word.  A ``UnitBatch`` is counted by its runs
    (k, n, words, entry), n times the arrow words, with no column read.

    The count is exact because of how ``SimpleResolution`` builds its
    generators.  Coordinates k·W + b sort by generator index k, and
    generators come in ascending degree; in block (D, w) a coordinate's
    word has length D - deg(g_k), so the arrow coordinates are those of the
    degree-(D - 1) generators, and minimality (no word of length 0) leaves
    no coordinate above them.  A solved kernel vector has coefficient 1 at
    its own dependent column, its largest coordinate since ``ColumnSolver``
    tags only earlier columns; a unit generator has one coordinate; and
    filtering by the arrow-image span keeps a subset.  So a block's
    generators have distinct largest coordinates.  Where that coordinate is
    an arrow, the arrow part has a 1 there, and these parts are in echelon
    form by it, hence independent; elsewhere every coordinate has length at
    least 2 and the arrow part is 0.  Blocks have disjoint arrow
    coordinates, so the step's rank is the sum of the blocks' counts.  A
    transported copy's rank is its source's, because σ sends arrows to
    arrows, so only resolved simples are ranked.
    """
    lengths, W = res.model.lengths, len(res.model.words)
    ranks = []
    for step in res.diffs[1:i_max + 1]:
        rank = 0
        for run in step:
            if type(run) is UnitBatch:
                for _, n, words, _ in run.runs:
                    rank += n * sum(lengths[b] == 1 for b in words)
            else:
                for x in run:
                    if lengths[max(x) % W] == 1:
                        rank += 1
        ranks.append(rank)
    return ranks


def generation_check(ext: ExtAlgebra) -> GenerationReport:
    """Check the cohomology ring is generated in homological degrees 0 and 1.

    For each step i below the bound, products of the step-i basis with the
    step-1 basis must span step i+1.  The product of the step-i class dual
    to generator k with the step-1 class dual to arrow a takes, at step-(i+1)
    generator g, the coefficient of (k, a) in the differential of g: lifting
    the first factor one step solves d_1 φ = ξ d_{i+1}, and since the kernel
    of d_1 lies in the radical of P_1, the unit coordinates of φ are those
    arrow coefficients.  The products therefore span step i+1 exactly when
    the arrow parts of the step-(i+1) differential columns are independent.
    Their rank is a count, the columns whose largest coordinate holds an
    arrow word (``_arrow_ranks`` says why).

    With all simples resolved side by side, their columns sit at disjoint
    offsets, so that rank is the sum of one rank per simple, with no lift;
    the report holds it (``arrow_ranks``).
    """
    report = ext.report
    steps = []
    first_fail = None
    for i, achieved in enumerate(report.arrow_ranks):
        required = report.ext_total(i + 1)
        steps.append((i, achieved, required))
        if achieved != required and first_fail is None:
            first_fail = i
    return GenerationReport(first_fail is None, ext.i_max, first_fail, steps)


def hilbert_euler_check(report: ResolutionReport, cutoff: int):
    """Alternating Betti matrix times the Hilbert matrix must be the identity.

    Valid through min(degree bound, homological bound): beyond that steps
    whose contribution would matter are missing.  A cutoff below 0 would
    compare two empty truncations; both raise ``CutoffError``.  Returns
    (ok, witness) with the witness (u, v, d, got, want) at the first entry
    and degree, in label order, where the product is not the identity;
    only the positions reached by a Hilbert row or on the diagonal can be.
    """
    limit = min(report.d_max, report.i_max)
    if cutoff > limit:
        raise CutoffError(f"cutoff {cutoff} exceeds the certified window {limit}")
    labels = report.simples
    # euler[u][w]: degree d -> the sum over i of (-1)^i β(u, i, d, w)
    euler = {u: {} for u in labels}
    for (u, i, d, w), count in report.betti.items():
        if d <= cutoff:
            terms = euler[u].setdefault(w, {})
            terms[d] = terms.get(d, 0) + (count if i % 2 == 0 else -count)
    hilbert_rows = {}
    for (w, v), dims in hilbert_matrix(report.model, cutoff).items():
        hilbert_rows.setdefault(w, []).append((v, dims))
    zero = [0] * (cutoff + 1)
    for u in labels:
        row = {}
        for w, terms in euler[u].items():
            for v, dims in hilbert_rows.get(w, ()):
                entry = row.setdefault(v, list(zero))
                for d, x in terms.items():
                    for k in range(cutoff + 1 - d):
                        entry[d + k] += x * dims[k]
        for v in sorted(row.keys() | {u}, key=report.model.quiver.vertex_index):
            for d, got in enumerate(row.get(v, zero)):
                want = int(u == v and d == 0)
                if got != want:
                    return False, (u, v, d, got, want)
    return True, None


def koszul_duality_dim_check(dual_model: AlgebraModel, report: ResolutionReport):
    """Cohomology dimensions must match the quadratic dual's graded dimensions.

    Requires a clean linearity verdict first; compares totals step by step
    through the window both sides can see.  Returns (ok, witness) with the
    witness holding (step, cohomology total, dual total).
    """
    v = report.verdict()
    if v.status != KOSZUL_TO_BOUND:
        raise NotKoszulError(f"duality dimension check needs {KOSZUL_TO_BOUND}, got {v}")
    top = min(report.i_max, dual_model.max_degree)
    for i in range(top + 1):
        got = report.ext_total(i)
        want = dual_model.total_dim(i)
        if got != want:
            return False, (i, got, want)
    return True, None


@dataclass
class CoveringTheoremReport:
    """Side-by-side comparison of an algebra with one of its finite coverings."""

    passed: bool
    group_order: int
    base_verdict: KoszulVerdict
    cover_verdict: KoszulVerdict
    mismatches: list
    sizes: dict = field(default_factory=dict, compare=False)  # resolution_sizes


def theorem_covering_check(presentation, group, weights, i_max: int,
                           d_max: int) -> CoveringTheoremReport:
    """Resolve an algebra and its covering and compare the outcomes.

    The verdicts must agree including the failure witness, and every Betti
    total of the covering must be the group order times the base total.
    Per cover simple v|g the Betti numbers push down: summed over the
    sheets h, β_C(v|g, i, d, w|h) must be β_A(v, i, d, w), so a generator
    moved between target vertices fails even where the totals hold.
    """
    base_model = AlgebraModel(presentation, d_max)
    cover = build_covering(presentation, group, weights)
    cover_model = AlgebraModel(cover, d_max)
    base_report = resolve(base_model, i_max)
    cover_report = resolve(cover_model, i_max)
    bv = base_report.verdict()
    cv = cover_report.verdict()
    mismatches = []
    if (bv.status, bv.witness) != (cv.status, cv.witness):
        mismatches.append(("verdict", str(bv), str(cv)))
    n = group.order
    for i in range(i_max + 1):
        for d in range(d_max + 1):
            want = base_report.betti_total(i, d) * n
            got = cover_report.betti_total(i, d)
            if want != got:
                mismatches.append(("betti", i, d, got, want))
    for i in range(i_max + 1):
        want = base_report.ext_total(i) * n
        got = cover_report.ext_total(i)
        if want != got:
            mismatches.append(("ext", i, got, want))
    # per cover simple and base vertex w, summed over the sheets of w
    pushed, base = {}, {}
    for (u, i, d, x), count in cover_report.betti.items():
        at = pushed.setdefault(u, {})
        key = (i, d, split_sheet(x)[0])
        at[key] = at.get(key, 0) + count
    for (v, i, d, w), count in base_report.betti.items():
        base.setdefault(v, {})[(i, d, w)] = count
    bq = base_model.quiver
    for u in cover_report.simples:
        have, need = pushed.get(u, {}), base.get(split_sheet(u)[0], {})
        for key in sorted(have.keys() | need.keys(),
                          key=lambda k: (k[0], k[1], bq.vertex_index(k[2]))):
            got, want = have.get(key, 0), need.get(key, 0)
            if got != want:
                mismatches.append(("betti_vertex", u, *key, got, want))
    return CoveringTheoremReport(
        not mismatches, n, bv, cv, mismatches,
        resolution_sizes(base_report, cover_report),
    )
