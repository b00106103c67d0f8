"""Minimal graded projective resolutions of the vertex simples.

Everything downstream of the graded basis lives here: Betti numbers and the
linearity verdict, the check that cohomology is generated in low homological
degree, the alternating-sum identity against the Hilbert matrix, dimension
comparison with the quadratic dual, and the side-by-side comparison of an
algebra with a finite covering.

A resolution step presents its projective as a list of generators, each a
(vertex, internal degree) pair; the differential sends a new generator to a
combination of coordinates, each the int k·W + b for a previous generator
k and a basis word id b, with W = len(model.words).  The ints sort as the
(k, b) pairs do, so spans and solvers pivot on them directly, and
``divmod(·, W)`` decodes one; no other module sees them.  A generator whose
image is a single coordinate with coefficient 1, as every generator of a
block where the differential vanishes is, stores that coordinate itself,
the int, in place of a one-entry dict.  Syzygies are
built degreewise per target vertex, and exactness counts each block, so a
kernel is solved (finite exact linear algebra) only where the arrow images
fall short of the count and the differential need not vanish.  Every Betti
number with internal degree inside the window is exact; nothing is claimed
past the window.

The degree window is the model's ``max_degree``.  The report of ``resolve``
holds the model, so the checks downstream read model and window from it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat

from .algebra import AlgebraModel, InternalError, hilbert_matrix, transport_word_map
from .covering import build_covering
from .linalg import ColumnSolver, EchelonSpan, ONE, ZERO
from .quiver import rooted_isomorphism

KOSZUL_TO_BOUND = "koszul-to-bound"
FAILS_AT = "fails-at"
UNKNOWN_BEYOND_BOUND = "unknown-beyond-bound"


@dataclass(frozen=True)
class Generator:
    """A free-module generator sitting at a vertex in an internal degree."""

    vertex: str
    degree: int


def _degree_coords(model: AlgebraModel, gens: list, D: int, window: range) -> dict:
    """Coordinates of the degree-D component of a free module, per target
    vertex w: k·W + b for each generator k and basis word b into w, in
    generator order then canonical basis order (the order of the ids), so
    each list is sorted.

    ``window`` limits the walk to a range of generator indices, which must
    hold every generator with a basis path into degree D.  A vertex no
    coordinate reaches has no entry.  Equal generators in a row, as a step's
    batches are, share their basis words, so each run is read once.
    """
    out, W = {}, len(model.words)
    k = window.start
    for g, run in groupby(gens[k:window.stop]):
        n = len(list(run))
        for w, words in model.blocks_from.get((D - g.degree, g.vertex), ()):
            out.setdefault(w, []).extend(
                kk * W + b for kk in range(k, k + n) for b in words)
        k += n
    return out


def _diff_image(model: AlgebraModel, entry, b: int) -> dict:
    """Word b times the element entry, both in coordinates k·W + word id:
    the image of the coordinate b*g under a differential entry for g, or
    the arrow multiple b*x of a syzygy vector x.  An entry is a dict from
    coordinate to coefficient, or a unit vector stored as its coordinate,
    an int.  The products come from the model's cache, keyed by pairs of
    word ids."""
    out, W = {}, len(model.words)
    product = model.product
    # the try costs the dict path nothing; the slower except branch is
    # rare, as most blocks over a unit batch are skipped or zero by degree
    try:
        items = entry.items()
    except AttributeError:
        items = ((entry, ONE),)
    for key, coef in items:
        c = key % W
        base = key - c
        for m, cm in product(b, c).items():
            at = base + m
            s = out.get(at, ZERO) + coef * cm
            if s:
                out[at] = s
            else:
                del out[at]
    return out


class SimpleResolution:
    """Minimal resolution of one vertex simple through step i_max.

    ``gens[i]`` lists the step-i generators; ``diffs[i][j]`` maps coordinates
    k·W + b (previous generator index k, word id b of the model) to the
    coefficient with which they appear in the image of generator j, or is
    that coordinate itself, an int, where the image is its unit vector.
    The Ω bases are written in the same coordinates, a vanishing block's
    as its list of ints.  Minimality holds by construction: every
    differential coordinate uses a positive-length word, and the model's
    ``lengths`` give each word's length.

    Step i + 1 comes from one pass over the (D, w) blocks of P_i.  Exactness
    of 0 -> Ω^{i+1} -> P_i -> Ω^i -> 0 counts each block of Ω^{i+1} as
    dim P_i - dim Ω^i.  Where the arrow images of Ω^{i+1} one degree down
    reach that count (or it is 0), the independent images are the block's
    basis and no generator sits there; the images lie in that kernel, so
    once their span reaches the count the rest are dependent and are not
    computed.  Only elsewhere is the kernel of d_i solved; its vectors
    independent of the arrow images become generators.  A block whose count
    is its whole size, as no syzygy of step i sits there, is where d_i
    vanishes: its kernel is its unit vectors, taken without solving once
    every column is checked to be zero, and kept as the block's coordinate
    list, one int per unit vector (a unit batch).  Every coordinate of a new
    generator, unit or not, is checked to hold a word of positive length.
    Every differential word has length at least 1, so a column whose word
    is not shorter than the top degree is zero by degree and only the
    shorter ones are multiplied.  Where the arrow images are empty, every
    kernel vector is a generator, with no independence test.  ``kernels_computed`` and ``kernels_skipped`` count
    nonempty blocks of either kind, vanishing blocks among the former.

    Generators come in ascending degree and no basis path is longer than the
    model's top degree, so degree D reads only the generators in degrees
    D - top to D (every one up to D if the window shows no top degree).
    One walk over them per step and degree builds the coordinates of every
    vertex's block, from the model's ``blocks_from`` table.  The loop
    visits only the blocks that walk reaches: a degree with no coordinate
    is passed over whole, and so is a vertex with none, as such a block
    has no syzygy.  Each visit takes its Ω^i block out of the previous
    pass's bases, so a block of Ω^i left over at the end of a step, which
    sits where P_i has no coordinate, is an ``InternalError``; a visited
    block where Ω^i outgrows P_i fails ``_kernel``'s dimension check.
    Spans and solvers take the coordinates as they are.  An arrow image is
    built for its span, which keeps it as an echelon row: the block's Ω
    basis is those rows, which span what the independent images span,
    prefix by prefix.  Each such row remembers the arrow of its image.
    The images x·a of normal pairs go first: x a kernel row, or a row made
    by an arrow t with a∘t a degree-2 basis word (the model's
    ``normal_pairs``).  The images of tips a∘t follow, in the same order;
    they lie in the span more often, so fewer images are built.  The
    order changes no output: a block that reaches its count holds its
    whole syzygy block whatever rows span it, and one that falls short
    has tried every image, so its span, and with it the kernel and the
    generators, is the arrow multiples of Ω^{i+1} one degree down either
    way.  A block's new generators are added as one batch and share one
    ``Generator``.

    ``resolved_from`` is the vertex whose resolution was computed: this
    one's own, or, for a ``relabelled`` copy, its source's.
    """

    def __init__(self, model: AlgebraModel, vertex: str, i_max: int):
        if i_max < 0:
            raise ValueError("homological bound must be nonnegative")
        self.model = model
        self.vertex = self.resolved_from = vertex
        self.gens = [[Generator(vertex, 0)]]
        self.diffs = [[]]
        self.kernels_computed = self.kernels_skipped = 0
        q, lengths, W = model.quiver, model.lengths, len(model.words)
        top = model.top_degree()
        # (arrow word id, source) of each arrow into a vertex; a window that
        # stops at degree 0 has no arrow words, and no degree reads them
        into = {}
        if model.max_degree:
            into = {w: [(model.arrow_ids[a], a.source) for a in q.arrows_by_target[w]]
                    for w in q.vertices}
        normal = model.normal_pairs
        # a basis of Ω^{i+1} per (D, w) in P_i coordinates; Ω^0 sits in degree
        # 0; made[(D, w)] cuts an image block's basis, in order, into runs
        # (t, rows) of rows made by one arrow t
        omega = {}
        for i in range(i_max):
            image, omega, made = omega, {}, {}
            gens, diffs = [], []
            degrees = [g.degree for g in self.gens[i]]
            for D in range(1, model.max_degree + 1):
                # the generators with a basis path into degree D
                window = range(
                    0 if top is None else bisect_left(degrees, D - top),
                    bisect_right(degrees, D),
                )
                by_target = _degree_coords(model, self.gens[i], D, window)
                if not by_target:
                    continue
                for w in q.vertices:
                    coords = by_target.get(w)
                    if not coords:
                        continue
                    nullity = len(coords) - len(image.pop((D, w), ()))
                    if not nullity:
                        self.kernels_skipped += 1
                        continue
                    # the arrow images x·a of Ω one degree down, in runs:
                    # normal pairs first, then the tips a∘t
                    first, later = [], []
                    for a, u in into[w]:
                        runs = made.get((D - 1, u))
                        if runs is None:
                            rows = omega.get((D - 1, u))
                            if rows:
                                first.append((a, rows))
                        else:
                            for t, rows in runs:
                                (first if (a, t) in normal else later).append((a, rows))
                    span, basis, runs = EchelonSpan(), [], []
                    for a, rows in first + later:
                        start = len(basis)
                        for x in rows:
                            if row := span._add(_diff_image(model, x, a)):
                                basis.append(row)
                                if span.rank == nullity:
                                    break
                        if len(basis) > start:
                            runs.append((a, basis[start:]))
                        if span.rank == nullity:
                            break
                    if span.rank == nullity:
                        self.kernels_skipped += 1
                        omega[(D, w)], made[(D, w)] = basis, runs
                        continue
                    self.kernels_computed += 1
                    basis = omega[(D, w)] = self._kernel(i, D, w, coords, nullity)
                    # a vanishing block's kernel is coords, unit vectors
                    # stored as their coordinates
                    units = basis is coords
                    # the new generators: kernel vectors independent of the
                    # arrow images, every one where the images span nothing;
                    # diffs keeps them, so the span gets copies
                    if span.rank:
                        basis = [x for x in basis if span.add({x: ONE} if units else x)]
                    if not basis:
                        continue
                    if D <= i:
                        raise InternalError(
                            f"step {i + 1} generator in degree {D}, below its step"
                        )
                    keys = basis if units else chain.from_iterable(basis)
                    if any(lengths[key % W] == 0 for key in keys):
                        raise InternalError(
                            f"step {i + 1} generator in degree {D} has a"
                            " non-minimal column"
                        )
                    gens += [Generator(w, D)] * len(basis)
                    diffs += basis
            if image:
                D, w = next(iter(image))
                raise InternalError(
                    f"step {i}: Ω^{i} has a block in degree {D} at vertex {w},"
                    f" where P_{i} has no coordinate"
                )
            self.gens.append(gens)
            self.diffs.append(diffs)

    def _kernel(self, i: int, D: int, w: str, coords: list, nullity: int) -> list:
        """Kernel of d_i on the (D, w) block of P_i, one vector per dependent
        column, in column order.

        Where exactness counts the whole block (at step 0 that is the
        radical of P_0), d_i vanishes on it: the kernel is the block's unit
        vectors, the order solving gives for zero columns, returned as
        ``coords`` itself, one coordinate per unit vector.  Only that every
        column is zero is checked, on the columns whose word is shorter
        than the top degree (every column without one).  A solved block's
        rows are the P_{i-1} coordinates, below len(gens[i-1])·W, and its
        kernel vectors are dicts."""
        model, diffs, W = self.model, self.diffs[i], len(self.model.words)
        if nullity == len(coords):
            if i:
                top, lengths = model.top_degree(), model.lengths
                shorter = coords if top is None else [
                    key for key in coords if lengths[key % W] < top]
                if any(_diff_image(model, diffs[k], b)
                       for k, b in map(divmod, shorter, repeat(W))):
                    raise InternalError(
                        f"step {i} differential is nonzero in degree {D} at vertex"
                        f" {w}, where exactness makes it vanish"
                    )
            return coords
        solver = ColumnSolver(len(self.gens[i - 1]) * W)
        kernel = []
        for k, b in map(divmod, coords, repeat(W)):
            vec = solver._add_column(_diff_image(model, diffs[k], b))
            if vec is not None:
                kernel.append({coords[p]: c for p, c in vec.items()})
        if len(kernel) != nullity:
            raise InternalError(
                f"step {i} kernel in degree {D} at vertex {w} has"
                f" dimension {len(kernel)}, exactness gives {nullity}"
            )
        return kernel

    def relabelled(self, sigma, words: dict) -> "SimpleResolution":
        """The resolution of sigma(vertex) read off this one: generator
        vertices and differential words moved by sigma, with ``words`` its
        ``transport_word_map``.  sigma is an isomorphism from the part of the
        algebra reached from vertex onto the part reached from its image,
        which is all either resolution reads, so the image is again a
        minimal resolution."""
        ids, W = self.model.word_ids, len(self.model.words)
        # coordinate k·W + b moves by ids[σb] - b
        shift = {ids[b]: ids[m] - ids[b] for b, m in words.items()}
        out = object.__new__(SimpleResolution)
        out.model = self.model
        out.vertex = sigma.vertices[self.vertex]
        out.resolved_from = self.resolved_from
        out.gens = []
        for step in self.gens:
            moved = []
            for g, run in groupby(step):
                image = Generator(sigma.vertices[g.vertex], g.degree)
                moved += [image] * len(list(run))
            out.gens.append(moved)
        out.diffs = [
            [entry + shift[entry % W] if type(entry) is int
             else {key + shift[key % W]: c for key, c in entry.items()}
             for entry in step]
            for step in self.diffs
        ]
        out.kernels_computed = out.kernels_skipped = 0
        return out


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
    another simple's rather than computed.  The Betti totals per (step,
    degree) and per step are summed once, here.
    """

    def __init__(self, model: AlgebraModel, i_max: int, per_simple: dict,
                 transported=frozenset()):
        self.model = model
        self.i_max = i_max
        self.simples = model.quiver.vertices
        self.per_simple = per_simple
        self.transported = frozenset(transported)
        self.betti = {}
        for u in self.simples:
            for i, gen_list in enumerate(per_simple[u].gens):
                for g, run in groupby(gen_list):
                    key = (u, i, g.degree, g.vertex)
                    self.betti[key] = self.betti.get(key, 0) + len(list(run))
        self._totals, self._step_totals = {}, {}
        for (_, i, d, _), n in self.betti.items():
            self._totals[(i, d)] = self._totals.get((i, d), 0) + n
            self._step_totals[i] = self._step_totals.get(i, 0) + n

    @property
    def d_max(self) -> int:
        return self.model.max_degree

    def betti_total(self, i: int, d: int) -> int:
        return self._totals.get((i, d), 0)

    def step_linear(self, i: int) -> bool:
        return all(dd == i for ii, dd in self._totals if ii == i)

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


def resolve(model: AlgebraModel, i_max: int) -> ResolutionReport:
    """Resolve every vertex simple through step i_max.

    Resolving S_v reads only the part of the algebra on the vertices reached
    from v.  After resolving S_v, each unresolved simple S_t whose part is
    isomorphic to v's gets v's resolution relabelled instead: the
    ``rooted_isomorphism`` from v to t must carry the model on v's part onto
    the model on t's (``transport_word_map``).  A covering's deck group
    moves simples this way, even when the covering falls apart into pieces.
    """
    q = model.quiver
    simples = {}
    transported = set()
    for v in q.vertices:
        if v in simples:
            continue
        res = simples[v] = SimpleResolution(model, v, i_max)
        for t in q.vertices:
            if t in simples:
                continue
            sigma = rooted_isomorphism(q, v, t)
            if sigma is None:
                continue
            words = transport_word_map(model, sigma)
            if words is not None:
                simples[t] = res.relabelled(sigma, words)
                transported.add(t)
    return ResolutionReport(
        model, i_max, {v: simples[v] for v in q.vertices}, transported,
    )


def resolution_sizes(*reports: ResolutionReport) -> dict:
    """Simples resolved and relabelled, and over the resolved ones the
    blocks whose syzygy kernel was solved or only counted."""
    transported = sum(len(r.transported) for r in reports)
    resolutions = [res for r in reports for res in r.per_simple.values()]
    return {
        "simples_resolved": sum(len(r.simples) for r in reports) - transported,
        "simples_transported": transported,
        "kernels_computed": sum(res.kernels_computed for res in resolutions),
        "kernels_skipped": sum(res.kernels_skipped for res in resolutions),
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

    def __str__(self) -> str:
        if self.passed:
            return f"generated in degrees 0,1 through step {self.checked_to}"
        i = self.first_failure_i
        achieved, required = next(
            (a, r) for (ii, a, r) in self.steps if ii == i
        )
        return (
            f"generation fails at step {i}: products span {achieved}"
            f" of {required} classes one step up"
        )


def _arrow_ranks(res: SimpleResolution, i_max: int) -> list:
    """Per step i < i_max, the rank of the arrow parts of one resolution's
    step-(i+1) differential columns.

    An arrow part with one entry spans that coordinate's unit vector; the
    rank is the number of such coordinates plus the rank of the other arrow
    parts with those coordinates dropped, so only the latter are eliminated.
    An int entry is a unit vector already: it counts as a unit when its word
    is an arrow, with no part built, and has no arrow part otherwise.
    """
    ranks, lengths, W = [], res.model.lengths, len(res.model.words)
    for step in res.diffs[1:i_max + 1]:
        units, rest = set(), []
        for entry in step:
            if type(entry) is int:
                if lengths[entry % W] == 1:
                    units.add(entry)
                continue
            part = [(key, c) for key, c in entry.items() if lengths[key % W] == 1]
            if len(part) == 1:
                units.add(part[0][0])
            elif part:
                rest.append(part)
        span = EchelonSpan()
        for part in rest:
            span._add({key: c for key, c in part if key not in units})
        ranks.append(len(units) + span.rank)
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

    With all simples resolved side by side, their columns sit at disjoint
    offsets, so that rank is the sum of one rank per simple, with no lift.
    Each resolved simple is ranked once: a transported simple's columns are
    its source's with words relabelled by a length-preserving bijection, so
    its ranks are the source's.
    """
    report = ext.report
    per_simple = report.per_simple
    sources = [per_simple[u].resolved_from for u in report.simples]
    ranks = {}
    for v in sources:
        if v not in ranks:
            ranks[v] = _arrow_ranks(per_simple[v], ext.i_max)
    steps = []
    first_fail = None
    for i in range(ext.i_max):
        required = report.ext_total(i + 1)
        achieved = sum(ranks[v][i] for v in sources)
        steps.append((i, achieved, required))
        if achieved != required and first_fail is None:
            first_fail = i
    return GenerationReport(first_fail is None, ext.i_max, first_fail, steps)


def hilbert_euler_check(report: ResolutionReport, cutoff: int):
    """Alternating Betti matrix times the Hilbert matrix must be the identity.

    Valid through min(degree bound, homological bound): beyond that steps
    whose contribution would matter are missing.  A cutoff below 0 would
    compare two empty truncations; both raise ValueError.  Returns
    (ok, witness) with the witness (u, v, d, got, want) at the first entry
    and degree, in label order, where the product is not the identity.
    """
    limit = min(report.d_max, report.i_max)
    if cutoff > limit:
        raise ValueError(
            f"cutoff {cutoff} exceeds the certified window {limit}"
        )
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
        for v in labels:
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
        raise ValueError(f"duality dimension check needs {KOSZUL_TO_BOUND}, got {v}")
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

    def __str__(self) -> str:
        if self.passed:
            return (
                f"covering agrees with base: verdict {self.base_verdict},"
                f" multiplicity {self.group_order}"
            )
        return f"covering comparison fails: {self.mismatches[0]}"


def theorem_covering_check(presentation, group, weights, i_max: int,
                           d_max: int) -> CoveringTheoremReport:
    """Resolve an algebra and its covering and compare the outcomes.

    The verdicts must agree including the failure witness, and every Betti
    total of the covering must be the group order times the base total.
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
    return CoveringTheoremReport(
        not mismatches, n, bv, cv, mismatches,
        resolution_sizes(base_report, cover_report),
    )
