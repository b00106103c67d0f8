"""Yoneda products on the bundled resolution, the oracle for generation.

``generation_check`` lifts nothing: it counts the differential columns
whose largest coordinate holds an arrow word, which is the rank of their
arrow parts.  The tests compare it with its definition, the rank of the
products of the step-i classes with the step-1 classes, computed here by
lifting chain maps through the bundled resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from quiverkoszul.algebra import InternalError
from quiverkoszul.linalg import ONE, ZERO, ColumnSolver, as_scalar, vec_axpy
from quiverkoszul.quiver import trivial_path
from quiverkoszul.resolution import (
    ExtAlgebra,
    ResolutionReport,
    _diff_image,
    _run_coords,
    _step_blocks,
)


def expand_runs(step) -> list:
    """A step's generators one per entry, in index order: a resolution
    keeps them as runs (g, n) of n equal generators.  Every test that reads
    generators one at a time goes through here."""
    return [g for g, n in step for _ in range(n)]


def expand_diffs(step) -> list:
    """A step's differential entries one per generator, in index order, as
    a flat list: a resolution keeps one entry per run, the run's entries in
    order, and a ``UnitBatch`` reads as its ints.  Every test that reads
    differentials one generator at a time goes through here."""
    return [entry for run in step for entry in run]


def expanded(entry) -> dict:
    """A differential entry as a dict from coordinate to coefficient: a
    resolution stores a unit vector as its coordinate, an int."""
    return {entry: ONE} if type(entry) is int else entry


@dataclass
class ExtElement:
    """A cohomology class: a functional on the step's bundle generators."""

    step: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {k: as_scalar(c) for k, c in self.values.items() if c}

    def is_zero(self) -> bool:
        return not self.values


class YonedaAlgebra(ExtAlgebra):
    """Yoneda cohomology of the semisimple quotient, on the bundled resolution.

    All simples are resolved side by side, so a class at step i is a
    functional on the combined step-i generators and products are computed
    by lifting the left factor through as many steps as the right factor
    occupies, then applying the right factor to the lift.

    ``diffs[i][j]`` pairs the resolution's own differential entry for bundle
    generator j, keyed by its simple's step-(i-1) generators, with the
    bundle offset of that simple's step-(i-1) block, so the bundle shares
    the differentials instead of copying them; a unit entry, stored as its
    coordinate, is ``expanded`` to a dict.  Only the lifts read it, so
    it is paired on first read.  Bundle coordinates are k·W + b over the
    bundle's generators k: an entry's coordinate moves by offset·W.
    ``gens[i]`` is the step-i bundle one generator per entry, and
    ``runs[i]`` the simples' runs in the same order, which the blocks read.
    """

    def __init__(self, report: ResolutionReport):
        super().__init__(report)
        self.model = report.model
        self.simples = report.simples
        self.gens, self.runs = [], []
        self._offsets = []
        for i in range(report.i_max + 1):
            bundle, runs = [], []
            offsets = {}
            for u in self.simples:
                offsets[u] = len(bundle)
                runs += report.per_simple[u].gens[i]
                bundle += expand_runs(report.per_simple[u].gens[i])
            self.gens.append(bundle)
            self.runs.append(runs)
            self._offsets.append(offsets)
        self._gen0_index = {g.vertex: k for k, g in enumerate(self.gens[0])}
        self._blocks_cache = {}
        self._solver_cache = {}

    @cached_property
    def diffs(self) -> list:
        out = [[]]
        for i in range(1, self.i_max + 1):
            step_diffs = []
            for u in self.simples:
                off = self._offsets[i - 1][u]
                step_diffs.extend(
                    (off, expanded(entry))
                    for entry in expand_diffs(self.report.per_simple[u].diffs[i])
                )
            out.append(step_diffs)
        return out

    def ext_basis(self, i: int) -> list:
        return [ExtElement(i, {k: ONE}) for k in range(self.ext_dim(i))]

    def _coords(self, i: int, D: int, w: str) -> list:
        if i not in self._blocks_cache:
            self._blocks_cache[i] = _step_blocks(self.model, self.runs[i])
        return _run_coords(self._blocks_cache[i].get((D, w), ()), len(self.model.words))

    def _solver(self, k: int, D: int, w: str) -> ColumnSolver:
        key = (k, D, w)
        solver = self._solver_cache.get(key)
        if solver is None:
            W = len(self.model.words)
            solver = ColumnSolver(len(self.gens[k - 1]) * W)
            for g_idx, b in map(divmod, self._coords(k, D, w), repeat(W)):
                off, entry = self.diffs[k][g_idx]
                shift = off * W
                solver._add_column({m + shift: coef for m, coef in
                                    _diff_image(self.model, entry, b).items()})
            self._solver_cache[key] = solver
        return solver

    def _check_support(self, elem: ExtElement, name: str) -> None:
        if not (0 <= elem.step <= self.i_max):
            raise ValueError(
                f"{name} at step {elem.step} outside the window 0..{self.i_max}"
            )
        size = len(self.gens[elem.step])
        for k in elem.values:
            if not (isinstance(k, int) and 0 <= k < size):
                raise ValueError(
                    f"{name} has index {k!r} outside the step-{elem.step}"
                    f" basis of size {size}"
                )

    def _preimage(self, step: int, w: str, rhs: dict) -> dict:
        """A step-``step`` element into vertex w whose differential is rhs."""
        W = len(self.model.words)
        by_degree = {}
        for key, c in rhs.items():
            l2, m = divmod(key, W)
            D = self.gens[step - 1][l2].degree + self.model.lengths[m]
            by_degree.setdefault(D, {})[key] = c
        solution = {}
        for D, block_rhs in by_degree.items():
            coords = self._solver(step, D, w).solve(block_rhs)
            if coords is None:
                raise InternalError(
                    f"resolution fails to be exact at step {step},"
                    f" degree {D}, vertex {w}"
                )
            # a coordinate sits in one degree: the blocks' solutions are disjoint
            cur = self._coords(step, D, w)
            solution.update((cur[pos], c) for pos, c in coords.items())
        return solution

    def _lift(self, xi: ExtElement, steps: int) -> dict:
        """Chain lift of xi through the given number of steps.

        Returns the final layer as a map: bundle generator index at step
        xi.step + steps to an element of the step-``steps`` projective,
        written in bundle coordinates k·W + b.  The zeroth layer sends a
        generator to its value times the unit coordinate of the matching
        step-0 generator, which projects back onto xi.
        """
        i = xi.step
        if i + steps > self.i_max:
            raise ValueError("lift leaves the homological window")
        self._check_support(xi, "xi")
        W = len(self.model.words)
        phi = {}
        for k, c in xi.values.items():
            g = self.gens[i][k]
            key = (self._gen0_index[g.vertex] * W
                   + self.model.word_ids[trivial_path(g.vertex)])
            phi[k] = {key: c}
        for step in range(1, steps + 1):
            nxt = {}
            for gpp, (off, entry) in enumerate(self.diffs[i + step]):
                rhs = {}
                for key, c in entry.items():
                    l, b = divmod(key, W)
                    vec_axpy(rhs, c, _diff_image(self.model, phi.get(off + l, {}), b))
                if rhs:
                    w = self.gens[i + step][gpp].vertex
                    solution = self._preimage(step, w, rhs)
                    if solution:
                        nxt[gpp] = solution
            phi = nxt
        return phi

    def yoneda_product(self, xi: ExtElement, zeta: ExtElement) -> ExtElement:
        """Product of two classes; the result sits at the summed step (the
        lift of xi refuses a product past the window)."""
        self._check_support(zeta, "zeta")
        phi = self._lift(xi, zeta.step)
        lengths, W = self.model.lengths, len(self.model.words)
        values = {}
        for gpp, elem in phi.items():
            total = ZERO
            for key, c in elem.items():
                l, b = divmod(key, W)
                if lengths[b] == 0:
                    total += c * zeta.values.get(l, ZERO)
            if total:
                values[gpp] = total
        return ExtElement(xi.step + zeta.step, values)
