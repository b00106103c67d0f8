"""Exact linear algebra over the rationals.

Vectors are sparse maps from index to a nonzero exact scalar: an ``int``
when the value is integral, a ``Fraction`` otherwise (``as_scalar`` and
``exact_div`` produce that form; products and sums of Fractions may leave
an integral Fraction, which compares and hashes like its int).  A matrix is
handed over as its rows or as a list of its columns.  All elimination is
exact and the pivot rule is fixed -- first nonzero column, smallest row
index -- so every basis choice made downstream (normal forms, syzygy
generators, kernel bases) is deterministic and reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = 0
ONE = 1


def as_scalar(c):
    """c as an exact scalar: an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_div(a, b):
    """a / b exactly: an int when the quotient is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _clean(vec: dict) -> dict:
    return {j: c for j, c in vec.items() if c}


def vec_axpy(target: dict, coef, source: dict) -> None:
    """target += coef * source, in place, dropping zeros."""
    if not coef:
        return
    for j, c in source.items():
        s = target.get(j, ZERO) + coef * c
        if s:
            target[j] = s
        else:
            target.pop(j, None)


class EchelonSpan:
    """A row space under incremental adds, read back in reduced row-echelon form.

    Rows are sparse dicts stored by pivot column, each normalised to 1 at
    its pivot and zero at every pivot that existed when it was added, so
    the stored family is in echelon form.  Back-substitution into older
    rows is deferred: reading ``rows`` or ``rref_rows()`` reduces the family
    once, in descending pivot order, and the result stays until the next
    add.  The rref basis and the residue of ``reduce`` are both determined
    by the span alone, so the deferral is invisible to callers.
    """

    __slots__ = ("_rows", "_reduced")

    def __init__(self):
        self._rows = {}  # pivot column -> row dict (row[pivot] == 1)
        self._reduced = True

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict:
        """Pivot column -> rref row; the caller must not mutate the rows."""
        if not self._reduced:
            self._back_substitute()
        return self._rows

    def _back_substitute(self) -> None:
        # a row only holds pivots to its right, and those rows are already
        # reduced when visited in descending order, so one pass suffices
        rows = self._rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q in [j for j in row if j != p and j in rows]:
                vec_axpy(row, -row[q], rows[q])
        self._reduced = True

    def reduce(self, vec: dict) -> dict:
        rows = self._rows
        residue = _clean(vec)
        while True:
            hit = [j for j in residue if j in rows]
            if not hit:
                return residue
            p = min(hit)
            vec_axpy(residue, -residue[p], rows[p])

    def add(self, vec: dict) -> bool:
        residue = self.reduce(vec)
        if not residue:
            return False
        p = min(residue)
        lead = residue[p]
        if lead != 1:
            residue = {j: exact_div(c, lead) for j, c in residue.items()}
        self._rows[p] = residue
        self._reduced = False
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))

    def rref_rows(self) -> list:
        """The rref rows in pivot order, with Fraction entries."""
        rows = self.rows
        return [{j: Fraction(c) for j, c in rows[p].items()} for p in sorted(rows)]

    def equals(self, other: "EchelonSpan") -> bool:
        # rref is canonical, so span equality is row-by-row equality.
        return self.rref_rows() == other.rref_rows()


class ColumnSolver:
    """Echelon basis of a growing column family, with expansion tracking.

    Feeding columns left to right reproduces the rref pivot choice: a column
    is independent exactly when it would carry a pivot.  For dependent
    columns the recorded coordinates expand them over the independent
    columns fed so far, which is what kernel vectors and span membership
    certificates are made of.
    """

    __slots__ = ("echelon", "count", "independent")

    def __init__(self):
        self.echelon = {}  # pivot row index -> (vec, coords); pivots distinct
        self.count = 0
        self.independent = []

    def _reduce(self, vec: dict):
        echelon = self.echelon
        vec = _clean(vec)
        coords = {}
        while True:
            hit = [r for r in vec if r in echelon]
            if not hit:
                return vec, coords
            r = min(hit)
            evec, ecoords = echelon[r]
            coef = exact_div(vec[r], evec[r])
            vec_axpy(vec, -coef, evec)
            vec_axpy(coords, coef, ecoords)

    def solve(self, vec: dict):
        """Coordinates of vec over the independent columns, or None."""
        residue, coords = self._reduce(vec)
        if residue:
            return None
        return coords

    def add_column(self, vec: dict):
        """Feed the next column; returns None if independent, else its expansion."""
        index = self.count
        self.count += 1
        residue, coords = self._reduce(vec)
        if not residue:
            return coords
        # keep coords meaning "expansion over original columns": residue ==
        # col_index - sum(coords); fold the reduction history into the entry
        ecoords = {index: ONE}
        for i, c in coords.items():
            ecoords[i] = ecoords.get(i, ZERO) - c
        self.echelon[min(residue)] = (residue, ecoords)
        self.independent.append(index)
        return None


def kernel_basis_sparse(columns: list) -> list:
    """Kernel of the matrix with the given sparse columns, as sparse dicts."""
    solver = ColumnSolver()
    basis = []
    for j, col in enumerate(columns):
        expansion = solver.add_column(col)
        if expansion is None:
            continue
        vec = {i: -c for i, c in expansion.items()}
        vec[j] = ONE
        basis.append(_clean(vec))
    return basis


def solve_in_span(generators: list, target) -> list | None:
    """Coefficients expressing target over generators, or None if outside.

    Generators and target may be sparse dicts or dense sequences.  The
    answer is deterministic: dependent generators get coefficient zero and
    the expansion uses the leftmost independent generators.
    """
    gens = [_as_dict(g) for g in generators]
    tgt = _as_dict(target)
    solver = ColumnSolver()
    for g in gens:
        solver.add_column(g)
    coords = solver.solve(tgt)
    if coords is None:
        return None
    return [coords.get(i, ZERO) for i in range(len(gens))]


def _as_dict(vec) -> dict:
    if isinstance(vec, dict):
        return _clean({j: as_scalar(c) for j, c in vec.items()})
    return _clean({j: as_scalar(c) for j, c in enumerate(vec)})
