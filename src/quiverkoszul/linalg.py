"""Exact linear algebra over the rationals.

Vectors are sparse maps from index to a nonzero exact scalar: an ``int``
when the value is integral, a ``Fraction`` otherwise (``as_scalar`` and
``exact_div`` produce that form; products and sums of Fractions may leave
an integral Fraction, which compares and hashes like its int).  What the
module hands back, ``rref_rows`` included, follows the same rule.  A
matrix is handed over as its rows or as a list of its columns.

There is one elimination loop, ``EchelonSpan._reduce``, with one pivot
rule: a row's pivot is its smallest index.  All elimination is exact and
the rule is fixed, so every basis choice made downstream (normal forms,
syzygy generators, kernel bases) is deterministic and reproducible across
runs.  ``ColumnSolver`` runs on the same kernel: column j of a matrix enters
as its entries plus a tag 1 at index ``height + j``.  Every row index must
lie below ``height``, so the tags sit past every row index: pivots fall on
rows exactly as in the rref of the matrix, and the tags of a residue record
which columns it combines.

Who owns a vector: the public methods copy it, dropping explicit zeros, and
leave the caller's dict as it was.  ``_add`` and ``_add_column`` take a
zero-free dict built for the call, which enters the loop uncopied and may
be changed or kept as a row.
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
    add.  The rref basis and the residue of ``_reduce`` are both determined
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

    def _reduce(self, residue: dict) -> dict:
        """A zero-free residue reduced in place by the stored rows, smallest
        pivot first; it has no entry at any pivot."""
        rows = self._rows
        while True:
            hit = residue.keys() & rows.keys()
            if not hit:
                return residue
            p = min(hit)
            vec_axpy(residue, -residue[p], rows[p])

    def add(self, vec: dict) -> bool:
        return bool(self._add(_clean(vec)))

    def _add(self, vec: dict) -> dict:
        # the row kept, maybe vec itself, or {}; reading ``rows`` changes it
        residue = self._reduce(vec)
        return residue and self.store(residue, min(residue))

    def store(self, residue: dict, pivot) -> dict:
        """Keep a nonzero residue of ``_reduce`` as a row; pivot is min(residue)."""
        lead = residue[pivot]
        if lead == -1:
            # negation is exact_div(c, -1) for an int, and an integral
            # Fraction still becomes its int
            residue = {j: -c if type(c) is int else exact_div(c, -1)
                       for j, c in residue.items()}
        elif lead != 1:
            residue = {j: exact_div(c, lead) for j, c in residue.items()}
        self._rows[pivot] = residue
        self._reduced = False
        return residue

    def rref_rows(self) -> list:
        """Copies of the rref rows, in pivot order."""
        rows = self.rows
        return [dict(rows[p]) for p in sorted(rows)]

    def equals(self, other: "EchelonSpan") -> bool:
        # rref is canonical, so span equality is row-by-row equality.
        return self.rows == other.rows


class ColumnSolver:
    """Expansions of a growing column family over its independent columns.

    A tagged view of an ``EchelonSpan``: every row index of a column must be
    below ``height``, and column j is reduced with a tag 1 at ``height + j``.
    Feeding columns left to right reproduces the rref pivot choice: a column
    is independent exactly when its residue keeps a row entry, and only
    independent columns are stored.  A dependent column reduces to its tags
    alone, which read off its expansion over the independent columns fed so
    far; that expansion is unique, so it does not depend on the elimination
    order.  ``add_column`` returns it as a kernel vector.
    """

    __slots__ = ("height", "count", "_span")

    def __init__(self, height: int):
        self.height = height
        self.count = 0
        self._span = EchelonSpan()

    def add_column(self, vec: dict):
        """Feed the next column; returns None if independent, else the
        kernel vector it closes: 1 at the new column and minus its
        expansion over the independent columns fed so far."""
        return self._add_column(_clean(vec))

    def _add_column(self, vec: dict):
        j = self.count
        tag = self.height + j
        self.count += 1
        # no stored row holds the new tag, so the tagged column reduces to
        # the residue of vec plus the tag
        residue = self._span._reduce(vec)
        if residue:
            pivot = min(residue)
            if pivot < self.height:
                residue[tag] = ONE
                self._span.store(residue, pivot)
                return None
        # the residue is vec minus its expansion, written on the tags: its
        # tag part with the new column's tag is a kernel vector
        h = self.height
        kernel = {t - h: c for t, c in residue.items()}
        kernel[j] = ONE
        return kernel


def kernel_basis_sparse(columns: list) -> list:
    """Kernel of the matrix with the given sparse columns, as sparse dicts."""
    solver = ColumnSolver(1 + max((i for col in columns for i in col), default=-1))
    basis = []
    for col in columns:
        kernel = solver.add_column(col)
        if kernel is not None:
            basis.append(kernel)
    return basis
