import random
from fractions import Fraction

import pytest

from quiverkoszul.linalg import (
    ColumnSolver,
    EchelonSpan,
    as_scalar,
    exact_div,
    kernel_basis_sparse,
)


def F(x):
    return Fraction(x)


def _columns(rows) -> list:
    """Sparse columns of a dense row-major matrix."""
    return [{i: F(r[j]) for i, r in enumerate(rows) if r[j]}
            for j in range(len(rows[0]))]


class ProbedSpan(EchelonSpan):
    """An ``EchelonSpan`` with the two queries only the tests ask of it."""

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))


def _span_of_rows(rows) -> ProbedSpan:
    span = ProbedSpan()
    for r in rows:
        span.add({j: F(c) for j, c in enumerate(r) if c})
    return span


def test_rref_rows_of_known_matrix():
    span = _span_of_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert span.rank == 2
    assert span.pivots() == (0, 1)
    assert span.rref_rows() == [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}]


def test_rref_rank_exact_fractions():
    # Hilbert-style matrix: badly conditioned in floats, exact here
    n = 5
    span = _span_of_rows(
        [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    )
    assert span.rank == n


def test_rref_rows_keep_exact_thirds():
    (first, _) = _span_of_rows([[3, 1], [0, 1]]).rref_rows()
    assert first == {0: F(1)}
    assert type(first[0]) is int


@pytest.mark.parametrize("a, b, want", [
    (6, 3, 2),  # an exact int quotient
    (7, 3, Fraction(7, 3)),  # an inexact int quotient
    (Fraction(3, 2), Fraction(3, 4), 2),  # a Fraction reducing to an integer
    (Fraction(5, 3), 1, Fraction(5, 3)),
    (6, -3, -2),  # negative divisors
    (-6, -3, 2),
    (7, -2, Fraction(-7, 2)),
    (-7, -2, Fraction(7, 2)),
    (-4, Fraction(-2, 3), 6),
    (Fraction(1, 2), -2, Fraction(-1, 4)),
])
def test_exact_div_is_an_int_exactly_when_integral(a, b, want):
    got = exact_div(a, b)
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize("c, want", [
    (5, 5),
    (-5, -5),
    (Fraction(4, 2), 2),
    (Fraction(-3, 6), Fraction(-1, 2)),
    ("6/3", 2),
    ("-2/4", Fraction(-1, 2)),
])
def test_as_scalar_is_an_int_exactly_when_integral(c, want):
    got = as_scalar(c)
    assert got == want
    assert type(got) is type(want)


def test_rows_stay_int_where_integral():
    span = EchelonSpan()
    span.add({0: 2, 1: 4, 2: 3})
    span.add({1: 3, 2: 6})
    rows = span.rows
    assert rows == {0: {0: 1, 2: Fraction(-5, 2)}, 1: {1: 1, 2: 2}}
    assert [type(c) for c in rows[1].values()] == [int, int]
    assert type(rows[0][2]) is Fraction
    # the rref read-out is a copy under the same rule: int where integral
    read = span.rref_rows()
    assert read == [rows[0], rows[1]] and read[0] is not rows[0]
    assert [[type(c) for c in row.values()] for row in read] == [
        [int, Fraction], [int, int]]


def test_kernel_basis_sparse_matches_hand_computation():
    basis = kernel_basis_sparse(_columns([[1, 1, 0], [0, 0, 1]]))
    assert basis == [{0: F(-1), 1: F(1)}]


def test_kernel_basis_sparse_full_rank_is_empty():
    assert kernel_basis_sparse(_columns([[1, 0], [0, 1]])) == []


def test_kernel_vectors_are_actual_kernel_vectors():
    rows = [[2, -1, 3, 0], [1, 1, 1, 1]]
    basis = kernel_basis_sparse(_columns(rows))
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(F(row[j]) * c for j, c in v.items()) == 0


class TestEchelonSpan:
    def test_add_reports_novelty(self):
        span = EchelonSpan()
        assert span.add({0: F(1), 1: F(2)}) is True
        assert span.add({0: F(2), 1: F(4)}) is False
        assert span.add({1: F(1)}) is True
        assert span.rank == 2

    def test_contains(self):
        span = ProbedSpan()
        span.add({0: F(1), 2: F(1)})
        span.add({1: F(1)})
        assert span.contains({0: F(3), 1: F(-1), 2: F(3)})
        assert not span.contains({2: F(1), 3: F(1)})

    def test_zero_vector_never_new(self):
        span = ProbedSpan()
        assert span.add({}) is False
        assert span.contains({})
        assert span.rank == 0

    def test_equals_is_basis_independent(self):
        a = EchelonSpan()
        a.add({0: F(1), 1: F(1)})
        a.add({0: F(1), 1: F(-1)})
        b = EchelonSpan()
        b.add({0: F(1)})
        b.add({1: F(7)})
        assert a.equals(b)
        c = EchelonSpan()
        c.add({0: F(1)})
        assert not a.equals(c)


    def test_add_and_reduce_keep_the_callers_dict_and_drop_zeros(self):
        span = EchelonSpan()
        # unit lead and no pivot hit: the row is the vector's entries, kept
        # apart from the caller's dict
        vec = {0: 1, 1: 0, 2: 3}
        assert span.add(vec) is True
        assert vec == {0: 1, 1: 0, 2: 3}
        vec[2] = 99
        assert span.add({2: 1, 0: 1}) is True
        probe = {2: 5, 7: 0}
        assert span.reduce(probe) == {}
        assert probe == {2: 5, 7: 0}
        residue = span.reduce({5: 2, 6: 0})
        assert residue == {5: 2}
        # reading the rows back-substitutes them in place; the caller's
        # dicts stay out of it
        assert span.rows == {0: {0: 1}, 2: {2: 1}}
        assert vec == {0: 1, 1: 0, 2: 99}
        assert span.add({3: 0}) is False
        assert span.rank == 2


class TestColumnSolver:
    def test_solve_expresses_vector_in_columns(self):
        solver = ColumnSolver(2)
        solver.add_column({0: F(1), 1: F(1)})
        solver.add_column({1: F(1)})
        coords = solver.solve({0: F(2), 1: F(5)})
        assert coords == {0: F(2), 1: F(3)}

    def test_solve_returns_none_outside_span(self):
        solver = ColumnSolver(2)
        solver.add_column({0: F(1)})
        assert solver.solve({1: F(1)}) is None

    def test_add_column_reports_dependency(self):
        solver = ColumnSolver(3)
        assert solver.add_column({0: F(1), 1: F(2)}) is None
        assert solver.add_column({2: F(1)}) is None
        # column 2 = 2 * column 0 + 3 * column 1
        dep = solver.add_column({0: F(2), 1: F(4), 2: F(3)})
        assert dep == {0: -2, 1: -3, 2: 1}

    def test_solution_coordinates_reproduce_vector(self):
        cols = [
            {0: F(1), 2: F(1)},
            {1: F(1), 2: F(-1)},
            {0: F(1), 1: F(1)},
        ]
        solver = ColumnSolver(3)
        for col in cols:
            solver.add_column(col)
        target = {0: F(3), 1: F(2), 2: F(1)}
        coords = solver.solve(target)
        assert coords is not None
        rebuilt = {}
        for j, c in coords.items():
            for i, a in cols[j].items():
                rebuilt[i] = rebuilt.get(i, F(0)) + c * a
        rebuilt = {i: c for i, c in rebuilt.items() if c}
        assert rebuilt == target

    def test_solve_skips_dependent_columns(self):
        # a dependent column gets no coordinate; the expansion is over the
        # leftmost independent columns
        solver = ColumnSolver(3)
        solver.add_column({0: F(1), 1: F(1)})
        solver.add_column({0: F(2), 1: F(2)})
        solver.add_column({1: F(1), 2: F(1)})
        assert solver.solve({0: F(1), 2: F(-1)}) == {0: F(1), 2: F(-1)}
        assert solver.solve({0: F(1)}) is None

    def test_add_column_and_solve_keep_the_callers_dict_and_drop_zeros(self):
        solver = ColumnSolver(3)
        col = {0: 1, 1: 0}
        assert solver.add_column(col) is None
        # the new column's tag goes into a copy
        assert col == {0: 1, 1: 0}
        dep = {0: 2, 2: 0}
        assert solver.add_column(dep) == {0: -2, 1: 1}
        assert dep == {0: 2, 2: 0}
        # a column of explicit zeros is the zero column
        assert solver.add_column({1: 0}) == {2: 1}
        target = {0: 3, 2: 0}
        assert solver.solve(target) == {0: 3}
        assert target == {0: 3, 2: 0}

    def test_zero_column_and_zero_target(self):
        solver = ColumnSolver(2)
        assert solver.add_column({0: F(1)}) is None
        assert solver.add_column({}) == {1: 1}
        assert solver.add_column({1: F(0)}) == {2: 1}
        assert solver.solve({}) == {}


# -- lazy rref against an eager reference ------------------------------------


def _eager_rref(vectors) -> dict:
    """Pivot column -> rref row, back-substituting on every add."""
    rows = {}
    for vec in vectors:
        residue = {j: c for j, c in vec.items() if c}
        while True:
            hit = [j for j in residue if j in rows]
            if not hit:
                break
            p = min(hit)
            coef = residue[p]
            for j, c in rows[p].items():
                residue[j] = residue.get(j, F(0)) - coef * c
            residue = {j: c for j, c in residue.items() if c}
        if not residue:
            continue
        p = min(residue)
        row = {j: c / residue[p] for j, c in residue.items()}
        for other in rows.values():
            coef = other.get(p)
            if coef:
                for j, c in row.items():
                    other[j] = other.get(j, F(0)) - coef * c
                for j in [j for j, c in other.items() if not c]:
                    del other[j]
        rows[p] = row
    return rows


def _random_vectors(rng, count: int, width: int) -> list:
    vectors = []
    for _ in range(count):
        size = rng.randint(0, min(4, width))
        cols = rng.sample(range(width), size)
        vectors.append(
            {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in cols})
    # dependent vectors exercise the no-new-pivot branch
    for _ in range(count // 3):
        a, b = rng.sample(vectors, 2)
        k = F(rng.randint(-2, 2))
        vec = dict(a)
        for j, c in b.items():
            vec[j] = vec.get(j, F(0)) + k * c
        vectors.append(vec)
    rng.shuffle(vectors)
    return vectors


def _rows_of(columns: list) -> list:
    height = max((i for col in columns for i in col), default=-1) + 1
    rows = [{} for _ in range(height)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c
    return rows


def _kernel_from_rref(columns: list) -> list:
    """One vector per free column: 1 there, minus the rref entries at pivots."""
    rref_rows = _eager_rref(_rows_of(columns))
    basis = []
    for f in range(len(columns)):
        if f in rref_rows:
            continue
        vec = {f: F(1)}
        for p, row in rref_rows.items():
            if row.get(f):
                vec[p] = -row[f]
        basis.append(vec)
    return basis


@pytest.mark.parametrize("seed", range(12))
def test_lazy_span_matches_eager_rref_with_interleaved_reads(seed):
    rng = random.Random(seed)
    vectors = _random_vectors(rng, rng.randint(4, 14), rng.randint(3, 9))
    probes = _random_vectors(rng, 6, 9)
    span = ProbedSpan()
    for k, vec in enumerate(vectors):
        span.add(vec)
        if rng.random() < 0.4:
            # read before the next add: the cache must not go stale
            want = _eager_rref(vectors[: k + 1])
            assert span.rows == want
            assert span.rref_rows() == [want[p] for p in sorted(want)]
    want = _eager_rref(vectors)
    assert span.rank == len(want)
    assert span.pivots() == tuple(sorted(want))
    assert span.rows == want
    assert span.rref_rows() == [want[p] for p in sorted(want)]
    for probe in probes:
        # against rref rows, one subtraction per pivot reaches the residue
        expected = dict(probe)
        for p, row in want.items():
            if probe.get(p):
                for j, c in row.items():
                    expected[j] = expected.get(j, F(0)) - probe[p] * c
        expected = {j: c for j, c in expected.items() if c}
        assert span.reduce(probe) == expected
        assert span.contains(probe) == (not expected)


@pytest.mark.parametrize("seed", range(12))
def test_column_solvers_match_the_rref_kernel_and_coordinates(seed):
    rng = random.Random(100 + seed)
    columns = _random_vectors(rng, rng.randint(3, 12), rng.randint(2, 7))
    assert kernel_basis_sparse(columns) == _kernel_from_rref(columns)

    target = _random_vectors(rng, 1, 7)[0]
    rows = _rows_of(columns + [target])
    reference = _eager_rref(rows)
    solver = ColumnSolver(len(rows))
    for col in columns:
        solver.add_column(col)
    coords = solver.solve(target)
    t = len(columns)
    if t in reference:
        assert coords is None
    else:
        want = {p: row[t] for p, row in reference.items() if row.get(t)}
        assert coords == want


_LEADS = [2, -3, 4, 6, F(2) / 3, F(-5) / 2, F(7) / 4]


def _mixed_columns(rng, count: int, height: int) -> list:
    """Columns with int and Fraction entries, few of them units, and some
    columns that are combinations of earlier ones."""
    columns = []
    for _ in range(count):
        if columns and rng.random() < 0.35:
            col = {}
            for src in rng.sample(columns, min(2, len(columns))):
                k = rng.choice(_LEADS)
                for i, c in src.items():
                    col[i] = col.get(i, 0) + k * c
            columns.append({i: c for i, c in col.items() if c})
        else:
            rows = rng.sample(range(height), rng.randint(1, min(3, height)))
            columns.append({i: rng.choice(_LEADS) for i in rows})
    return columns


@pytest.mark.parametrize("seed", range(12))
def test_each_expansion_is_the_rref_column_at_that_point(seed):
    rng = random.Random(300 + seed)
    height = rng.randint(2, 6)
    columns = _mixed_columns(rng, rng.randint(3, 12), height)
    solver = ColumnSolver(height)
    for j, col in enumerate(columns):
        got = solver.add_column(col)
        # the eager reference divides with "/", so it gets Fraction input
        exact = [{i: F(c) for i, c in column.items()}
                 for column in columns[: j + 1]]
        reference = _eager_rref(_rows_of(exact))
        if j in reference:
            assert got is None
        else:
            # the kernel vector: 1 at column j, minus its rref column
            want = {p: -row[j] for p, row in reference.items() if row.get(j)}
            want[j] = 1
            assert got == want


@pytest.mark.parametrize("lead", [-1, Fraction(-1)], ids=["int", "Fraction"])
def test_store_negates_a_minus_one_lead_as_exact_div_does(lead, monkeypatch):
    from quiverkoszul import linalg

    residue = {0: lead, 1: 3, 2: Fraction(2), 3: Fraction(1, 2), 4: Fraction(-4, 2), 5: -7}
    want = {j: exact_div(c, lead) for j, c in residue.items()}
    calls = []
    monkeypatch.setattr(linalg, "exact_div",
                        lambda a, b: calls.append(a) or exact_div(a, b))
    row = EchelonSpan().store(dict(residue), 0)
    assert row == want
    assert [type(c) for c in row.values()] == [type(c) for c in want.values()]
    assert [type(c) for c in row.values()] == [int, int, int, Fraction, int, int]
    # an int entry is negated in place of a division
    assert calls == [c for c in residue.values() if type(c) is not int]


@pytest.mark.parametrize("seed", range(6))
def test_unit_leads_keep_integer_outputs_int(seed):
    # independent columns lead with +-1 at distinct rows and carry ints
    # below; the rest are integer combinations of them, so every pivot the
    # elimination meets is a unit and every output is integral
    rng = random.Random(400 + seed)
    height = rng.randint(3, 7)
    columns = []
    for r in rng.sample(range(height), rng.randint(2, height)):
        col = {r: rng.choice([1, -1])}
        for i in range(r + 1, height):
            if rng.random() < 0.5:
                col[i] = rng.randint(-3, 3) or 2
        columns.append(col)
    for _ in range(rng.randint(1, 4)):
        col = {}
        for src in rng.sample(columns, 2):
            k = rng.choice([-2, -1, 1, 3])
            for i, c in src.items():
                col[i] = col.get(i, 0) + k * c
        columns.append({i: c for i, c in col.items() if c})
    solver = ColumnSolver(height)
    outputs = [solver.add_column(col) for col in columns]
    target = {}
    for col in columns[:2]:
        for i, c in col.items():
            target[i] = target.get(i, 0) - 5 * c
    coords = solver.solve({i: c for i, c in target.items() if c})
    assert coords == {0: -5, 1: -5}
    outputs.append(coords)
    outputs.extend(kernel_basis_sparse(columns))
    values = [c for out in outputs if out for c in out.values()]
    assert values and all(type(c) is int for c in values)
