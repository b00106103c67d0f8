from fractions import Fraction

import pytest

from quiverkoszul.algebra import (
    AlgebraModel,
    DegreeOverflowError,
    InternalError,
    PolyMatrix,
    Presentation,
    hilbert_matrix,
)
from quiverkoszul.corpus import (
    exterior,
    loop_cubed,
    parse_quiver_spec,
    path_algebra,
    trivial_extension_dual,
)
from quiverkoszul.linalg import EchelonSpan
from quiverkoszul.quiver import Arrow, Path, PathCombination, enumerate_paths, make_quiver


@pytest.fixture
def ext2():
    return AlgebraModel(exterior(2), 4)


def test_exterior_dims_are_binomials(ext2):
    assert ext2.total_dims() == [1, 2, 1, 0, 0]


def test_exterior3_dims():
    m = AlgebraModel(exterior(3), 5)
    assert m.total_dims() == [1, 3, 3, 1, 0, 0]


def test_loop_cubed_dims():
    m = AlgebraModel(loop_cubed(), 5)
    assert m.total_dims() == [1, 1, 1, 0, 0, 0]


def test_normal_form_rewrites_to_canonical_basis(ext2):
    q = ext2.quiver
    square = q.path(["a1", "a1"])
    assert ext2.normal_form(PathCombination({square: Fraction(1)})) == {}
    # the rewrite eliminates the lex-first word: a1-then-a2 becomes
    # minus the surviving basis word a2-then-a1
    p21 = q.path(["a2", "a1"])
    p12 = q.path(["a1", "a2"])
    assert ext2.normal_form(PathCombination({p12: Fraction(1)})) == {p21: Fraction(-1)}
    assert ext2.normal_form(PathCombination({p21: Fraction(1)})) == {p21: Fraction(1)}


def test_basis_product_respects_relations(ext2):
    q = ext2.quiver
    a1 = q.path(["a1"])
    a2 = q.path(["a2"])
    p21 = q.path(["a2", "a1"])
    # basis_product(x, y) applies y first; the degree-2 basis word is a2-then-a1
    assert ext2.basis_product(a2, a1) == {p21: Fraction(-1)}
    assert ext2.basis_product(a1, a2) == {p21: Fraction(1)}
    assert ext2.basis_product(a1, a1) == {}


def test_basis_product_of_non_composable_paths_is_zero():
    line = AlgebraModel(path_algebra(parse_quiver_spec("line:3")), 3)
    b1 = line.quiver.path(["a1"])
    b2 = line.quiver.path(["a2"])
    assert line.basis_product(b2, b1) == {line.quiver.path(["a1", "a2"]): Fraction(1)}
    # endpoints do not match: the product is zero, not an error
    assert line.basis_product(b1, b2) == {}


def test_blocks_and_dim(ext2):
    assert ext2.blocks(1) == [("1", "1")]
    assert ext2.dim(1, "1", "1") == 2
    assert ext2.dim(3, "1", "1") == 0


def test_line_quiver_blocks():
    m = AlgebraModel(path_algebra(parse_quiver_spec("line:3")), 3)
    assert m.total_dims() == [3, 2, 1, 0]
    assert m.dim(1, "1", "2") == 1
    assert m.dim(1, "2", "1") == 0
    assert m.dim(2, "1", "3") == 1


def test_top_degree_and_finite_basis(ext2):
    assert ext2.top_degree() == 2
    basis = ext2.finite_basis()
    assert len(basis) == 4


def test_finite_basis_refuses_open_window():
    free_loop = path_algebra(parse_quiver_spec("loops:1"))
    m = AlgebraModel(free_loop, 4)
    assert m.top_degree() is None
    with pytest.raises(DegreeOverflowError):
        m.finite_basis()


def test_check_degree_guards_window(ext2):
    with pytest.raises(ValueError):
        ext2.basis_paths(5)


def test_relations_have_zero_normal_form_after_build():
    # constructor checks every relation reduces to zero
    AlgebraModel(exterior(3), 4)
    AlgebraModel(loop_cubed(), 4)


def test_relation_surviving_elimination_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(EchelonSpan, "add", lambda self, vec: False)
    with pytest.raises(InternalError, match="nonzero normal form"):
        AlgebraModel(exterior(2), 3)
    assert not issubclass(InternalError, ValueError)


class TestPastFirstVanishingDegree:
    """exterior(3) vanishes from degree 4 on; the window runs to 7."""

    @pytest.fixture(scope="class")
    def ext3(self):
        return AlgebraModel(exterior(3), 7)

    def test_queries_past_d0(self, ext3):
        assert ext3.total_dims() == [1, 3, 3, 1, 0, 0, 0, 0]
        assert ext3.top_degree() == 3
        q = ext3.quiver
        for d in range(4, 8):
            assert ext3.blocks(d) == [("1", "1")]
            assert ext3.dim(d, "1", "1") == 0
            assert ext3.basis_paths(d) == []
            assert ext3.total_dim(d) == 0
            paths = ext3.all_paths(d, "1", "1")
            assert paths == enumerate_paths(q, d, "1", "1")
            assert len(paths) == 3 ** d
        with pytest.raises(DegreeOverflowError):
            ext3.all_paths(8, "1", "1")

    def test_products_past_d0_and_past_the_window_are_zero(self, ext3):
        q = ext3.quiver
        top = q.path(["a1", "a2", "a3"])
        assert ext3.basis_product(top, q.path(["a1"])) == {}
        assert ext3.basis_product(top, top) == {}
        assert ext3.normal_form(q.path(["a3"] * 9)) == {}
        assert ext3.multiply(top, top) == {}

    def test_foreign_path_still_raises(self, ext3):
        stray = Arrow("z", "1", "1")
        for length in (2, 5, 9):
            with pytest.raises(ValueError, match="does not live"):
                ext3.normal_form(Path((stray,) * length))

    def test_blocks_follow_walks_on_several_vertices(self):
        p = trivial_extension_dual(parse_quiver_spec("star:4"))
        m = AlgebraModel(p, 6)
        assert m.top_degree() == 2
        index = m.quiver.vertex_index
        for d in range(7):
            walks = {(w.source, w.target) for w in enumerate_paths(m.quiver, d)}
            want = sorted(walks, key=lambda uv: (index(uv[0]), index(uv[1])))
            assert m.blocks(d) == want
            for u, v in want:
                assert m.all_paths(d, u, v) == enumerate_paths(m.quiver, d, u, v)


def test_open_window_still_overflows():
    free_loop = AlgebraModel(path_algebra(parse_quiver_spec("loops:1")), 3)
    x2 = free_loop.quiver.path(["x1", "x1"])
    assert free_loop.basis_product(free_loop.quiver.path(["x1"]), x2)
    with pytest.raises(DegreeOverflowError):
        free_loop.basis_product(x2, x2)
    with pytest.raises(DegreeOverflowError):
        free_loop.normal_form(free_loop.quiver.path(["x1"] * 4))


def test_presentation_canonical_key_ignores_relation_order():
    p = exterior(2)
    reversed_relations = list(p.relations)[::-1]
    q = Presentation(p.quiver, reversed_relations)
    assert p.canonical_key() == q.canonical_key()


def test_presentation_accepts_bare_paths():
    q = make_quiver(["1"], [("x", "1", "1")])
    p = Presentation(q, [q.path(["x", "x"])])
    m = AlgebraModel(p, 3)
    assert m.total_dims() == [1, 1, 0, 0]


def test_multiply_general_combinations(ext2):
    q = ext2.quiver
    a1 = q.path(["a1"])
    a2 = q.path(["a2"])
    left = {a1: Fraction(1), a2: Fraction(1)}
    nf = ext2.multiply(left, left)
    # (a1+a2)^2 = a1a2 + a2a1 = 0 in the exterior algebra
    assert nf == {}


class TestPolyMatrix:
    def test_identity_times_anything(self):
        labels = ("u", "v")
        ident = PolyMatrix.identity(labels, 3)
        m = PolyMatrix(labels, 3)
        m.add_term("u", "v", 1, 2)
        m.add_term("v", "v", 2, -1)
        assert ident.matmul(m).first_difference(m) is None

    def test_matmul_composes_degrees(self):
        labels = ("u",)
        a = PolyMatrix(labels, 4)
        a.add_term("u", "u", 1, 1)
        b = PolyMatrix(labels, 4)
        b.add_term("u", "u", 2, 3)
        c = a.matmul(b)
        assert c.entry("u", "u")[3] == 3
        assert c.entry("u", "u")[2] == 0

    def test_truncation_drops_overflow(self):
        labels = ("u",)
        a = PolyMatrix(labels, 2)
        a.add_term("u", "u", 2, 1)
        b = PolyMatrix(labels, 2)
        b.add_term("u", "u", 1, 1)
        c = a.matmul(b)
        assert c.entry("u", "u") == [0, 0, 0]

    def test_first_difference_reports_location(self):
        labels = ("u",)
        a = PolyMatrix(labels, 2)
        b = PolyMatrix(labels, 2)
        b.add_term("u", "u", 2, 5)
        diff = a.first_difference(b)
        assert diff is not None

    @pytest.mark.parametrize("labels,cutoff", [(("u", "v"), 2), (("u",), 3)])
    def test_matmul_rejects_a_shape_mismatch(self, labels, cutoff):
        # a raise, not an assert: python -O must not let it through
        a = PolyMatrix(("u",), 2)
        b = PolyMatrix(labels, cutoff)
        with pytest.raises(ValueError) as err:
            a.matmul(b)
        message = str(err.value)
        assert "labels ['u'] cutoff 2" in message
        assert f"labels {list(labels)} cutoff {cutoff}" in message


def test_hilbert_matrix_entries():
    m = AlgebraModel(exterior(2), 3)
    h = hilbert_matrix(m)
    poly = h.as_poly_matrix(3)
    assert poly.entry("1", "1")[0] == 1
    assert poly.entry("1", "1")[1] == 2
    assert poly.entry("1", "1")[2] == 1
    assert poly.entry("1", "1")[3] == 0


def test_hilbert_matrix_rejects_a_cutoff_past_the_window():
    h = hilbert_matrix(AlgebraModel(exterior(2), 3))
    assert h.as_poly_matrix(3).cutoff == 3
    with pytest.raises(ValueError, match="window 3 at cutoff 4"):
        h.as_poly_matrix(4)


def test_hilbert_matrix_line_quiver():
    m = AlgebraModel(path_algebra(parse_quiver_spec("line:2")), 2)
    poly = hilbert_matrix(m).as_poly_matrix(2)
    assert poly.entry("1", "1")[0] == 1
    assert poly.entry("1", "2")[1] == 1
    assert poly.entry("2", "1")[1] == 0
