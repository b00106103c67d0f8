from fractions import Fraction

import pytest

from quiverkoszul.algebra import AlgebraModel
from quiverkoszul.corpus import exterior, loop_cubed
from quiverkoszul.covering import build_covering
from quiverkoszul.groups import GroupAction, cyclic_group, trivial_action
from quiverkoszul.linalg import EchelonSpan
from quiverkoszul.structure import (
    algebra_to_structure_constants,
    radical,
    skew_group_algebra,
    smash_product,
    verify_smash_covering_iso,
)


def ext_model(m, bound=4):
    return AlgebraModel(exterior(m), bound)


def one_weights(p, group):
    one = "1" if "1" in group else group.identity
    return {a.label: one for a in p.quiver.arrows}


def test_structure_constants_of_exterior2():
    s = algebra_to_structure_constants(ext_model(2))
    assert s.dim == 4
    s.verify()


def test_structure_constants_need_no_window_for_products():
    # exterior(3) has top degree 3, so its products reach degree 6 > 4
    s = algebra_to_structure_constants(ext_model(3, 4))
    assert s.dim == 8
    assert s.associativity_failures() == []
    assert s.unit_failures() == []


def test_structure_constants_unit_is_vertex_sum():
    s = algebra_to_structure_constants(ext_model(1))
    assert s.dim == 2
    assert s.unit_failures() == []
    assert s.associativity_failures() == []


def test_product_matches_algebra_multiplication():
    model = ext_model(2)
    s = algebra_to_structure_constants(model)
    labels = list(s.labels)
    a1 = labels.index(model.quiver.path(["a1"]))
    a2 = labels.index(model.quiver.path(["a2"]))
    prod = s.product_basis(a2, a1)  # a1 applied first
    prod_rev = s.product_basis(a1, a2)
    # both land on the degree-2 basis class with opposite signs
    assert len(prod) == len(prod_rev) == 1
    ((i, c),) = prod.items()
    ((j, d),) = prod_rev.items()
    assert i == j
    assert c == -d


def test_radical_of_exterior_is_positive_degrees():
    s = algebra_to_structure_constants(ext_model(2))
    rad = radical(s)
    assert len(rad) == 3
    expected = EchelonSpan()
    for i, lab in enumerate(s.labels):
        if lab.length:
            expected.add({i: Fraction(1)})
    got = EchelonSpan()
    for v in rad:
        got.add(v)
    assert got.equals(expected)


def test_radical_of_semisimple_is_zero():
    # vertex span only: kill both loops
    from quiverkoszul.algebra import Presentation
    from quiverkoszul.quiver import make_quiver

    q = make_quiver(["1"], [("x", "1", "1")])
    p = Presentation(q, [q.path(["x", "x"])])
    model = AlgebraModel(p, 3)
    s = algebra_to_structure_constants(model)
    assert len(radical(s)) == 1  # x itself, x^2 = 0


class TestSmashProduct:
    def test_dim_is_base_times_group(self):
        p = exterior(2)
        g = cyclic_group(2)
        s = smash_product(ext_model(2), g, one_weights(p, g))
        assert s.dim == 8
        s.verify()

    def test_weight_mismatch_kills_products(self):
        p = exterior(1)
        g = cyclic_group(2)
        model = AlgebraModel(p, 3)
        s = smash_product(model, g, {"a1": "1"})
        # (a#p_0)(a#p_0): left factor needs weight(a) = 0*0^{-1} = 0, but
        # weight(a) = 1, so the product vanishes
        labels = list(s.labels)
        a_p0 = next(
            i for i, (b, h) in enumerate(labels) if b.length == 1 and h == "0"
        )
        assert s.product_basis(a_p0, a_p0) == {}

    def test_smash_with_trivial_group_is_base(self):
        p = exterior(2)
        g = cyclic_group(1)
        model = ext_model(2)
        s = smash_product(model, g, {"a1": "0", "a2": "0"})
        base = algebra_to_structure_constants(model)
        assert s.dim == base.dim
        s.verify()

    def test_radical_dim_multiplies(self):
        p = exterior(2)
        g = cyclic_group(3)
        s = smash_product(ext_model(2), g, one_weights(p, g))
        assert len(radical(s)) == 3 * 3  # dim J = 3, |G| = 3

    def test_radical_spans_positive_degree_slices(self):
        p = exterior(1)
        g = cyclic_group(2)
        s = smash_product(ext_model(1), g, one_weights(p, g))
        rad = radical(s)
        assert len(rad) == 2
        expected = EchelonSpan()
        for i, (b, h) in enumerate(s.labels):
            if b.length:
                expected.add({i: Fraction(1)})
        got = EchelonSpan()
        for v in rad:
            got.add(v)
        assert got.equals(expected)


class TestSkewGroupAlgebra:
    def test_trivial_action_skew_is_group_algebra_tensor(self):
        model = ext_model(2)
        action = trivial_action(model.quiver)
        s = skew_group_algebra(model, action)
        assert s.dim == 4
        s.verify()

    def test_swap_action_on_exterior2(self):
        model = ext_model(2)
        g = cyclic_group(2)
        action = GroupAction(
            g,
            {"0": {"1": "1"}, "1": {"1": "1"}},
            {"0": {"a1": "a1", "a2": "a2"}, "1": {"a1": "a2", "a2": "a1"}},
        )
        s = skew_group_algebra(model, action)
        assert s.dim == 8
        s.verify()
        assert len(radical(s)) == 6

    def test_action_must_preserve_relations(self):
        p = loop_cubed()
        model = AlgebraModel(p, 4)
        action = trivial_action(model.quiver)
        s = skew_group_algebra(model, action)
        assert s.dim == 3
        s.verify()


class TestSmashCoveringIso:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3)])
    def test_iso_holds(self, m, n):
        p = exterior(m)
        g = cyclic_group(n)
        weights = one_weights(p, g)
        cov = build_covering(p, g, weights)
        cov_model = AlgebraModel(cov, 4)
        s = smash_product(ext_model(m), g, weights)
        assert verify_smash_covering_iso(cov_model, s)

    def test_size_mismatch_raises(self):
        p = exterior(2)
        cov = build_covering(p, cyclic_group(2), {"a1": "1", "a2": "1"})
        cov_model = AlgebraModel(cov, 4)
        s = smash_product(ext_model(2), cyclic_group(3), {"a1": "1", "a2": "1"})
        with pytest.raises(ValueError):
            verify_smash_covering_iso(cov_model, s)

    def test_wrong_weights_fail_product_comparison(self):
        p = exterior(2)
        g = cyclic_group(2)
        cov = build_covering(p, g, {"a1": "1", "a2": "1"})
        cov_model = AlgebraModel(cov, 4)
        # same sizes, different weight function: bijection exists but
        # structure constants disagree
        s = smash_product(ext_model(2), g, {"a1": "1", "a2": "0"})
        assert not verify_smash_covering_iso(cov_model, s)
