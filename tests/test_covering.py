import pytest

from quiverkoszul.algebra import AlgebraModel
from quiverkoszul.corpus import exterior, loop_cubed
from quiverkoszul.covering import (
    InhomogeneousGradingError,
    WeightError,
    build_covering,
    deck_action,
    is_homogeneous_grading,
    lift_path,
    sheet_label,
    split_sheet,
)
from quiverkoszul.groups import cyclic_group, dihedral_group, direct_product


def all_one_weights(p, group):
    one = "1" if "1" in group else group.identity
    return {a.label: one for a in p.quiver.arrows}


def test_sheet_label_round_trip():
    lab = sheet_label("a1", "2")
    assert lab == "a1|2"
    assert split_sheet(lab) == ("a1", "2")
    # base labels containing the separator survive: the split takes
    # the last field
    nested = sheet_label(lab, "0")
    assert split_sheet(nested) == (lab, "0")


def test_homogeneous_grading_accepts_uniform_weights():
    p = exterior(2)
    g = cyclic_group(2)
    report = is_homogeneous_grading(p, g, all_one_weights(p, g))
    assert report.homogeneous


def test_inhomogeneous_grading_reports_witness():
    p = exterior(2)
    g = dihedral_group(3)
    weights = {"a1": "s", "a2": "c"}
    report = is_homogeneous_grading(p, g, weights)
    assert not report.homogeneous
    text = str(report)
    assert "sc" in text and "sc2" in text


def test_build_covering_counts():
    p = exterior(2)
    g = cyclic_group(3)
    cov = build_covering(p, g, all_one_weights(p, g))
    assert len(cov.quiver.vertices) == 3
    assert len(cov.quiver.arrows) == 6
    # one lift of each of the 3 relations per sheet
    assert len(cov.relations) == 9


def test_covering_arrows_follow_weights():
    p = exterior(2)
    g = cyclic_group(2)
    cov = build_covering(p, g, {"a1": "1", "a2": "1"})
    a = cov.quiver.arrow("a1|0")
    assert a.source == "1|0"
    assert a.target == "1|1"
    b = cov.quiver.arrow("a1|1")
    assert b.target == "1|0"


def test_covering_dims_multiply_by_group_order():
    p = exterior(2)
    for n in [2, 3, 4]:
        g = cyclic_group(n)
        cov = build_covering(p, g, all_one_weights(p, g))
        model = AlgebraModel(cov, 3)
        assert model.total_dims() == [n, 2 * n, n, 0]


def test_build_covering_rejects_inhomogeneous_weights():
    p = exterior(2)
    g = dihedral_group(3)
    with pytest.raises(InhomogeneousGradingError) as exc:
        build_covering(p, g, {"a1": "s", "a2": "c"})
    assert "inhomogeneous" in str(exc.value)


def test_weight_validation():
    p = exterior(2)
    g = cyclic_group(2)
    with pytest.raises(WeightError):
        build_covering(p, g, {"a1": "1"})  # missing a2
    with pytest.raises(WeightError):
        build_covering(p, g, {"a1": "1", "a2": "7"})  # not an element
    with pytest.raises(WeightError):
        build_covering(p, g, {"a1": "1", "a2": "1", "zz": "1"})  # unknown arrow


def test_lift_path_starts_on_requested_sheet():
    p = exterior(2)
    g = cyclic_group(2)
    weights = all_one_weights(p, g)
    cov = build_covering(p, g, weights)
    base = p.quiver.path(["a1", "a2"])
    lifted = lift_path(g, weights, cov.quiver, base, "1")
    assert lifted.source == "1|1"
    assert lifted.target == "1|1"  # two steps of weight 1 mod 2
    assert [a.label for a in reversed(lifted.arrows)] == ["a1|1", "a2|0"]


def test_deck_action_permutes_sheets():
    p = exterior(2)
    g = cyclic_group(3)
    cov = build_covering(p, g, all_one_weights(p, g))
    action = deck_action(cov, g)
    action.validate(cov.quiver)
    # h translates sheets on the right by h^{-1}
    moved = action.automorphism(cov.quiver, "1").apply(cov.quiver.path(["a1|0"]))
    assert [a.label for a in moved.arrows] == ["a1|2"]
    back = action.automorphism(cov.quiver, "2").apply(cov.quiver.path(["a1|0"]))
    assert [a.label for a in back.arrows] == ["a1|1"]


def test_loop_cubed_covering_relations_lift_whole_orbit():
    p = loop_cubed()
    g = cyclic_group(2)
    cov = build_covering(p, g, {"x": "1"})
    assert len(cov.quiver.vertices) == 2
    assert len(cov.quiver.arrows) == 2
    assert len(cov.relations) == 2
    model = AlgebraModel(cov, 4)
    assert model.total_dims() == [2, 2, 2, 0, 0]


def test_product_group_covering():
    p = exterior(2)
    g = direct_product(cyclic_group(2), cyclic_group(2))
    weights = {"a1": "(1,0)", "a2": "(0,1)"}
    cov = build_covering(p, g, weights)
    assert len(cov.quiver.vertices) == 4
    assert len(cov.quiver.arrows) == 8
    model = AlgebraModel(cov, 3)
    assert model.total_dims() == [4, 8, 4, 0]
