import pytest

from quiverkoszul.corpus import exterior
from quiverkoszul.groups import (
    FiniteGroup,
    GroupAction,
    GroupError,
    cyclic_group,
    dihedral_group,
    direct_product,
    trivial_action,
)
from quiverkoszul.quiver import Quiver


def test_cyclic_group_basics():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == "0"
    assert g.multiply("1", "3") == "0"
    assert g.inverse("3") == "1"
    assert all(g.multiply(x, y) == g.multiply(y, x) for x in g.elements for y in g.elements)
    assert "2" in g
    assert "4" not in g


def test_cyclic_group_rejects_nonpositive_order():
    with pytest.raises(GroupError):
        cyclic_group(0)


def test_direct_product_labels_and_law():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.identity == "(0,0)"
    assert g.multiply("(1,2)", "(1,2)") == "(0,1)"
    assert g.inverse("(1,1)") == "(1,2)"
    assert all(g.multiply(x, y) == g.multiply(y, x) for x in g.elements for y in g.elements)


def test_nested_product_labels():
    g = direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2)))
    assert g.order == 8
    assert g.identity == "(0,(0,0))"


def test_dihedral_group_relations():
    g = dihedral_group(3)
    assert g.order == 6
    assert g.identity == "e"
    assert g.multiply("s", "s") == "e"
    assert g.multiply("c", "c2") == "e"
    # s c s = c^{-1}
    assert g.multiply(g.multiply("s", "c"), "s") == "c2"
    assert g.multiply("s", "c") != g.multiply("c", "s")


def test_dihedral_two_is_klein_four():
    g = dihedral_group(2)
    assert g.order == 4
    assert all(g.multiply(x, y) == g.multiply(y, x) for x in g.elements for y in g.elements)
    assert all(g.multiply(x, x) == "e" for x in ["e", "c", "s", "sc"])


def test_group_index_is_stable_enumeration():
    g = cyclic_group(3)
    assert [g.index(x) for x in ["0", "1", "2"]] == [0, 1, 2]


def test_finite_group_validates_table():
    # broken table: not a latin square
    with pytest.raises(GroupError):
        FiniteGroup(["e", "x"], {("e", "e"): "e", ("e", "x"): "x",
                                 ("x", "e"): "x", ("x", "x"): "x"})


def test_group_action_validates_structure():
    q = exterior(2).quiver
    g = cyclic_group(2)
    # swap the two loops
    action = GroupAction(
        g,
        {"0": {"1": "1"}, "1": {"1": "1"}},
        {"0": {"a1": "a1", "a2": "a2"}, "1": {"a1": "a2", "a2": "a1"}},
    )
    action.validate(q)


def test_group_action_identity_must_fix_everything():
    q = exterior(2).quiver
    g = cyclic_group(2)
    bad = GroupAction(
        g,
        {"0": {"1": "1"}, "1": {"1": "1"}},
        {"0": {"a1": "a2", "a2": "a1"}, "1": {"a1": "a1", "a2": "a2"}},
    )
    with pytest.raises(GroupError):
        bad.validate(q)


def test_group_action_must_respect_composition():
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1"), ("z", "1", "1")])
    g = cyclic_group(3)
    # rotation by one step each generator power: consistent
    rot = GroupAction(
        g,
        {k: {"1": "1"} for k in ["0", "1", "2"]},
        {
            "0": {"x": "x", "y": "y", "z": "z"},
            "1": {"x": "y", "y": "z", "z": "x"},
            "2": {"x": "z", "y": "x", "z": "y"},
        },
    )
    rot.validate(q)
    # inconsistent: "2" is not "1" applied twice
    broken = GroupAction(
        g,
        {k: {"1": "1"} for k in ["0", "1", "2"]},
        {
            "0": {"x": "x", "y": "y", "z": "z"},
            "1": {"x": "y", "y": "z", "z": "x"},
            "2": {"x": "x", "y": "y", "z": "z"},
        },
    )
    with pytest.raises(GroupError):
        broken.validate(q)


def test_apply_to_path_acts_arrowwise():
    q = exterior(2).quiver
    g = cyclic_group(2)
    action = GroupAction(
        g,
        {"0": {"1": "1"}, "1": {"1": "1"}},
        {"0": {"a1": "a1", "a2": "a2"}, "1": {"a1": "a2", "a2": "a1"}},
    )
    p = q.path(["a1", "a2"])
    moved = action.automorphism(q, "1").apply(p)
    assert [a.label for a in reversed(moved.arrows)] == ["a2", "a1"]


def test_trivial_action_fixes_all():
    q = exterior(2).quiver
    action = trivial_action(q)
    action.validate(q)
    p = q.path(["a1"])
    e = action.group.identity
    assert action.automorphism(q, e).apply(p) == p
