import math
import random

import pytest

from quiverkoszul.algebra import AlgebraModel, Presentation
from quiverkoszul.corpus import (
    exterior,
    loop_cubed,
    parse_quiver_spec,
    path_algebra,
    preprojective,
    radical_square_zero,
    trivial_extension_dual,
)
from quiverkoszul.duality import (
    NotQuadraticError,
    double_dual_check,
    dual_presentation,
    quadratic_check,
)

from random_inputs import random_presentation


def binom(n, k):
    return math.comb(n, k)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dual_of_exterior_has_symmetric_algebra_dims(m):
    dual = dual_presentation(exterior(m))
    model = AlgebraModel(dual, 5)
    # truncated polynomial dims: C(m+d-1, d)
    assert model.total_dims() == [binom(m + d - 1, d) for d in range(6)]


def test_dual_relation_count_complements():
    # exterior(2) has 3 quadratic relations in a 4-dim block
    dual = dual_presentation(exterior(2))
    assert len(dual.relations) == 1


def test_dual_of_path_algebra_is_radical_square_zero():
    line = parse_quiver_spec("line:3")
    dual = dual_presentation(path_algebra(line))
    model = AlgebraModel(dual, 3)
    # no relations to dualize: the whole degree-2 block becomes relations
    rsz = AlgebraModel(radical_square_zero(line), 3)
    # both kill every length-2 path of the reversed orientation
    assert model.total_dims() == [3, 2, 0, 0]
    assert rsz.total_dims() == [3, 2, 0, 0]


def test_dual_swaps_orientation_on_multi_vertex_quivers():
    line = parse_quiver_spec("line:2")
    dual = dual_presentation(path_algebra(line))
    a = dual.quiver.arrow("a1_op")
    assert a.source == "2"
    assert a.target == "1"


def test_quadratic_check():
    assert quadratic_check(exterior(2))
    assert quadratic_check(preprojective(parse_quiver_spec("star:4")))
    assert not quadratic_check(loop_cubed())


def test_dual_refuses_cubic_relations():
    with pytest.raises(NotQuadraticError):
        dual_presentation(loop_cubed())


@pytest.mark.parametrize(
    "p",
    [
        exterior(1),
        exterior(2),
        exterior(3),
        path_algebra(parse_quiver_spec("line:3")),
        radical_square_zero(parse_quiver_spec("loops:2")),
        preprojective(parse_quiver_spec("line:2")),
        preprojective(parse_quiver_spec("star:4")),
        trivial_extension_dual(parse_quiver_spec("star:4")),
    ],
    ids=[
        "exterior1",
        "exterior2",
        "exterior3",
        "path-line3",
        "rsz-loops2",
        "pp-line2",
        "pp-star4",
        "ted-star4",
    ],
)
def test_double_dual_is_identity(p):
    assert double_dual_check(p)


@pytest.mark.parametrize("seed", range(200))
def test_double_dual_is_identity_on_random_quadratic_parts(seed):
    p = random_presentation(random.Random(seed))
    quadratic = Presentation(p.quiver, [r for r in p.relations if r.length == 2])
    assert double_dual_check(quadratic)


def test_dual_of_trivial_extension_matches_preprojective_dims():
    star = parse_quiver_spec("star:4")
    dual = dual_presentation(trivial_extension_dual(star))
    dual_model = AlgebraModel(dual, 3)
    pp_model = AlgebraModel(preprojective(star), 3)
    assert dual_model.total_dims() == pp_model.total_dims()
