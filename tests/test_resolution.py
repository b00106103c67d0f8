import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest

from quiverkoszul.algebra import (
    AlgebraModel,
    InternalError,
    Presentation,
    transport_word_map,
)
from quiverkoszul.cli import main
from quiverkoszul.corpus import (
    corpus_instances,
    example1,
    example2,
    exterior,
    loop_cubed,
    parse_quiver_spec,
    path_algebra,
    preprojective,
    radical_square_zero,
    trivial_extension_dual,
)
from quiverkoszul.covering import build_covering, deck_action
from quiverkoszul.duality import dual_presentation, quadratic_check
from quiverkoszul.groups import cyclic_group
from quiverkoszul.linalg import ZERO, ColumnSolver, EchelonSpan
from quiverkoszul.quiver import (
    Path,
    Quiver,
    QuiverAutomorphism,
    rooted_isomorphism,
    trivial_path,
)
from quiverkoszul.resolution import (
    FAILS_AT,
    KOSZUL_TO_BOUND,
    UNKNOWN_BEYOND_BOUND,
    ExtAlgebra,
    Generator,
    SimpleResolution,
    _arrow_ranks,
    _degree_coords,
    _diff_image,
    generation_check,
    hilbert_euler_check,
    koszul_duality_dim_check,
    resolution_sizes,
    resolve,
    theorem_covering_check,
)
from quiverkoszul.serialization import serialize_presentation
from random_inputs import random_presentation
from yoneda import ExtElement, YonedaAlgebra, expanded


def binom(n, k):
    return math.comb(n, k)


@pytest.fixture(scope="module")
def ext2_report():
    model = AlgebraModel(exterior(2), 5)
    return resolve(model, 5)


@pytest.fixture(scope="module")
def loop3_report():
    model = AlgebraModel(loop_cubed(), 6)
    return resolve(model, 4)


class TestExteriorResolution:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_linear_resolution_with_binomial_betti(self, m):
        model = AlgebraModel(exterior(m), 5)
        report = resolve(model, 5)
        verdict = report.verdict()
        assert verdict.status == KOSZUL_TO_BOUND
        for i in range(6):
            assert report.betti_total(i, i) == binom(m + i - 1, i)
            assert report.ext_total(i) == binom(m + i - 1, i)

    def test_off_diagonal_betti_vanish(self, ext2_report):
        for (_, i, d, _), n in ext2_report.betti.items():
            assert d == i or n == 0

    def test_step_linear(self, ext2_report):
        assert all(ext2_report.step_linear(i) for i in range(6))
        assert ext2_report.first_failure() is None


class TestLoopCubed:
    def test_fails_at_2_3(self, loop3_report):
        verdict = loop3_report.verdict()
        assert verdict.status == FAILS_AT
        assert verdict.witness == (2, 3)
        assert str(verdict) == "fails-at(2,3)"

    def test_betti_positions(self, loop3_report):
        positions = sorted(
            (i, d) for (_, i, d, _), n in loop3_report.betti.items() if n
        )
        assert positions == [(0, 0), (1, 1), (2, 3), (3, 4), (4, 6)]

    def test_generation_fails_at_step_1(self, loop3_report):
        ext = ExtAlgebra(loop3_report)
        gen = generation_check(ext)
        assert not gen.passed
        assert gen.first_failure_i == 1
        step1 = next(s for s in gen.steps if s[0] == 1)
        assert step1 == (1, 0, 1)  # products span 0 of the 1 class above

    def test_covering_inherits_failure(self):
        cov = build_covering(loop_cubed(), cyclic_group(2), {"x": "1"})
        model = AlgebraModel(cov, 6)
        report = resolve(model, 4)
        verdict = report.verdict()
        assert verdict.status == FAILS_AT
        assert verdict.witness == (2, 3)


def test_verdict_unknown_when_degree_window_short():
    model = AlgebraModel(exterior(2), 2)
    report = resolve(model, 5)
    assert report.verdict().status == UNKNOWN_BEYOND_BOUND


def test_max_degree_0_resolves_to_step_0():
    # the window holds no arrow, so no step past 0 has a generator
    report = resolve(AlgebraModel(exterior(2), 0), 1)
    assert report.ext_totals() == [1, 0]


def test_semisimple_algebra_resolves_immediately():
    model = AlgebraModel(path_algebra(parse_quiver_spec("line:1")), 2)
    report = resolve(model, 2)
    assert report.verdict().status == KOSZUL_TO_BOUND
    assert report.ext_totals() == [1, 0, 0]


def test_line2_resolution_stops_after_one_step():
    model = AlgebraModel(path_algebra(parse_quiver_spec("line:2")), 3)
    report = resolve(model, 3)
    assert report.ext_totals() == [2, 1, 0, 0]
    assert report.verdict().status == KOSZUL_TO_BOUND


def test_radical_square_zero_two_loops_is_koszul():
    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:2")), 4)
    report = resolve(model, 4)
    assert report.verdict().status == KOSZUL_TO_BOUND
    # free quadratic growth: 2^i classes at step i
    assert report.ext_totals() == [1, 2, 4, 8, 16]


def test_each_step_builds_its_block_coordinates_once(monkeypatch):
    from quiverkoszul import resolution

    calls = []
    degree_coords = resolution._degree_coords

    def counted(model, gens, D, *window):
        calls.append((id(gens), D))
        return degree_coords(model, gens, D, *window)

    cover = build_covering(
        radical_square_zero(parse_quiver_spec("loops:2")), cyclic_group(3),
        {"x1": "1", "x2": "2"},
    )
    monkeypatch.setattr(resolution, "_degree_coords", counted)
    report = resolve(AlgebraModel(cover, 6), 5)
    assert report.ext_totals() == [3 * 2 ** i for i in range(6)]
    # the gens lists stay alive in the report, so their ids name the steps
    assert calls and len(calls) == len(set(calls))


class TestHilbertEuler:
    def test_exterior(self, ext2_report):
        model = ext2_report.model
        ok, witness = hilbert_euler_check(ext2_report, 5)
        assert ok and witness is None

    def test_loop_cubed_holds_despite_non_koszul(self, loop3_report):
        ok, witness = hilbert_euler_check(loop3_report, 4)
        assert ok and witness is None

    def test_a2_identity(self):
        model = AlgebraModel(path_algebra(parse_quiver_spec("line:2")), 3)
        report = resolve(model, 3)
        ok, witness = hilbert_euler_check(report, 3)
        assert ok and witness is None

    def test_extra_betti_count_names_the_first_wrong_entry(self):
        model = AlgebraModel(path_algebra(parse_quiver_spec("line:2")), 3)
        report = resolve(model, 3)
        # a step-1 generator of S(2) in degree 2 at vertex 1 puts -t^2 at
        # (2, 1) of the alternating Betti matrix; times the Hilbert row of
        # vertex 1 (1 at (1, 1), t at (1, 2)) it gives -t^2 at (2, 1) and
        # -t^3 at (2, 2), and (2, 1) comes first in label order
        report.betti[("2", 1, 2, "1")] = 1
        assert hilbert_euler_check(report, 3) == (False, ("2", "1", 2, -1, 0))

    def test_cutoff_beyond_window_rejected(self, ext2_report):
        with pytest.raises(ValueError):
            hilbert_euler_check(ext2_report, 6)

    def test_negative_cutoff_rejected(self, ext2_report):
        # truncating to no terms would make both sides empty and "equal"
        with pytest.raises(ValueError, match="cutoff -1"):
            hilbert_euler_check(ext2_report, -1)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_presentations(self, seed):
        model = AlgebraModel(random_presentation(random.Random(seed)), 5)
        ok, witness = hilbert_euler_check(resolve(model, 5), 5)
        assert ok and witness is None, witness


def test_duality_dims_exterior2(ext2_report):
    dual = dual_presentation(exterior(2))
    dual_model = AlgebraModel(dual, 5)
    ok, witness = koszul_duality_dim_check(dual_model, ext2_report)
    assert ok and witness is None


def test_duality_dims_requires_clean_verdict(loop3_report):
    dual_model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:1")), 4)
    with pytest.raises(ValueError):
        koszul_duality_dim_check(dual_model, loop3_report)


class TestCoveringTheorem:
    def test_exterior2_z2(self):
        outcome = theorem_covering_check(
            exterior(2), cyclic_group(2), {"a1": "1", "a2": "1"}, 4, 4
        )
        assert outcome.passed
        assert outcome.group_order == 2
        assert outcome.base_verdict.status == KOSZUL_TO_BOUND
        assert outcome.cover_verdict.status == KOSZUL_TO_BOUND
        assert outcome.mismatches == []

    def test_loop_cubed_verdicts_agree_including_witness(self):
        outcome = theorem_covering_check(
            loop_cubed(), cyclic_group(2), {"x": "1"}, 3, 4
        )
        assert outcome.base_verdict.witness == (2, 3)
        assert outcome.cover_verdict.witness == (2, 3)


class TestExtAlgebra:
    def test_ext_basis_sizes(self, ext2_report):
        ext = YonedaAlgebra(ext2_report)
        for i in range(5):
            assert len(ext.ext_basis(i)) == ext2_report.ext_total(i)

    @pytest.mark.parametrize("step", [-1, 4])
    def test_step_outside_the_window_is_a_named_error(self, step):
        ext = YonedaAlgebra(resolve(AlgebraModel(exterior(2), 4), 3))
        assert [ext.ext_dim(i) for i in range(4)] == [1, 2, 3, 4]
        pattern = f"step {step} outside the window 0..3"
        with pytest.raises(ValueError, match=pattern):
            ext.ext_dim(step)
        with pytest.raises(ValueError, match=pattern):
            ext.ext_basis(step)

    def test_identity_acts_as_unit(self, ext2_report):
        ext = YonedaAlgebra(ext2_report)
        unit = ext.ext_basis(0)[0]
        for xi in ext.ext_basis(2):
            assert ext.yoneda_product(xi, unit) == xi
            assert ext.yoneda_product(unit, xi) == xi

    def test_degree_one_products_commute_for_exterior(self, ext2_report):
        # cohomology of the exterior algebra is the polynomial ring
        ext = YonedaAlgebra(ext2_report)
        y1, y2 = ext.ext_basis(1)
        p12 = ext.yoneda_product(y1, y2)
        p21 = ext.yoneda_product(y2, y1)
        assert p12 == p21
        assert p12.step == 2
        assert any(c for c in p12.values.values())

    def test_products_span_next_step(self, ext2_report):
        ext = ExtAlgebra(ext2_report)
        gen = generation_check(ext)
        assert gen.passed
        assert gen.checked_to == 5

    def test_yoneda_associativity_on_degree_one(self, ext2_report):
        ext = YonedaAlgebra(ext2_report)
        basis1 = ext.ext_basis(1)
        for x in basis1:
            for y in basis1:
                xy = ext.yoneda_product(x, y)
                for z in basis1:
                    yz = ext.yoneda_product(y, z)
                    left = ext.yoneda_product(xy, z)
                    right = ext.yoneda_product(x, yz)
                    assert left == right

    def test_ext_element_coerces_values(self):
        e = ExtElement(1, {0: Fraction(2, 2), 1: Fraction(1, 2), 2: 0})
        assert e.values == {0: 1, 1: Fraction(1, 2)}
        assert [type(c) for c in e.values.values()] == [int, Fraction]


def test_generation_agrees_with_linearity_for_exterior(ext2_report):
    # the two Koszulity views must agree on these instances
    ext = ExtAlgebra(ext2_report)
    gen = generation_check(ext)
    assert gen.passed == (ext2_report.verdict().status == KOSZUL_TO_BOUND)


# -- the support-seeded lift against the scanning reference ---------------------


def _scanning_lift(ext, xi, steps):
    """The lift as first written: seed by scanning every step-i generator,
    and in each step scan every generator and every differential entry."""
    i, model = xi.step, ext.model
    W = len(model.words)
    phi = {}
    for k, g in enumerate(ext.gens[i]):
        c = xi.values.get(k, ZERO)
        if c:
            e = model.word_ids[trivial_path(g.vertex)]
            phi[k] = {ext._gen0_index[g.vertex] * W + e: c}
    for step in range(1, steps + 1):
        nxt = {}
        for gpp, g in enumerate(ext.gens[i + step]):
            rhs = {}
            off, entry = ext.diffs[i + step][gpp]
            for key, c in entry.items():
                l, b = divmod(key, W)
                prev_elem = phi.get(off + l)
                if not prev_elem:
                    continue
                for key2, c2 in prev_elem.items():
                    l2, b2 = divmod(key2, W)
                    for m, cm in model.product(b, b2).items():
                        key = l2 * W + m
                        s = rhs.get(key, ZERO) + c * c2 * cm
                        if s:
                            rhs[key] = s
                        else:
                            del rhs[key]
            if not rhs:
                continue
            by_degree = {}
            for key, c in rhs.items():
                l2, m = divmod(key, W)
                D = ext.gens[step - 1][l2].degree + model.lengths[m]
                by_degree.setdefault(D, {})[key] = c
            solution = {}
            for D, block_rhs in by_degree.items():
                cur = ext._coords(step, D, g.vertex)
                coords = ext._solver(step, D, g.vertex).solve(block_rhs)
                if coords is None:
                    raise InternalError(f"not exact at step {step}, degree {D}")
                for pos, c in coords.items():
                    if c:
                        key = cur[pos]
                        s = solution.get(key, ZERO) + c
                        if s:
                            solution[key] = s
                        else:
                            del solution[key]
            if solution:
                nxt[gpp] = solution
        phi = nxt
    return phi


def _loops2():
    return radical_square_zero(parse_quiver_spec("loops:2"))


def _cyclic_cover(p, order, weights):
    """The covering over Z_order with the arrows weighted in quiver order."""
    labels = [a.label for a in p.quiver.arrows]
    return build_covering(p, cyclic_group(order), dict(zip(labels, weights)))


_LIFT_CASES = {
    "exterior3": lambda: (exterior(3), 5, 5),
    "loops2": lambda: (_loops2(), 5, 5),
    "loops2-Z3-cover": lambda: (
        build_covering(_loops2(), cyclic_group(3), {"x1": "1", "x2": "2"}), 5, 5),
    "loop-cubed": lambda: (loop_cubed(), 5, 6),
    "preprojective-line4": lambda: (preprojective(parse_quiver_spec("line:4")), 5, 5),
}


@pytest.mark.parametrize("name", sorted(_LIFT_CASES))
def test_lift_matches_scanning_reference(name):
    p, i_max, d_max = _LIFT_CASES[name]()
    ext = YonedaAlgebra(resolve(AlgebraModel(p, d_max), i_max))
    compared = 0
    for steps in (1, 2, 3):
        for i in range(ext.i_max - steps + 1):
            basis = ext.ext_basis(i)
            # the basis classes, and one class whose support is the whole step
            mixed = ExtElement(i, {k: Fraction(k + 1, 2) for k in range(len(basis))})
            for xi in basis + [mixed]:
                got = ext._lift(xi, steps)
                assert got == _scanning_lift(ext, xi, steps)
                compared += bool(got)
    assert compared > 0


def test_yoneda_associativity_across_steps():
    model = AlgebraModel(_loops2(), 4)
    ext = YonedaAlgebra(resolve(model, 4))
    for x in ext.ext_basis(1):
        for y in ext.ext_basis(2):
            xy = ext.yoneda_product(x, y)
            assert not xy.is_zero()
            for z in ext.ext_basis(1):
                left = ext.yoneda_product(xy, z)
                right = ext.yoneda_product(x, ext.yoneda_product(y, z))
                assert left.step == 4
                assert left == right


@pytest.mark.parametrize("bad", [-1, 2, 7, Fraction(1)])
def test_foreign_index_is_a_named_error(ext2_report, bad):
    ext = YonedaAlgebra(ext2_report)
    y1, _ = ext.ext_basis(1)
    foreign = ExtElement(1, {0: 1, bad: 1})
    pattern = re.escape(f"xi has index {bad!r} outside the step-1 basis of size 2")
    with pytest.raises(ValueError, match=pattern):
        ext._lift(foreign, 1)
    with pytest.raises(ValueError, match=pattern):
        ext.yoneda_product(foreign, y1)
    with pytest.raises(ValueError, match=pattern.replace("xi", "zeta")):
        ext.yoneda_product(y1, foreign)


def test_negative_step_is_a_named_error(ext2_report):
    ext = YonedaAlgebra(ext2_report)
    y1, _ = ext.ext_basis(1)
    with pytest.raises(ValueError, match="xi at step -1 outside the window 0..5"):
        ext.yoneda_product(ExtElement(-1, {0: 1}), y1)
    with pytest.raises(ValueError, match="zeta at step -1 outside the window"):
        ext.yoneda_product(y1, ExtElement(-1, {0: 1}))


def test_product_past_the_window_is_a_named_error():
    ext = YonedaAlgebra(resolve(AlgebraModel(exterior(2), 4), 4))
    xi, zeta = ext.ext_basis(3)[:2]
    with pytest.raises(ValueError, match="leaves the homological window"):
        ext.yoneda_product(xi, zeta)


def test_inexact_lift_is_an_internal_error(monkeypatch, ext2_report):
    # an exact resolution always solves its lifting systems; pretend not
    ext = YonedaAlgebra(ext2_report)
    monkeypatch.setattr(ColumnSolver, "solve", lambda self, vec: None)
    y1, y2 = ext.ext_basis(1)
    with pytest.raises(InternalError, match="resolution fails to be exact"):
        ext.yoneda_product(y1, y2)


# -- generation against its definition: the rank of the Yoneda products --------


def _generation_steps_by_products(ext):
    steps = []
    for i in range(ext.i_max):
        span = EchelonSpan()
        for xi in ext.ext_basis(i):
            for zeta in ext.ext_basis(1):
                span.add(ext.yoneda_product(xi, zeta).values)
        steps.append((i, span.rank, ext.ext_dim(i + 1)))
    return steps


def _assert_generation_is_product_rank(presentation, i_max, d_max):
    ext = YonedaAlgebra(resolve(AlgebraModel(presentation, d_max), i_max))
    want = _generation_steps_by_products(ext)
    got = generation_check(ext)
    assert got.steps == want
    assert got.passed == all(a == r for _, a, r in want)


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_generation_is_the_product_rank_on_the_corpus(presentation):
    _assert_generation_is_product_rank(presentation, 4, 5)


@pytest.mark.parametrize("seed", range(40))
def test_generation_is_the_product_rank_on_random_presentations(seed):
    _assert_generation_is_product_rank(random_presentation(random.Random(seed)), 4, 5)


# -- generation per resolved simple against one rank over the whole bundle ------


def _generation_by_bundle_rank(ext):
    """(steps, passed, first_failure_i) from one rank per step over the
    arrow parts of every step-(i+1) bundle column, at its bundle offset."""
    steps, first_fail = [], None
    lengths, W = ext.model.lengths, len(ext.model.words)
    for i in range(ext.i_max):
        span, position = EchelonSpan(), {}
        for off, entry in ext.diffs[i + 1]:
            part = {}
            for key, c in entry.items():
                l, b = divmod(key, W)
                if lengths[b] == 1:
                    part[position.setdefault((off + l, b), len(position))] = c
            span.add(part)
        required = len(ext.gens[i + 1])
        steps.append((i, span.rank, required))
        if span.rank != required and first_fail is None:
            first_fail = i
    return steps, first_fail is None, first_fail


def _assert_generation_is_bundle_rank(presentation, i_max, d_max):
    ext = YonedaAlgebra(resolve(AlgebraModel(presentation, d_max), i_max))
    got = generation_check(ext)
    assert (got.steps, got.passed, got.first_failure_i) == \
        _generation_by_bundle_rank(ext)
    return got


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_generation_per_simple_is_the_bundle_rank_on_the_corpus(presentation):
    _assert_generation_is_bundle_rank(presentation, 5, 5)


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label + "-Z2" for label, _ in corpus_instances()],
)
def test_generation_per_simple_is_the_bundle_rank_on_z2_covers(presentation):
    _assert_generation_is_bundle_rank(_z2_cover(presentation), 5, 5)


@pytest.mark.parametrize("seed", range(150))
def test_generation_per_simple_is_the_bundle_rank_on_random_presentations(seed):
    p = random_presentation(random.Random(5000 + seed))
    _assert_generation_is_bundle_rank(p, 5, 5)


def test_generation_per_simple_is_the_bundle_rank_on_loop_cubed():
    got = _assert_generation_is_bundle_rank(loop_cubed(), 12, 12)
    assert (got.passed, got.first_failure_i) == (False, 1)


def test_generation_rank_drops_single_entry_coordinates_from_the_other_parts():
    # arrow parts e_a, e_b, 3·e_a and e_a - e_b span two dimensions; the
    # length-2 coordinate is not an arrow part
    model = AlgebraModel(path_algebra(parse_quiver_spec("loops:2")), 2)
    x1, x2 = model.quiver.arrows
    a, b = model.arrow_ids[x1], model.arrow_ids[x2]
    aa = model.word_ids[Path((x1, x1))]
    W = len(model.words)
    step = [{a: 1}, {b: 1, W + aa: 5}, {a: 3}, {a: 1, b: -1}]
    assert _arrow_ranks(SimpleNamespace(model=model, diffs=[[], step]), 1) == [2]


def test_generation_ranks_each_resolved_simple_once(monkeypatch):
    from quiverkoszul import resolution

    ranked = []
    arrow_ranks = resolution._arrow_ranks

    def spy(res, i_max):
        ranked.append(res.vertex)
        return arrow_ranks(res, i_max)

    monkeypatch.setattr(resolution, "_arrow_ranks", spy)
    cover = build_covering(_loops2(), cyclic_group(3), {"x1": "1", "x2": "2"})
    report = resolve(AlgebraModel(cover, 6), 5)
    gen = generation_check(ExtAlgebra(report))
    # one simple resolved, the deck group relabels it onto the other two
    assert len(report.transported) == 2
    assert ranked == [v for v in cover.quiver.vertices if v not in report.transported]
    assert gen.steps == [(i, 3 * 2 ** (i + 1), 3 * 2 ** (i + 1)) for i in range(5)]


# -- one simple per automorphism orbit, the others relabelled ------------------


def _z2_cover(p):
    """The Z2 covering with every arrow weighted by the generator."""
    return build_covering(p, cyclic_group(2), {a.label: "1" for a in p.quiver.arrows})


def _orbit_covers():
    ext4 = exterior(4)
    return {
        "loops2-Z3": (build_covering(_loops2(), cyclic_group(3),
                                     {"x1": "1", "x2": "2"}), 5, 5),
        "exterior4-Z3": (build_covering(ext4, cyclic_group(3), dict(zip(
            [a.label for a in ext4.quiver.arrows], "0112"))), 4, 5),
        "exterior2-Z2": (_z2_cover(exterior(2)), 4, 5),
        "example2(2,1,3)-Z2": (_z2_cover(example2(2, 1, 3)), 4, 4),
    }


def _bundle_image(ext, step, vec):
    """The step-``step`` differential of a bundle element, in step-(step-1)
    bundle coordinates."""
    out, W = {}, len(ext.model.words)
    for key, c in vec.items():
        g, b = divmod(key, W)
        off, entry = ext.diffs[step][g]
        for lm, cm in _diff_image(ext.model, entry, b).items():
            key = off * W + lm
            s = out.get(key, ZERO) + c * cm
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _assert_transported_square_to_zero(report):
    W = len(report.model.words)
    for u in report.transported:
        diffs = [[expanded(e) for e in step] for step in report.per_simple[u].diffs]
        for i in range(2, report.i_max + 1):
            for entry in diffs[i]:
                dd = {}
                for key, c in entry.items():
                    l, b = divmod(key, W)
                    for lm, cm in _diff_image(report.model, diffs[i - 1][l], b).items():
                        dd[lm] = dd.get(lm, ZERO) + c * cm
                assert not any(dd.values())


@pytest.mark.parametrize("name", sorted(_orbit_covers()))
def test_orbit_transported_resolutions_are_exact(name):
    p, i_max, d_max = _orbit_covers()[name]
    model = AlgebraModel(p, d_max)
    report = resolve(model, i_max)
    # the deck group moves the simples, so some are relabelled
    assert len(report.transported) > 0
    _assert_transported_square_to_zero(report)
    # ker d_s lies in im d_{s+1} on every block of the bundle, and the
    # augmentation's kernel (the radical of P_0) in im d_1
    ext = YonedaAlgebra(report)
    checked, W = 0, len(model.words)
    for s in range(i_max):
        for D in range(1, d_max + 1):
            for w in model.quiver.vertices:
                cur = ext._coords(s, D, w)
                if s == 0:
                    kernels = [{key: 1} for key in cur]
                else:
                    solver = ColumnSolver(len(ext.gens[s - 1]) * W)
                    kernels = []
                    for key in cur:
                        image = _bundle_image(ext, s, {key: 1})
                        kernel = solver.add_column(image)
                        if kernel is not None:
                            kernels.append({cur[p]: c for p, c in kernel.items()})
                for vec in kernels:
                    lift = ext._preimage(s + 1, w, vec)
                    assert _bundle_image(ext, s + 1, lift) == vec
                    checked += 1
    assert checked > 0


def _direct_betti(model, i_max):
    betti = {}
    for u in model.quiver.vertices:
        for i, gens in enumerate(SimpleResolution(model, u, i_max).gens):
            for g in gens:
                key = (u, i, g.degree, g.vertex)
                betti[key] = betti.get(key, 0) + 1
    return betti


# cases whose quiver has disjoint pieces, or vertices that reach only part of
# it, so no automorphism of the whole quiver moves their simples
_ROOTED_ONLY = ("path_algebra(star:4)", "radical_square_zero(star:4)",
                "exterior2-Z3-trivial")


def _orbit_betti_cases():
    cases = {}
    for label, p in corpus_instances():
        cases[label] = p
        cases[label + "-Z2"] = _z2_cover(p)
    covers = _orbit_covers()
    for label in ("loops2-Z3", "exterior4-Z3"):
        cases[label] = covers[label][0]
    star = parse_quiver_spec("star:4")
    cases["path_algebra(star:4)"] = path_algebra(star)
    cases["radical_square_zero(star:4)"] = radical_square_zero(star)
    cases["exterior2-Z3-trivial"] = build_covering(
        exterior(2), cyclic_group(3), {"a1": "0", "a2": "0"})
    return cases


@pytest.mark.parametrize("name", sorted(_orbit_betti_cases()))
def test_orbit_transport_keeps_the_betti_table(name):
    model = AlgebraModel(_orbit_betti_cases()[name], 4)
    report = resolve(model, 3)
    assert report.betti == _direct_betti(model, 3)
    for u in report.transported:
        assert report.per_simple[u].vertex == u
    # the deck group moves the simples of every covering
    if name.endswith("-Z2") or name in _ROOTED_ONLY:
        assert report.transported


def _reached(q, start):
    seen, pending = {start}, [start]
    while pending:
        for a in q.arrows_by_source[pending.pop()]:
            if a.target not in seen:
                seen.add(a.target)
                pending.append(a.target)
    return seen


@pytest.mark.parametrize("name", sorted(_orbit_covers()))
def test_orbit_rooted_isomorphisms_restrict_every_deck_map(name):
    p, _, d_max = _orbit_covers()[name]
    q = p.quiver
    group = {"Z3": cyclic_group(3), "Z2": cyclic_group(2)}[name[-2:]]
    action = deck_action(p, group)
    model = AlgebraModel(p, d_max)
    for h in group.elements:
        deck = action.automorphism(q, h)
        for u in q.vertices:
            sigma = rooted_isomorphism(q, u, deck.vertices[u])
            reached = _reached(q, u)
            assert sigma.vertices == {x: deck.vertices[x] for x in reached}
            assert sigma.arrows == {
                a: b for a, b in deck.arrows.items() if a.source in reached}
            assert transport_word_map(model, sigma) is not None


def _forced_arrow_map(q, vmap):
    """The k-th arrow leaving x to the k-th arrow leaving vmap[x], over the
    domain of vmap, or None when it breaks incidence."""
    amap = {}
    for x in vmap:
        outs, images = q.arrows_by_source[x], q.arrows_by_source[vmap[x]]
        if len(outs) != len(images):
            return None
        amap.update(zip(outs, images))
    if all(vmap[a.target] == b.target for a, b in amap.items()):
        return amap
    return None


def _automorphisms_by_brute_force(q):
    """Every vertex permutation whose forced arrow map respects incidence."""
    found = []
    for image in itertools.permutations(q.vertices):
        vmap = dict(zip(q.vertices, image))
        amap = _forced_arrow_map(q, vmap)
        if amap is not None:
            found.append((vmap, amap))
    return found


def _rooted_by_brute_force(q, u, t):
    """Every bijection from the vertices reached from u onto those reached
    from t that sends u to t and whose forced arrow map respects incidence."""
    domain = sorted(_reached(q, u) - {u})
    codomain = sorted(_reached(q, t) - {t})
    if len(domain) != len(codomain):
        return []
    found = []
    for image in itertools.permutations(codomain):
        vmap = {u: t, **dict(zip(domain, image))}
        amap = _forced_arrow_map(q, vmap)
        if amap is not None:
            found.append((vmap, amap))
    return found


@pytest.mark.parametrize("seed", range(60))
def test_orbit_rooted_isomorphism_matches_brute_force_on_random_quivers(seed):
    # a Z_k-covering of a random quiver has symmetry to find; shuffling its
    # arrows or adding one may keep, break or scramble that symmetry
    rng = random.Random(900 + seed)
    m = rng.randint(1, 3)
    k = rng.randint(1, 2 if m == 3 else 3)
    base = [(f"a{j}", rng.randrange(m), rng.randrange(m), rng.randrange(k))
            for j in range(rng.randint(1, 4))]
    vertices = [f"{v}.{g}" for v in range(m) for g in range(k)]
    arrows = [(f"{a}.{g}", f"{x}.{g}", f"{y}.{(g + w) % k}")
              for a, x, y, w in base for g in range(k)]
    if rng.random() < 0.5:
        rng.shuffle(arrows)
    if rng.random() < 0.3:
        arrows.append(("extra", rng.choice(vertices), rng.choice(vertices)))
    q = Quiver(vertices, arrows)
    for u in q.vertices:
        for t in q.vertices:
            sigma = rooted_isomorphism(q, u, t)
            got = [] if sigma is None else [(sigma.vertices, sigma.arrows)]
            assert got == _rooted_by_brute_force(q, u, t)
    # every whole-quiver automorphism is still found, piece by piece
    for vmap, amap in _automorphisms_by_brute_force(q):
        for u in q.vertices:
            sigma = rooted_isomorphism(q, u, vmap[u])
            reached = _reached(q, u)
            assert sigma.vertices == {x: vmap[x] for x in reached}
            assert sigma.arrows == {a: b for a, b in amap.items() if a.source in reached}


def _leaf_swap(q):
    """preprojective(star:4)'s swap of leaves l1 and l2, fixing the centre."""
    vertices = {v: {"l1": "l2", "l2": "l1"}.get(v, v) for v in q.vertices}
    swap = {"a1": "a2", "a2": "a1", "a1*": "a2*", "a2*": "a1*"}
    arrows = {a: q.arrow(swap.get(a.label, a.label)) for a in q.arrows}
    return QuiverAutomorphism(vertices, arrows)


def test_orbit_leaf_swap_reorders_the_centre_and_is_rejected():
    p = preprojective(parse_quiver_spec("star:4"))
    q = p.quiver
    swap = _leaf_swap(q)
    # a quiver automorphism that keeps the ideal, but a1*, a2* leave the
    # centre in the other order, so lex order and the basis are not kept
    model = AlgebraModel(p, 4)
    assert transport_word_map(model, swap) is None
    # the rooted map from l1 sends the centre's arrows to themselves, which
    # sends l1 to both l2 and l1
    assert rooted_isomorphism(q, "l1", "l2") is None
    assert resolve(model, 3).transported == frozenset()


def test_orbit_swap_that_breaks_the_ideal_is_rejected():
    # a: 1 -> 2, b: 2 -> 1 with the single relation a∘b; the swap is
    # order-compatible but sends a∘b to b∘a, which is not in the ideal
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    p = Presentation(q, [q.path(["b", "a"])])
    identity = rooted_isomorphism(q, "1", "1")
    swap = rooted_isomorphism(q, "1", "2")
    assert identity.vertices == {"1": "1", "2": "2"}
    assert swap.vertices == {"1": "2", "2": "1"}
    model = AlgebraModel(p, 4)
    assert transport_word_map(model, identity) is not None
    assert transport_word_map(model, swap) is None
    report = resolve(model, 3)
    assert report.transported == frozenset()
    assert report.betti == _direct_betti(model, 3)
    # the two simples really differ: only S(2) has a relation to resolve
    assert report.ext_total(2) == 1


@pytest.mark.parametrize("order", [("1", "2"), ("2", "1")])
def test_orbit_counterexample_one_way_ideal_check(order, capsys, tmp_path):
    # a loop x at 1 and a loop y at 2 with the single relation y∘y: the map
    # 1 -> 2 keeps the (empty) set of relations starting at 1, yet x∘x is a
    # basis word and y∘y is not, so the degree-2 blocks differ
    q = Quiver(list(order), [("x", "1", "1"), ("y", "2", "2")])
    p = Presentation(q, [q.path(["y", "y"])])
    model = AlgebraModel(p, 4)
    forward = rooted_isomorphism(q, "1", "2")
    assert transport_word_map(model, forward) is None
    assert transport_word_map(model, rooted_isomorphism(q, "2", "1")) is None
    report = resolve(model, 3)
    assert report.transported == frozenset()
    assert report.betti == _direct_betti(model, 3)
    doc = tmp_path / "two_loops.json"
    doc.write_text(serialize_presentation(p))
    assert main(["analyze", str(doc)]) == 0
    sizes = json.loads(capsys.readouterr().out)["timing"]["sizes"]
    assert (sizes["simples_resolved"], sizes["simples_transported"]) == (2, 0)


def test_orbit_equal_tips_with_different_normal_forms_are_not_transported():
    # loops a, b at 1 with a∘a - b∘b and loops c, d at 2 with c∘c + 2·d∘d:
    # the map 1 -> 2 sends every basis block word for word onto its image,
    # but NF(a∘a) = b∘b goes to d∘d while NF(c∘c) = -2·d∘d
    q = Quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "1"),
                            ("c", "2", "2"), ("d", "2", "2")])
    p = Presentation(q, [{q.path(["a", "a"]): 1, q.path(["b", "b"]): -1},
                         {q.path(["c", "c"]): 1, q.path(["d", "d"]): 2}])
    model = AlgebraModel(p, 4)
    sigma = rooted_isomorphism(q, "1", "2")
    for d in range(5):
        assert ([sigma.apply(b) for b in model.basis_paths(d, "1", "1")]
                == model.basis_paths(d, "2", "2"))
    assert transport_word_map(model, sigma) is None
    report = resolve(model, 3)
    assert report.transported == frozenset()
    assert report.betti == _direct_betti(model, 3)


def _two_commutative_squares():
    """a2∘a1 - b2∘b1 on 1 -> 2, 3 -> 4 beside d2∘d1 - c2∘c1 on 5 -> 6, 7 -> 8."""
    q = Quiver([str(v) for v in range(1, 9)], [
        ("a1", "1", "2"), ("b1", "1", "3"), ("a2", "2", "4"), ("b2", "3", "4"),
        ("c1", "5", "6"), ("d1", "5", "7"), ("c2", "6", "8"), ("d2", "7", "8")])
    return Presentation(q, [
        {q.path(["a1", "a2"]): 1, q.path(["b1", "b2"]): -1},
        {q.path(["d1", "d2"]): 1, q.path(["c1", "c2"]): -1}])


def test_orbit_word_check_refuses_a_map_that_sends_a_basis_word_off_the_basis():
    # σ: 1, 2, 3, 4 -> 5, 7, 6, 8 with a -> d and b -> c keeps the ideal, and
    # the left tables match once each block's words are paired by position;
    # but the basis word b2∘b1 goes to c2∘c1, whose normal form is d2∘d1
    p = _two_commutative_squares()
    q = p.quiver
    model = AlgebraModel(p, 4)
    path = q.path
    assert model.basis_paths(2, "1", "4") == [path(["b1", "b2"])]
    assert model.basis_paths(2, "5", "8") == [path(["d1", "d2"])]
    sigma = QuiverAutomorphism(
        {"1": "5", "2": "7", "3": "6", "4": "8"},
        {q.arrow(a): q.arrow(b)
         for a, b in {"a1": "d1", "a2": "d2", "b1": "c1", "b2": "c2"}.items()})
    assert sigma.apply(path(["b1", "b2"])) == path(["c1", "c2"])
    assert transport_word_map(model, sigma) is None
    # the order-compatible map sends a to c and b to d, so basis words to
    # basis words, and S(5) is transported
    rooted = rooted_isomorphism(q, "1", "5")
    assert {a.label: b.label for a, b in rooted.arrows.items()} == {
        "a1": "c1", "a2": "c2", "b1": "d1", "b2": "d2"}
    assert transport_word_map(model, rooted) is not None
    report = resolve(model, 3)
    assert "5" in report.transported
    assert report.betti == _direct_betti(model, 3)


def _with_copy(p, rng=None):
    """p side by side with a copy whose labels end in a prime; given rng,
    one relation of the copy is dropped or has a coefficient changed."""
    q = p.quiver
    union = Quiver(
        list(q.vertices) + [v + "'" for v in q.vertices],
        [(a.label, a.source, a.target) for a in q.arrows]
        + [(a.label + "'", a.source + "'", a.target + "'") for a in q.arrows],
    )
    copied = [
        {union.path([x + "'" for x in path.labels_first_applied()]): c
         for path, c in r.items()}
        for r in p.relations
    ]
    if rng is not None and copied:
        k = rng.randrange(len(copied))
        if rng.random() < 0.5:
            del copied[k]
        else:
            path = rng.choice(list(copied[k]))
            copied[k][path] += 1 if copied[k][path] != -1 else 2
    return Presentation(union, list(p.relations) + copied)


@pytest.mark.parametrize("seed", range(40))
def test_orbit_copies_transport_and_perturbed_copies_resolve_alike(seed):
    rng = random.Random(1300 + seed)
    p = random_presentation(rng)
    model = AlgebraModel(_with_copy(p), 4)
    report = resolve(model, 3)
    assert {v + "'" for v in p.quiver.vertices} <= report.transported
    assert report.betti == _direct_betti(model, 3)
    model = AlgebraModel(_with_copy(p, rng), 4)
    report = resolve(model, 3)
    assert report.betti == _direct_betti(model, 3)
    _assert_transported_square_to_zero(report)


# -- coordinates: the int k·W + b for generator index k and word id b ----------


def _assert_coordinate_order(model, i_max):
    """Every step's block coordinates are sorted and decode by divmod(·, W)
    to the (generator index, word id) pairs in generator then id order, and
    every decoded ``_diff_image`` a resolution takes is the sum of its
    products, one model product per differential entry."""
    W = len(model.words)
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        for i, gens in enumerate(res.gens):
            for D in range(model.max_degree + 1):
                by_target = _degree_coords(model, gens, D, range(len(gens)))
                want = {}
                for k, g in enumerate(gens):
                    for w, ids in model.blocks_from.get((D - g.degree, g.vertex), ()):
                        want.setdefault(w, []).extend((k, b) for b in ids)
                assert {w: [divmod(key, W) for key in coords]
                        for w, coords in by_target.items()} == want
                assert all(coords == sorted(coords) for coords in by_target.values())
                if not i:
                    continue
                for coords in want.values():
                    for k, b in coords:
                        image = {}
                        for key, c in expanded(res.diffs[i][k]).items():
                            l, word = divmod(key, W)
                            for m, cm in model.product(b, word).items():
                                image[(l, m)] = image.get((l, m), ZERO) + c * cm
                        got = _diff_image(model, res.diffs[i][k], b)
                        assert {divmod(key, W): c for key, c in got.items()} == {
                            lm: c for lm, c in image.items() if c}


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_coordinate_order_on_the_corpus(presentation):
    _assert_coordinate_order(AlgebraModel(presentation, 5), 4)


@pytest.mark.parametrize("seed", range(30))
def test_coordinate_order_on_random_presentations(seed):
    p = random_presentation(random.Random(seed))
    _assert_coordinate_order(AlgebraModel(p, 5), 4)


# -- the one-loop resolution against the two-pass reference --------------------


def _two_pass(model, vertex, i_max, d_max):
    """gens and diffs built the earlier way, in two passes per step: rank the
    arrow images and pick generators on every block, then solve the kernel
    of the new differential on every block."""
    q = model.quiver
    gens, diffs, blocks = [[Generator(vertex, 0)]], [[]], {}
    W = len(model.words)

    def block(i, D, w):
        if (i, D, w) not in blocks:
            coords = _degree_coords(model, gens[i], D, range(len(gens[i]))).get(w, [])
            blocks[(i, D, w)] = coords, {key: p for p, key in enumerate(coords)}
        return blocks[(i, D, w)]

    omega = {D: {w: [{b: 1} for b in ids]
                 for w, ids in model.blocks_from.get((D, vertex), ())}
             for D in range(1, d_max + 1)}
    for i in range(1, i_max + 1):
        gens_i, diffs_i = [], []
        for D in range(1, d_max + 1):
            spans = {w: EchelonSpan() for w in q.vertices}
            for w0 in q.vertices:
                for x in omega.get(D - 1, {}).get(w0, ()):
                    for a in q.arrows_by_source[w0]:
                        y = _diff_image(model, x, model.arrow_ids[a])
                        idx = block(i - 1, D, a.target)[1]
                        spans[a.target].add({idx[k]: c for k, c in y.items()})
            for w in q.vertices:
                idx = block(i - 1, D, w)[1]
                for x in omega.get(D, {}).get(w, ()):
                    if spans[w].add({idx[k]: c for k, c in x.items()}):
                        gens_i.append(Generator(w, D))
                        diffs_i.append(dict(x))
        gens.append(gens_i)
        diffs.append(diffs_i)
        if i == i_max:
            break
        omega = {}
        for D in range(1, d_max + 1):
            for w in q.vertices:
                cur = block(i, D, w)[0]
                prev_index = block(i - 1, D, w)[1]
                solver = ColumnSolver(len(prev_index))
                for k, b in (divmod(key, W) for key in cur):
                    image = _diff_image(model, diffs_i[k], b)
                    kernel = solver.add_column(
                        {prev_index[key]: c for key, c in image.items()})
                    if kernel is not None:
                        omega.setdefault(D, {}).setdefault(w, []).append(
                            {cur[p]: c for p, c in kernel.items()})
    return gens, diffs


def _two_pass_cases():
    cases = {}
    for label, p in corpus_instances():
        cases[label] = (p, 5, 5)
        cases[label + "-Z2"] = (_z2_cover(p), 4, 4)
    for label, p, d_max, i_max in [
        ("exterior(4)", exterior(4), 8, 7),
        ("exterior(5)", exterior(5), 7, 6),
        ("loops:2", radical_square_zero(parse_quiver_spec("loops:2")), 10, 10),
        ("loops:3", radical_square_zero(parse_quiver_spec("loops:3")), 7, 7),
        ("trivial_extension_dual(star:4)",
         trivial_extension_dual(parse_quiver_spec("star:4")), 8, 8),
        ("loop_cubed", loop_cubed(), 12, 12),
        ("preprojective(line:6)", preprojective(parse_quiver_spec("line:6")), 6, 6),
        ("preprojective(star:4)", preprojective(parse_quiver_spec("star:4")), 6, 6),
        ("dual(exterior(3))", dual_presentation(exterior(3)), 7, 4),
        ("example2(2,1,3)", example2(2, 1, 3), 6, 6),
        ("example1(4,4)", example1(4, 4), 5, 5),
        # covers where the normal pairs reorder the arrow images
        ("exterior(4)/Z3", _cyclic_cover(exterior(4), 3, "0112"), 5, 5),
        ("exterior(3)/Z8", _cyclic_cover(exterior(3), 8, ["1", "2", "4"]), 6, 6),
        ("exterior(6)/Z4", _cyclic_cover(exterior(6), 4, "111111"), 5, 5),
    ]:
        cases[f"{label} at {d_max}/{i_max}"] = (p, d_max, i_max)
    return cases


def _assert_matches_two_pass(model, i_max, d_max):
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        gens, diffs = _two_pass(model, v, i_max, d_max)
        assert res.gens == gens
        # dict order too: the columns are the very kernel vectors
        assert [[list(expanded(e).items()) for e in step] for step in res.diffs] == [
            [list(e.items()) for e in step] for step in diffs]


@pytest.mark.parametrize("name", sorted(_two_pass_cases()))
def test_one_loop_matches_two_pass_reference(name):
    p, d_max, i_max = _two_pass_cases()[name]
    _assert_matches_two_pass(AlgebraModel(p, d_max), i_max, d_max)


@pytest.mark.parametrize("seed", range(60))
def test_one_loop_matches_two_pass_reference_on_random_presentations(seed):
    p = random_presentation(random.Random(seed))
    _assert_matches_two_pass(AlgebraModel(p, 5), 5, 5)


def test_one_loop_solves_a_kernel_only_where_a_generator_can_sit():
    # exterior(m) resolves linearly: the one block per step where the
    # arrow images fall short is where that step's generators sit
    res = SimpleResolution(AlgebraModel(exterior(3), 6), "1", 5)
    assert res.kernels_computed == 5
    assert [{g.degree for g in step} for step in res.gens[1:]] == [
        {i} for i in range(1, 6)]
    assert res.kernels_skipped > 0


@pytest.mark.parametrize("p, d_max, i_max, want", [
    (_loops2(), 10, 10, (10, 9)),
    (trivial_extension_dual(parse_quiver_spec("star:4")), 8, 8, (96, 159)),
], ids=["loops:2", "trivial_extension_dual(star:4)"])
def test_one_loop_kernel_counters_are_pinned(p, d_max, i_max, want):
    # timing.sizes reports these; adding a block's generators as one batch
    # must not move them
    sizes = resolution_sizes(resolve(AlgebraModel(p, d_max), i_max))
    assert (sizes["kernels_computed"], sizes["kernels_skipped"]) == want


def _counting_products(monkeypatch):
    """The list that records each ``_diff_image`` call from here on."""
    from quiverkoszul import resolution

    diff_image = resolution._diff_image
    calls = []

    def counted(model, entry, b):
        calls.append(b)
        return diff_image(model, entry, b)

    monkeypatch.setattr(resolution, "_diff_image", counted)
    return calls


def test_arrow_images_stop_at_the_exactness_count(monkeypatch):
    # a block's arrow images lie in the kernel, so once they span its count
    # the rest are dependent and are not computed; the images of normal
    # pairs go first, as those of tips lie in the span more often: 201
    # arrow-image products, beside the 249 the solved kernels and vanishing
    # checks take; computing every image takes 504, and stopping at the
    # count in the order of the arrows alone 251
    calls = _counting_products(monkeypatch)
    report = resolve(AlgebraModel(exterior(3), 7), 7)
    assert report.ext_totals() == [binom(i + 2, 2) for i in range(8)]
    assert resolution_sizes(report)["kernels_computed"] == 7
    assert len(calls) == 450


@pytest.mark.parametrize("p, d_max, i_max, want", [
    (_cyclic_cover(exterior(4), 3, "0112"), 5, 5, 539),
    (dual_presentation(exterior(3)), 7, 4, 302),
], ids=["exterior(4)/Z3", "dual(exterior(3))"])
def test_arrow_image_counts_are_pinned(monkeypatch, p, d_max, i_max, want):
    # every product resolve takes, arrow images and kernels; with the
    # images in the order of the arrows alone, 633 and 582
    calls = _counting_products(monkeypatch)
    resolve(AlgebraModel(p, d_max), i_max)
    assert len(calls) == want


def test_forcing_the_normal_pairs_moves_only_the_work(monkeypatch):
    # with every pair normal the images go in the order of the arrows
    # alone, and with none the kernel rows' images go first: on exterior(3)
    # both build 50 more images than the tip rule, for the same result
    calls = _counting_products(monkeypatch)
    counts, runs = [], []
    for pairs in (None, "all", frozenset()):
        model = AlgebraModel(exterior(3), 7)
        if pairs == "all":
            ids = list(model.arrow_ids.values())
            pairs = frozenset(itertools.product(ids, ids))
        if pairs is not None:
            model.normal_pairs = pairs
        calls.clear()
        runs.append(_resolution_digest(model, 7))
        counts.append(len(calls))
    assert runs[0] == runs[1] == runs[2]
    assert counts == [450, 500, 500]


def _resolution_digest(model, i_max):
    """Per vertex: gens, the expanded diffs in dict order, and the kernel
    counters."""
    out = []
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        out.append((res.gens,
                    [[list(expanded(e).items()) for e in step] for step in res.diffs],
                    res.kernels_computed, res.kernels_skipped))
    return out


@cache
def _order_cases():
    """The corpus, the benchmark's covers at its windows, and random
    presentations."""
    cases = {label: (p, 5, 5) for label, p in corpus_instances()}
    cases.update({
        "exterior(4)/Z3": (_cyclic_cover(exterior(4), 3, "0112"), 5, 5),
        "loops:2/Z3": (_cyclic_cover(_loops2(), 3, "12"), 8, 8),
        "exterior(3)/Z8": (_cyclic_cover(exterior(3), 8, ["1", "2", "4"]), 6, 6),
        "preprojective(line:4)/Z3": (
            _cyclic_cover(preprojective(parse_quiver_spec("line:4")), 3, "111111"), 6, 6),
        "exterior(4)/Z3-ones": (_cyclic_cover(exterior(4), 3, "1111"), 6, 6),
    })
    for seed in range(40):
        cases[f"random-{seed}"] = (random_presentation(random.Random(seed)), 5, 5)
    return cases


@pytest.mark.parametrize("name", sorted(_order_cases()))
def test_normal_pairs_order_the_images_and_change_nothing(name):
    # an order of the arrow images cannot change the resolution: forcing
    # every pair to be a tip, or none, gives the default run's result
    p, d_max, i_max = _order_cases()[name]
    model = AlgebraModel(p, d_max)
    want = _resolution_digest(model, i_max)
    ids = list(model.arrow_ids.values())
    for pairs in (frozenset(), frozenset(itertools.product(ids, ids))):
        model.normal_pairs = pairs
        assert _resolution_digest(model, i_max) == want


def test_kernel_missing_the_exactness_count_is_an_internal_error(monkeypatch):
    # every column independent: the computed kernel is empty where
    # exactness counts a nonzero syzygy block
    monkeypatch.setattr(ColumnSolver, "_add_column", lambda self, vec: None)
    with pytest.raises(InternalError,
                       match=r"step 1 kernel in degree 2 at vertex 1 has"
                             r" dimension 0, exactness gives 3"):
        SimpleResolution(AlgebraModel(exterior(2), 4), "1", 3)


# -- vanishing blocks and empty arrow-image spans ------------------------------


def test_vanishing_radical_square_zero_steps_solve_nothing(monkeypatch):
    # radical square zero: Ω^{i+1} is all of P_i past degree i, where d_i
    # vanishes, so no step solves a kernel, yet each counts its one block
    def refuse(self, vec):
        raise AssertionError("a radical-square-zero step solved a kernel")

    monkeypatch.setattr(ColumnSolver, "_add_column", refuse)
    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:3")), 7)
    report = resolve(model, 7)
    assert report.ext_totals() == [3 ** i for i in range(8)]
    assert report.per_simple["1"].kernels_computed == 7


def test_vanishing_radical_square_zero_steps_multiply_nothing(monkeypatch):
    # every column of a vanishing block holds a word of length 1, the top
    # degree, and no arrow image reaches a block either: nothing multiplies
    from quiverkoszul import resolution

    def refuse(model, entry, b):
        raise AssertionError("a radical-square-zero step computed a product")

    monkeypatch.setattr(resolution, "_diff_image", refuse)
    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:3")), 7)
    report = resolve(model, 7)
    assert report.ext_totals() == [3 ** i for i in range(8)]


def _resolve_with_a_nonzero_check(monkeypatch, d_max):
    """Resolve the preprojective(line:3) simple at vertex 1 with every
    product of the vanishing check nonzero.  In degree 2 of P_1 at vertex 1
    Ω^1 is empty, so d_1 must vanish there; the block's column holds a word
    of length 1, below the top degree 2, so the check multiplies it."""
    from quiverkoszul import resolution

    diff_image, check = resolution._diff_image, resolution.SimpleResolution._kernel

    def nonzero_in_the_check(model, entry, b):
        # the check is the generator that _kernel runs; arrow images and
        # solved kernels keep the true products
        if sys._getframe(1).f_back.f_code is check.__code__:
            return {b: 1}
        return diff_image(model, entry, b)

    monkeypatch.setattr(resolution, "_diff_image", nonzero_in_the_check)
    model = AlgebraModel(preprojective(parse_quiver_spec("line:3")), d_max)
    with pytest.raises(InternalError,
                       match=r"step 1 differential is nonzero in degree 2 at"
                             r" vertex 1, where exactness makes it vanish"):
        SimpleResolution(model, "1", 2)
    return model


def test_vanishing_block_with_a_nonzero_differential_is_an_internal_error(monkeypatch):
    assert _resolve_with_a_nonzero_check(monkeypatch, 4).top_degree() == 2


def test_vanishing_block_without_a_top_degree_checks_every_column(monkeypatch):
    # window 2 shows no vanishing degree, so no column is zero by length
    assert _resolve_with_a_nonzero_check(monkeypatch, 2).top_degree() is None


def _resolve_with_a_stray_coordinate(monkeypatch, step_degree, D, stray):
    """Resolve the loops:2 simple with one more coordinate, generator 0 times
    stray (the int 0·W + its id), in degree D of the step whose generators sit in step_degree.  No syzygy
    sits there, so the block vanishes and the stray unit vector meets
    empty arrow images.  A stray path that is not a basis word gets an id
    past the model's words."""
    from quiverkoszul import resolution

    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:2")), 4)
    if stray not in model.word_ids:
        model.words.append(stray)
        model.lengths.append(stray.length)
    stray_id = model.word_ids.get(stray, len(model.words) - 1)
    degree_coords = resolution._degree_coords

    def with_stray(model, gens, D_, *window):
        by_target = degree_coords(model, gens, D_, *window)
        if D_ == D and gens[0].degree == step_degree:
            by_target["1"] = by_target.get("1", []) + [stray_id]
        return by_target

    monkeypatch.setattr(resolution, "_degree_coords", with_stray)
    SimpleResolution(model, "1", 3)


def test_vanishing_block_generator_below_its_step_is_an_internal_error(monkeypatch):
    # a degree-2 word in degree 1 of P_2: d_2 kills it, as every product of
    # degree 3 vanishes, so it would become a step-3 generator in degree 1
    x1 = parse_quiver_spec("loops:2").arrows[0]
    with pytest.raises(InternalError,
                       match=r"step 3 generator in degree 1, below its step"):
        _resolve_with_a_stray_coordinate(monkeypatch, 2, 1, Path((x1, x1)))


def test_vanishing_block_generator_with_a_trivial_path_is_an_internal_error(
        monkeypatch):
    # the trivial path in degree 1 of P_0 would become a step-1 generator
    # whose column is not in the radical
    with pytest.raises(InternalError,
                       match=r"step 1 generator in degree 1 has a non-minimal column"):
        _resolve_with_a_stray_coordinate(monkeypatch, 0, 1, trivial_path("1"))


def _resolve_with_coordinates_cut(monkeypatch, model, vertex, step_degree, D, keep):
    """Resolve the simple at vertex with degree D of the step whose
    generators sit in step_degree cut down: ``keep`` maps a target vertex
    to the number of its coordinates left, 0 dropping its entry."""
    from quiverkoszul import resolution

    degree_coords = resolution._degree_coords

    def cut(model, gens, D_, *window):
        by_target = degree_coords(model, gens, D_, *window)
        if D_ == D and gens[0].degree == step_degree:
            for w, n in keep.items():
                by_target[w] = by_target[w][:n]
                if not n:
                    del by_target[w]
        return by_target

    monkeypatch.setattr(resolution, "_degree_coords", cut)
    SimpleResolution(model, vertex, 3)


@pytest.mark.parametrize("spec,vertex,keep,message", [
    # the whole degree holds no coordinate, so the loop passes it over
    ("loops:2", "1", {"1": 0}, r"step 1\b.* degree 1 at vertex 1\b"),
    # vertex 1 keeps its coordinates and is visited; vertex 3 is not
    ("preprojective", "2", {"3": 0}, r"step 1\b.* degree 1 at vertex 3\b"),
    # a visited block smaller than its Ω^1 piece: _kernel's dimension check
    ("loops:2", "1", {"1": 1}, r"step 1 kernel in degree 1 at vertex 1 has"
                               r" dimension 0, exactness gives -1"),
], ids=["degree-passed-over", "vertex-passed-over", "visited-block-short"])
def test_an_image_block_without_its_coordinates_is_an_internal_error(
        monkeypatch, spec, vertex, keep, message):
    # Ω^1 of the simple sits in degree 1 of P_0; P_1's degree-1 coordinates
    # at a vertex must cover its piece there, or exactness fails
    if spec == "loops:2":
        model = AlgebraModel(_loops2(), 4)
    else:
        model = AlgebraModel(preprojective(parse_quiver_spec("line:3")), 4)
    with pytest.raises(InternalError, match=message):
        _resolve_with_coordinates_cut(monkeypatch, model, vertex, 1, 1, keep)


# -- unit entries: a vanishing block's generators stored as their coordinates --


def _units_cases():
    loops2 = _loops2()
    return {
        "loops:2": (loops2, 8, 8),
        "loops:3": (radical_square_zero(parse_quiver_spec("loops:3")), 6, 6),
        "loops2-Z3-all-ones": (build_covering(loops2, cyclic_group(3),
                                              {"x1": "1", "x2": "1"}), 7, 7),
    }


def _assert_unit_entries_exactly_where_blocks_vanish(monkeypatch, model, i_max):
    """Every generator of a vanishing block has an int entry, the coordinate
    of its unit vector, and every other generator a dict; returns the
    number of int entries."""
    vanished, kernel = {}, SimpleResolution._kernel

    def spy(self, i, D, w, coords, nullity):
        vanished[(self.vertex, i + 1, D, w)] = nullity == len(coords)
        return kernel(self, i, D, w, coords, nullity)

    monkeypatch.setattr(SimpleResolution, "_kernel", spy)
    units = 0
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        for i in range(1, i_max + 1):
            for g, entry in zip(res.gens[i], res.diffs[i]):
                assert (type(entry) is int) == vanished[(v, i, g.degree, g.vertex)]
                units += type(entry) is int
    return units


@pytest.mark.parametrize("name", sorted(_units_cases()))
def test_unit_entries_on_radical_square_zero_are_every_generator(name, monkeypatch):
    # Ext is the path algebra of the opposite quiver and every block past
    # step 0 vanishes, so every generator is stored as its coordinate
    p, d_max, i_max = _units_cases()[name]
    model = AlgebraModel(p, d_max)
    report = resolve(model, i_max)
    for res in report.per_simple.values():
        assert all(type(e) is int for step in res.diffs[1:] for e in step)
    units = _assert_unit_entries_exactly_where_blocks_vanish(monkeypatch, model, i_max)
    assert units == sum(report.ext_totals()[1:])


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_unit_entries_exactly_where_blocks_vanish_on_the_corpus(presentation, monkeypatch):
    _assert_unit_entries_exactly_where_blocks_vanish(
        monkeypatch, AlgebraModel(presentation, 5), 5)


@pytest.mark.parametrize("name", ["loops2-Z3-all-ones"] + sorted(_orbit_covers()))
def test_unit_entries_of_a_transported_copy_shift_by_the_word_map(name):
    # relabelled moves an int entry by one shift and keeps it an int
    p, d_max, i_max = {**_units_cases(), **_orbit_covers()}[name]
    model = AlgebraModel(p, d_max)
    report = resolve(model, i_max)
    W, ids = len(model.words), model.word_ids
    moved = 0
    for t in report.transported:
        v = report.per_simple[t].resolved_from
        words = transport_word_map(model, rooted_isomorphism(model.quiver, v, t))
        for step, copied in zip(report.per_simple[v].diffs, report.per_simple[t].diffs):
            for entry, image in zip(step, copied):
                if type(entry) is int:
                    k, b = divmod(entry, W)
                    assert image == k * W + ids[words[model.words[b]]]
                    moved += 1
                else:
                    assert type(image) is dict
    assert moved


# -- the diagonal Ext of a quadratic algebra is its quadratic dual -------------


@cache
def _diagonal_cases():
    """Quadratic presentations with their window: the quadratic corpus
    instances, and random presentations with the relations of length
    other than 2 dropped."""
    cases = {label: (p, 5) for label, p in corpus_instances() if quadratic_check(p)}
    for seed in range(300):
        p = random_presentation(random.Random(seed))
        cases[f"random-{seed}"] = (
            Presentation(p.quiver, [r for r in p.relations if r.length == 2]), 4)
    return cases


@cache
def _diagonal(name):
    """Per (u, i, w): β(u, i, i, w), and the dual's block dimensions
    dim(i, w, u) and, transposed, dim(i, u, w)."""
    p, n = _diagonal_cases()[name]
    report = resolve(AlgebraModel(p, n), n)
    dual = AlgebraModel(dual_presentation(p), n)
    V = p.quiver.vertices
    return {(u, i, w): (report.betti.get((u, i, i, w), 0), dual.dim(i, w, u), dual.dim(i, u, w))
            for u in V for w in V for i in range(n + 1)}


@pytest.mark.parametrize("name", sorted(_diagonal_cases()))
def test_diagonal_betti_numbers_are_the_dual_blocks(name):
    # Koszul or not, the diagonal Ext of a quadratic algebra is its
    # quadratic dual, block by block (Löfwall): β(u, i, i, w) is the dual's
    # degree-i block from w to u.  On radical-square-zero algebras every
    # one of these generators comes from a unit batch
    for key, (betti, dual, _) in _diagonal(name).items():
        assert betti == dual, key


def test_diagonal_oracle_sees_the_orientation():
    assert len([n for n in _diagonal_cases() if not n.startswith("random-")]) == 14
    transposed = [name for name in _diagonal_cases()
                  if any(b != t for b, _, t in _diagonal(name).values())]
    assert "path_algebra(line:3)" in transposed
    assert len(transposed) > 1
