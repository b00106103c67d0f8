import itertools
import json
import math
import random
import re
import sys
import warnings
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest

from quiverkoszul.algebra import (
    AlgebraModel,
    InternalError,
    Presentation,
    ideal_breaker,
    keeps_model,
    moved_normal_form,
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
from quiverkoszul.covering import (
    build_covering,
    deck_action,
    path_weight,
    sheet_label,
    split_sheet,
)
from quiverkoszul.duality import dual_presentation, quadratic_check
from quiverkoszul.groups import cyclic_group, dihedral_group, direct_product
from quiverkoszul.linalg import ONE, ZERO, ColumnSolver, EchelonSpan, vec_axpy
from quiverkoszul.quiver import (
    Path,
    Quiver,
    QuiverAutomorphism,
    enumerate_paths,
    rooted_isomorphism,
    trivial_path,
)
from quiverkoszul.resolution import (
    FAILS_AT,
    KOSZUL_TO_BOUND,
    UNKNOWN_BEYOND_BOUND,
    ExtAlgebra,
    Generator,
    ResolutionReport,
    SimpleResolution,
    UnitBatch,
    _arrow_ranks,
    _diff_image,
    _run_coords,
    _step_blocks,
    generation_check,
    hilbert_euler_check,
    koszul_duality_dim_check,
    resolution_sizes,
    resolve,
    theorem_covering_check,
)
from quiverkoszul.serialization import canonical_json, presentation_to_document
from oracles import basis_paths, refuse_certificate, resolve_in_full, solve
from random_inputs import GROUPS, random_graded_presentation, random_presentation
from yoneda import ExtElement, YonedaAlgebra, expand_diffs, expand_runs


def binom(n, k):
    return math.comb(n, k)


# the per-(step, degree) coordinate builder the resolution used before its one
# walk per step; the reference the walk's blocks are compared with
def _degree_coords_by_degree(model: AlgebraModel, gens: list, D: int, window: range) -> dict:
    """Coordinates of the degree-D component of a free module, per target
    vertex w: k·W + b for each generator k and basis word b into w, in
    generator order then canonical basis order (the order of the ids), so
    each list is sorted.

    ``gens`` holds one generator per entry (``expand_runs`` of a step), and
    ``window`` limits the walk to a range of generator indices, which must
    hold every generator with a basis path into degree D.  A vertex no
    coordinate reaches has no entry.
    """
    out, W = {}, len(model.words)
    for k in window:
        g = gens[k]
        for w, words in model.blocks_from.get((D - g.degree, g.vertex), ()):
            out.setdefault(w, []).extend(k * W + b for b in words)
    return out


@pytest.fixture(scope="module")
def ext2_report():
    model = AlgebraModel(exterior(2), 5)
    return resolve_in_full(model, 5)


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


def test_each_step_walks_its_generators_once(monkeypatch):
    from quiverkoszul import resolution

    calls = []
    step_blocks = resolution._step_blocks

    def counted(model, gens, diffs):
        calls.append(id(gens))
        return step_blocks(model, gens, diffs)

    cover = build_covering(
        radical_square_zero(parse_quiver_spec("loops:2")), cyclic_group(3),
        {"x1": "1", "x2": "2"},
    )
    monkeypatch.setattr(resolution, "_step_blocks", counted)
    report = resolve_in_full(AlgebraModel(cover, 6), 5)
    assert report.ext_totals() == [3 * 2 ** i for i in range(6)]
    # the gens lists stay alive in the report, so their ids name the steps
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("presentation,window", [
    (trivial_extension_dual(parse_quiver_spec("star:4")), 8),
    (loop_cubed(), 8),
    (exterior(3), 6),
], ids=["trivial_extension_dual(star:4)", "loop_cubed", "exterior(3)"])
def test_coordinates_are_built_only_for_blocks_that_reach_the_kernel(
        monkeypatch, presentation, window):
    from quiverkoszul import resolution

    # the blocks themselves are kept, so no two are the same object
    built, solved, vanished = [], [], []
    run_coords, kernel = resolution._run_coords, SimpleResolution._kernel

    def counted(runs, W):
        built.append((runs, sys._getframe(1).f_code.co_name))
        return run_coords(runs, W)

    def spy(self, i, D, w, block, nullity):
        out = kernel(self, i, D, w, block, nullity)
        (vanished if type(out) is UnitBatch else solved).append(block)
        return out

    monkeypatch.setattr(resolution, "_run_coords", counted)
    monkeypatch.setattr(SimpleResolution, "_kernel", spy)
    model = AlgebraModel(presentation, window)
    computed = skipped = 0
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, window)
        computed += res.kernels_computed
        skipped += res.kernels_skipped
    assert len(solved) + len(vanished) == computed
    assert vanished and skipped
    # one build per solved kernel; a vanishing block's UnitBatch builds its
    # unit vectors only when an arrow image or a solved kernel first reads
    # it, and a skipped block builds none
    by_kernel = [runs for runs, caller in built if caller == "_kernel"]
    assert len(by_kernel) == len(solved)
    assert all(a is b for a, b in zip(by_kernel, solved))
    by_batch = [runs for runs, caller in built if caller == "__iter__"]
    assert len(by_kernel) + len(by_batch) == len(built)
    assert len({id(runs) for runs in by_batch}) == len(by_batch)
    assert all(any(runs is block for block in vanished) for runs in by_batch)


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


def _euler_by_scan(report, cutoff):
    """hilbert_euler_check's verdict by comparing every (u, v) entry."""
    labels, model = report.simples, report.model
    for u in labels:
        for v in labels:
            for d in range(cutoff + 1):
                got = sum((-1) ** i * n * model.dim(d - dd, w, v)
                          for (uu, i, dd, w), n in report.betti.items()
                          if uu == u and dd <= d)
                if got != int(u == v and d == 0):
                    return False, (u, v, d, got, int(u == v and d == 0))
    return True, None


def _euler_witness_cases():
    cases = dict(corpus_instances())
    p = trivial_extension_dual(parse_quiver_spec("star:4"))
    cases["ted(star:4)-Z4"] = build_covering(
        p, cyclic_group(4), {a.label: "1" for a in p.quiver.arrows})
    return cases


@pytest.mark.parametrize("name", sorted(_euler_witness_cases()))
def test_euler_witness_matches_the_every_pair_scan(name):
    # one wrong Betti number at a time: the first witness in label order is
    # the one a scan of every entry finds
    report = resolve(AlgebraModel(_euler_witness_cases()[name], 4), 4)
    assert hilbert_euler_check(report, 4) == _euler_by_scan(report, 4) == (True, None)
    betti, rng = report.betti, random.Random(name)
    labels = report.simples
    for _ in range(5):
        key = (rng.choice(labels), rng.randrange(5), rng.randrange(5), rng.choice(labels))
        report.betti = {**betti, key: betti.get(key, 0) + rng.choice((-1, 1))}
        ok, witness = hilbert_euler_check(report, 4)
        assert not ok and (ok, witness) == _euler_by_scan(report, 4)


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

    def test_a_generator_moved_between_vertices_is_a_mismatch(self, monkeypatch):
        # S(2|0)'s step-1 generators sit at 1|1 and 3|1; moving the first to
        # 3|1 keeps every total, so only the per-vertex push-down sees it
        from quiverkoszul import resolution

        p = preprojective(parse_quiver_spec("line:3"))
        weights = {a.label: "1" for a in p.quiver.arrows}
        args = (p, cyclic_group(2), weights, 3, 3)
        assert theorem_covering_check(*args).mismatches == []
        resolve_ = resolution.resolve

        def moved(model, i_max):
            report = resolve_(model, i_max)
            if "2|0" in report.simples:
                gens = report.per_simple["2|0"].gens
                assert gens[1] == [(Generator("1|1", 1), 1), (Generator("3|1", 1), 1)]
                gens[1] = [(Generator("3|1", 1), 2)]
                report = ResolutionReport(model, i_max, report.per_simple,
                                          report.transported)
            return report

        monkeypatch.setattr(resolution, "resolve", moved)
        outcome = theorem_covering_check(*args)
        assert not outcome.passed
        assert outcome.mismatches == [
            ("betti_vertex", "2|0", 1, 1, "1", 0, 1),
            ("betti_vertex", "2|0", 1, 1, "3", 2, 1),
        ]


class TestExtAlgebra:
    def test_ext_basis_sizes(self, ext2_report):
        ext = YonedaAlgebra(ext2_report)
        for i in range(5):
            assert len(ext.ext_basis(i)) == ext2_report.ext_total(i)

    @pytest.mark.parametrize("step", [-1, 4])
    def test_step_outside_the_window_is_a_named_error(self, step):
        ext = YonedaAlgebra(resolve_in_full(AlgebraModel(exterior(2), 4), 3))
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
                coords = solve(ext._solver(step, D, g.vertex), block_rhs)
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
    ext = YonedaAlgebra(resolve_in_full(AlgebraModel(p, d_max), i_max))
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
    ext = YonedaAlgebra(resolve_in_full(model, 4))
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
    ext = YonedaAlgebra(resolve_in_full(AlgebraModel(exterior(2), 4), 4))
    xi, zeta = ext.ext_basis(3)[:2]
    with pytest.raises(ValueError, match="leaves the homological window"):
        ext.yoneda_product(xi, zeta)


def test_inexact_lift_is_an_internal_error(monkeypatch, ext2_report):
    # an exact resolution always solves its lifting systems; pretend not
    ext = YonedaAlgebra(ext2_report)
    monkeypatch.setattr("yoneda.solve", lambda solver, vec: None)
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
    ext = YonedaAlgebra(resolve_in_full(AlgebraModel(presentation, d_max), i_max))
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
    ext = YonedaAlgebra(resolve_in_full(AlgebraModel(presentation, d_max), i_max))
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


def _arrow_ranks_by_elimination(res: SimpleResolution, i_max: int) -> list:
    """Per step i < i_max, the rank of the arrow parts of one resolution's
    step-(i+1) differential columns.

    An arrow part with one entry spans that coordinate's unit vector; the
    rank is the number of such coordinates plus the rank of the other arrow
    parts with those coordinates dropped, so only the latter are eliminated.
    """
    ranks, lengths, W = [], res.model.lengths, len(res.model.words)
    for step in res.diffs[1:i_max + 1]:
        units, rest = set(), []
        for entry in expand_diffs(step):
            part = [(key, c) for key, c in entry.items() if lengths[key % W] == 1]
            if len(part) == 1:
                units.add(part[0][0])
            elif part:
                rest.append(part)
        span = EchelonSpan()
        for part in rest:
            span._add({key: c for key, c in part if key not in units})
        ranks.append(len(units) + span.rank)
    return ranks


def test_generation_rank_drops_single_entry_coordinates_from_the_other_parts():
    # arrow parts e_a, e_b, 3·e_a and e_a - e_b span two dimensions; the
    # length-2 coordinate is not an arrow part
    model = AlgebraModel(path_algebra(parse_quiver_spec("loops:2")), 2)
    x1, x2 = model.quiver.arrows
    a, b = model.arrow_ids[x1], model.arrow_ids[x2]
    aa = model.word_ids[Path((x1, x1))]
    W = len(model.words)
    step = [[{a: 1}, {b: 1, W + aa: 5}], [{a: 3}, {a: 1, b: -1}]]
    assert _arrow_ranks_by_elimination(
        SimpleNamespace(model=model, diffs=[[], step]), 1) == [2]


def test_generation_ranks_each_resolved_simple_once(monkeypatch):
    from quiverkoszul import resolution

    ranked = []
    arrow_ranks = resolution._arrow_ranks

    def spy(res, i_max):
        ranked.append(res.vertex)
        return arrow_ranks(res, i_max)

    monkeypatch.setattr(resolution, "_arrow_ranks", spy)
    cover = build_covering(_loops2(), cyclic_group(3), {"x1": "1", "x2": "2"})
    report = resolve_in_full(AlgebraModel(cover, 6), 5)
    gen = generation_check(ExtAlgebra(report))
    # one simple resolved, the deck group relabels it onto the other two
    assert len(report.transported) == 2
    assert ranked == [v for v in cover.quiver.vertices if v not in report.transported]
    assert gen.steps == [(i, 3 * 2 ** (i + 1), 3 * 2 ** (i + 1)) for i in range(5)]


@cache
def _arrow_rank_cases():
    """(presentation, window) by name, each resolved with i_max the window:
    the corpus at 6/6, loop_cubed at 12/12, 300 random presentations at
    6/6 and the covers of 300 random graded presentations at 5/5."""
    cases = {label: (p, 6) for label, p in corpus_instances()}
    cases["loop_cubed-12"] = (loop_cubed(), 12)
    for seed in range(300):
        cases[f"random-{seed}"] = (random_presentation(random.Random(seed)), 6)
        graded = random_graded_presentation(random.Random(seed))
        cases[f"graded-cover-{seed}"] = (build_covering(*graded), 5)
    return cases


@pytest.fixture(scope="module", params=list(_arrow_rank_cases()))
def arrow_rank_report(request):
    # module scope runs both tests of one case on one resolution
    presentation, window = _arrow_rank_cases()[request.param]
    return resolve_in_full(AlgebraModel(presentation, window), window)


def test_arrow_count_is_the_elimination_rank(arrow_rank_report):
    report = arrow_rank_report
    for res in report.per_simple.values():
        assert _arrow_ranks(res, report.i_max) == \
            _arrow_ranks_by_elimination(res, report.i_max)


def test_block_generators_have_distinct_largest_coordinates_of_coefficient_1(
        arrow_rank_report):
    # the invariant the arrow count rests on, per resolved simple and step;
    # a step's generators of one block share their Generator
    report = arrow_rank_report
    for v, res in report.per_simple.items():
        if v in report.transported:
            continue
        for runs, step in zip(res.gens[1:], res.diffs[1:]):
            largest = set()
            for g, entry in zip(expand_runs(runs), expand_diffs(step)):
                top = max(entry)
                assert entry[top] == 1
                assert (g, top) not in largest
                largest.add((g, top))


def test_walked_blocks_build_the_oracle_coordinates(arrow_rank_report):
    # per resolved simple and step, block by block: the ints built from the
    # walk's runs are the per-degree oracle's, and the count over the runs
    # that exactness reads is the number of those ints
    report = arrow_rank_report
    model = report.model
    W = len(model.words)
    for v, res in report.per_simple.items():
        if v in report.transported:
            continue
        for step, diffs in zip(res.gens, res.diffs):
            blocks, gens = _step_blocks(model, step, diffs), expand_runs(step)
            assert {key: _run_coords(runs, W) for key, runs in blocks.items()} == {
                (D, w): coords for D in range(1, model.max_degree + 1)
                for w, coords in _degree_coords_by_degree(
                    model, gens, D, range(len(gens))).items()}
            for runs in blocks.values():
                assert sum(n * len(words) for _, n, words, _ in runs) == \
                    len(_run_coords(runs, W))


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


def _assert_squares_to_zero(model, res):
    W = len(model.words)
    diffs = [expand_diffs(step) for step in res.diffs]
    for i in range(2, len(diffs)):
        for entry in diffs[i]:
            dd = {}
            for key, c in entry.items():
                l, b = divmod(key, W)
                for lm, cm in _diff_image(model, diffs[i - 1][l], b).items():
                    dd[lm] = dd.get(lm, ZERO) + c * cm
            assert not any(dd.values())


def _assert_transported_square_to_zero(report):
    # reading a transported copy's diffs builds them
    for u in report.transported:
        _assert_squares_to_zero(report.model, report.per_simple[u])


@pytest.mark.parametrize("name", sorted(_orbit_covers()))
def test_orbit_transported_resolutions_are_exact(name):
    p, i_max, d_max = _orbit_covers()[name]
    model = AlgebraModel(p, d_max)
    report = resolve_in_full(model, i_max)
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
        for i, step in enumerate(SimpleResolution(model, u, i_max).gens):
            for g in expand_runs(step):
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
    report = resolve_in_full(model, 3)
    assert report.betti == _direct_betti(model, 3)
    for u in report.transported:
        assert report.per_simple[u].vertex == u
    # the deck group moves the simples of every covering
    if name.endswith("-Z2") or name in _ROOTED_ONLY:
        assert report.transported


def _random_homogeneous_weights(p, group, rng):
    """Seeded random arrow weights grading every relation of p homogeneously:
    the arrows take random elements in quiver order, backtracking where a
    relation whose arrows are all weighted has two weights (the identity
    weights always pass)."""
    labels = [a.label for a in p.quiver.arrows]
    closing = {}
    for r in p.relations:
        used = {a.label for path, _ in r.items() for a in path.arrows}
        closing.setdefault(max(used, key=labels.index), []).append(r)
    weights = {}

    def extend(n):
        if n == len(labels):
            return True
        for g in rng.sample(group.elements, group.order):
            weights[labels[n]] = g
            if all(len({path_weight(group, weights, path) for path, _ in r.items()}) == 1
                   for r in closing.get(labels[n], ())) and extend(n + 1):
                return True
        del weights[labels[n]]
        return False

    extend(0)
    return weights


@cache
def _homogeneous_corpus_covers():
    return {
        f"{label}-{group.name}": (p, group, _random_homogeneous_weights(
            p, group, random.Random(f"{label}-{group.name}")))
        for label, p in corpus_instances() for group in GROUPS
    }


@pytest.mark.parametrize("name", list(_homogeneous_corpus_covers()))
def test_covering_betti_numbers_push_down_to_the_base(name):
    # push-down along a Galois covering: summed over the target sheets h,
    # β_C((v,g), i, d, (w,h)) is β_A(v, i, d, w), and β_C((v,g), i, d,
    # (w, h·g)) does not depend on g; resolve transports most cover simples,
    # so this checks where each transported simple's generators sit
    p, group, weights = _homogeneous_corpus_covers()[name]
    base = resolve_in_full(AlgebraModel(p, 4), 4).betti
    cover = resolve_in_full(AlgebraModel(build_covering(p, group, weights), 4), 4).betti
    summed, relative = {}, {}
    for (u, i, d, x), n in cover.items():
        (v, g), (w, k) = split_sheet(u), split_sheet(x)
        summed[(u, i, d, w)] = summed.get((u, i, d, w), 0) + n
        h = group.multiply(k, group.inverse(g))
        relative.setdefault((v, i, d, w, h), {})[g] = n
    assert summed == {
        (sheet_label(v, g), i, d, w): n
        for (v, i, d, w), n in base.items() for g in group.elements
    }
    for by_sheet in relative.values():
        assert by_sheet.keys() == set(group.elements)
        assert len(set(by_sheet.values())) == 1


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
            assert keeps_model(model, sigma)


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


def _random_covering_quiver(seed):
    """A Z_k-covering of a random quiver, which has symmetry to find;
    shuffling its arrows or adding one may keep, break or scramble it."""
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
    return Quiver(vertices, arrows)


def _is_rooted_isomorphism(q, sigma, u, t):
    """Whether σ sends u to t and the part reached from u, its vertices and
    the arrows leaving them, bijectively onto the part reached from t,
    keeping incidence."""
    domain, image = _reached(q, u), _reached(q, t)
    return (sigma.vertices.get(u) == t and set(sigma.vertices) == domain
            and sorted(sigma.vertices.values()) == sorted(image)
            and set(sigma.arrows) == {a for a in q.arrows if a.source in domain}
            and len(set(sigma.arrows.values())) == len(sigma.arrows)
            and set(sigma.arrows.values()) == {
                a for a in q.arrows if a.source in image}
            and all((b.source, b.target) == (sigma.vertices[a.source], sigma.vertices[a.target])
                    for a, b in sigma.arrows.items()))


@pytest.mark.parametrize("seed", range(60))
def test_orbit_rooted_isomorphism_matches_brute_force_on_random_quivers(seed):
    # every map the search finds is an isomorphism of the reached parts, and
    # where the map that keeps the order of the arrows leaving each vertex
    # exists, the search finds that one
    q = _random_covering_quiver(seed)
    for u in q.vertices:
        for t in q.vertices:
            sigma = rooted_isomorphism(q, u, t)
            order_keeping = _rooted_by_brute_force(q, u, t)
            if sigma is None:
                assert order_keeping == []
            else:
                assert _is_rooted_isomorphism(q, sigma, u, t)
                assert order_keeping in ([], [(sigma.vertices, sigma.arrows)])
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


def test_orbit_leaf_swap_reorders_the_centre_and_is_transported():
    p = preprojective(parse_quiver_spec("star:4"))
    q = p.quiver
    swap = _leaf_swap(q)
    # a quiver automorphism that keeps the ideal, though a1*, a2* leave the
    # centre in the other order: from l1, the centre's arrow into l1 goes to
    # the arrow into l2, and the other arrows pair by index
    model = AlgebraModel(p, 4)
    sigma = rooted_isomorphism(q, "l1", "l2")
    assert (sigma.vertices, sigma.arrows) == (swap.vertices, swap.arrows)
    assert keeps_model(model, swap)
    report = resolve_in_full(model, 3)
    assert report.transported == {"l2", "l3", "l4"}
    assert report.betti == _direct_betti(model, 3)
    _assert_transported_square_to_zero(report)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("build", [preprojective, trivial_extension_dual],
                         ids=["preprojective", "trivial_extension_dual"])
def test_orbit_leaves_of_symmetric_trees_are_transported(build, n):
    # star:2 and star:3 are Dynkin, where trivial_extension_dual warns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = AlgebraModel(build(parse_quiver_spec(f"star:{n}")), 6)
    report = resolve_in_full(model, 6)
    leaves = [v for v in model.quiver.vertices if v != "c"]
    assert len(leaves) == n
    assert set(leaves[1:]) <= report.transported
    assert report.betti == _direct_betti(model, 6)
    _assert_transported_square_to_zero(report)


def _ideal_breaking_cycle():
    """a: 1 -> 2, b: 2 -> 1 with the single relation a∘b."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return Presentation(q, [q.path(["b", "a"])])


def test_orbit_swap_that_breaks_the_ideal_is_rejected():
    # the swap is order-compatible but sends a∘b to b∘a, which is not in
    # the ideal
    p = _ideal_breaking_cycle()
    q = p.quiver
    identity = rooted_isomorphism(q, "1", "1")
    swap = rooted_isomorphism(q, "1", "2")
    assert identity.vertices == {"1": "1", "2": "2"}
    assert swap.vertices == {"1": "2", "2": "1"}
    model = AlgebraModel(p, 4)
    assert keeps_model(model, identity)
    assert ideal_breaker(model, swap) is p.relations[0]
    assert not keeps_model(model, swap)
    report = resolve_in_full(model, 3)
    assert report.transported == frozenset()
    assert report.betti == _direct_betti(model, 3)
    # the two simples really differ: only S(2) has a relation to resolve
    assert report.ext_total(2) == 1


def _one_way_ideal(order):
    """A loop x at 1 and a loop y at 2 with the single relation y∘y."""
    q = Quiver(list(order), [("x", "1", "1"), ("y", "2", "2")])
    return Presentation(q, [q.path(["y", "y"])])


@pytest.mark.parametrize("order", [("1", "2"), ("2", "1")])
def test_orbit_counterexample_one_way_ideal_check(order, capsys, tmp_path, monkeypatch):
    # the map 1 -> 2 keeps the (empty) set of relations starting at 1, yet
    # x∘x is a basis word and y∘y is not, so the degree-2 blocks differ
    p = _one_way_ideal(order)
    q = p.quiver
    model = AlgebraModel(p, 4)
    forward = rooted_isomorphism(q, "1", "2")
    assert ideal_breaker(model, forward) is None
    assert not keeps_model(model, forward)
    assert not keeps_model(model, rooted_isomorphism(q, "2", "1"))
    report = resolve_in_full(model, 3)
    assert report.transported == frozenset()
    assert report.betti == _direct_betti(model, 3)
    doc = tmp_path / "two_loops.json"
    doc.write_text(canonical_json(presentation_to_document(p)))
    # y∘y alone is a Gröbner basis, so analyze counts chains; refused,
    # it resolves both simples
    for want in ((0, 0, 2), (2, 0, 0)):
        assert main(["analyze", str(doc)]) == 0
        sizes = json.loads(capsys.readouterr().out)["timing"]["sizes"]
        assert (sizes["simples_resolved"], sizes["simples_transported"],
                sizes["simples_certified"]) == want
        refuse_certificate(monkeypatch)


def _equal_tips():
    """Loops a, b at 1 with a∘a - b∘b and loops c, d at 2 with c∘c + 2·d∘d."""
    q = Quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "1"),
                            ("c", "2", "2"), ("d", "2", "2")])
    return Presentation(q, [{q.path(["a", "a"]): 1, q.path(["b", "b"]): -1},
                            {q.path(["c", "c"]): 1, q.path(["d", "d"]): 2}])


def test_orbit_equal_tips_with_different_normal_forms_are_not_transported():
    # the map 1 -> 2 sends every basis block word for word onto its image,
    # but a∘a - b∘b goes to c∘c - d∘d = -3·d∘d, which is not in the ideal
    p = _equal_tips()
    q = p.quiver
    model = AlgebraModel(p, 4)
    sigma = rooted_isomorphism(q, "1", "2")
    for d in range(5):
        assert ([sigma.apply(b) for b in basis_paths(model, d, "1", "1")]
                == basis_paths(model, d, "2", "2"))
    assert ideal_breaker(model, sigma) is p.relations[0]
    assert not keeps_model(model, sigma)
    report = resolve_in_full(model, 3)
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


def _squares_swapped(q):
    """σ: 1, 2, 3, 4 -> 5, 7, 6, 8 on ``_two_commutative_squares``, with a
    sent to d and b to c."""
    return QuiverAutomorphism(
        {"1": "5", "2": "7", "3": "6", "4": "8"},
        {q.arrow(a): q.arrow(b)
         for a, b in {"a1": "d1", "a2": "d2", "b1": "c1", "b2": "c2"}.items()})


def test_orbit_certificate_accepts_a_map_that_sends_a_basis_word_off_the_basis():
    # σ: 1, 2, 3, 4 -> 5, 7, 6, 8 with a -> d and b -> c keeps the ideal and
    # the block dimensions, though it sends the basis word b2∘b1 to c2∘c1,
    # whose normal form is d2∘d1; S(1)'s resolution moved by σ is exact
    p = _two_commutative_squares()
    q = p.quiver
    model = AlgebraModel(p, 4)
    path = q.path
    assert basis_paths(model, 2, "1", "4") == [path(["b1", "b2"])]
    assert basis_paths(model, 2, "5", "8") == [path(["d1", "d2"])]
    sigma = _squares_swapped(q)
    assert sigma.apply(path(["b1", "b2"])) == path(["c1", "c2"])
    assert model.normal_form(path(["c1", "c2"])) == {path(["d1", "d2"]): 1}
    assert keeps_model(model, sigma)
    swapped = SimpleResolution(model, "1", 3).relabelled(sigma)
    direct = SimpleResolution(model, "5", 3)
    def degrees(res):
        return [sorted((g.degree, g.vertex) for g in expand_runs(step)) for step in res.gens]
    assert degrees(swapped) == degrees(direct)
    _assert_squares_to_zero(model, swapped)
    # the search's map sends a to c and b to d, and S(5) is transported
    rooted = rooted_isomorphism(q, "1", "5")
    assert {a.label: b.label for a, b in rooted.arrows.items()} == {
        "a1": "c1", "a2": "c2", "b1": "d1", "b2": "d2"}
    assert keeps_model(model, rooted)
    report = resolve_in_full(model, 3)
    assert "5" in report.transported
    assert report.betti == _direct_betti(model, 3)


def _swapped_cubics():
    """Loops a, b at 1 with a∘a∘b + b∘a∘a - b∘b∘a and its image under the
    swap of a and b, and that swap."""
    q = Quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
    path = q.path
    p = Presentation(q, [
        {path(["b", "a", "a"]): 1, path(["a", "a", "b"]): 1, path(["a", "b", "b"]): -1},
        {path(["a", "b", "b"]): 1, path(["b", "b", "a"]): 1, path(["b", "a", "a"]): -1}])
    a, b = q.arrows
    return p, QuiverAutomorphism({"1": "1"}, {a: b, b: a})


def test_orbit_relabelled_differentials_sum_combinations():
    # the swap keeps the ideal and fixes the vertex, so S(1)'s resolution
    # moved by it is a second minimal resolution of S(1); it sends some
    # coordinate words to words whose normal form has several terms, which
    # the differentials built on first read sum
    p, swap = _swapped_cubics()
    model = AlgebraModel(p, 6)
    assert keeps_model(model, swap)
    res = SimpleResolution(model, "1", 5)
    moved = res.relabelled(swap)
    assert moved.gens == res.gens
    W = len(model.words)
    assert any(len(moved_normal_form(model, swap, model.words[key % W])) > 1
               for step in res.diffs for entry in expand_diffs(step)
               for key in entry)
    _assert_squares_to_zero(model, moved)


def _with_copy(p, rng=None, reverse=False):
    """p side by side with a copy whose labels end in a prime; given rng,
    one relation of the copy is dropped or has a coefficient changed, and
    given reverse, the copy lists its arrows in reverse order."""
    q = p.quiver
    copy = [(a.label + "'", a.source + "'", a.target + "'") for a in q.arrows]
    union = Quiver(
        list(q.vertices) + [v + "'" for v in q.vertices],
        [(a.label, a.source, a.target) for a in q.arrows]
        + (copy[::-1] if reverse else copy),
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
    report = resolve_in_full(model, 3)
    assert {v + "'" for v in p.quiver.vertices} <= report.transported
    assert report.betti == _direct_betti(model, 3)
    model = AlgebraModel(_with_copy(p, rng), 4)
    report = resolve_in_full(model, 3)
    assert report.betti == _direct_betti(model, 3)
    _assert_transported_square_to_zero(report)
    # a copy that reorders the arrows, whatever the search transports
    model = AlgebraModel(_with_copy(p, reverse=True), 4)
    report = resolve_in_full(model, 3)
    assert report.betti == _direct_betti(model, 3)
    _assert_transported_square_to_zero(report)


def _ideal_breaker_by_sorting(model, sigma):
    """``ideal_breaker`` as first written: per call, sort the relations by
    the reach order of their sources, then presentation order, and move
    each term's path through ``moved_normal_form``."""
    order = {x: k for k, x in enumerate(sigma.vertices)}
    for _, _, r in sorted(
            (k, n, r) for n, r in enumerate(model.presentation.relations)
            if (k := order.get(r.source)) is not None
            and r.length <= model.max_degree and not model._vanishes(r.length)):
        image = {}
        for path, c in r.items():
            vec_axpy(image, c, moved_normal_form(model, sigma, path))
        if image:
            return r
    return None


@pytest.mark.parametrize("seed", range(40))
def test_ideal_breaker_reads_the_relations_kept_once_per_model(seed):
    # every rooted map of a perturbed and of a reordered copy, at a window
    # that cuts some relations off: the same relation, or None, as sorting
    # per call; the relations' arrows are kept once, on the model
    rng = random.Random(1300 + seed)
    p = random_presentation(rng)
    for q_p in (_with_copy(p, rng), _with_copy(p, reverse=True)):
        for window in (2, 4):
            model = AlgebraModel(q_p, window)
            vertices = model.quiver.vertices
            for v, t in itertools.product(vertices, vertices):
                sigma = rooted_isomorphism(model.quiver, v, t)
                if sigma is not None:
                    assert ideal_breaker(model, sigma) is \
                        _ideal_breaker_by_sorting(model, sigma)
            # every v has the identity map, so the relations were kept
            kept = vars(model)["_relations_from"]
            for x in vertices:
                assert [r for r, _ in kept.get(x, ())] == [
                    r for r in q_p.relations if r.source == x
                    and r.length <= window and not model._vanishes(r.length)]


# -- coordinates: the int k·W + b for generator index k and word id b ----------


def _assert_coordinate_order(model, i_max):
    """Every step's block coordinates are sorted and decode by divmod(·, W)
    to the (generator index, word id) pairs in generator then id order, and
    every decoded ``_diff_image`` a resolution takes is the sum of its
    products, one model product per differential entry."""
    W = len(model.words)
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        for i, step in enumerate(res.gens):
            gens = expand_runs(step)
            for D in range(model.max_degree + 1):
                by_target = _degree_coords_by_degree(model, gens, D, range(len(gens)))
                want = {}
                for k, g in enumerate(gens):
                    for w, ids in model.blocks_from.get((D - g.degree, g.vertex), ()):
                        want.setdefault(w, []).extend((k, b) for b in ids)
                assert {w: [divmod(key, W) for key in coords]
                        for w, coords in by_target.items()} == want
                assert all(coords == sorted(coords) for coords in by_target.values())
                entries = expand_diffs(res.diffs[i])
                for coords in want.values():
                    for k, b in coords:
                        image = {}
                        for key, c in entries[k].items():
                            l, word = divmod(key, W)
                            for m, cm in model.product(b, word).items():
                                image[(l, m)] = image.get((l, m), ZERO) + c * cm
                        got = _diff_image(model, entries[k], b)
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
    of the new differential on every block.  The vertex generator's
    differential is zero, {}."""
    q = model.quiver
    gens, diffs, blocks = [[Generator(vertex, 0)]], [[{}]], {}
    W = len(model.words)

    def block(i, D, w):
        if (i, D, w) not in blocks:
            coords = _degree_coords_by_degree(
                model, gens[i], D, range(len(gens[i]))).get(w, [])
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
        assert [expand_runs(step) for step in res.gens] == gens
        # dict order too: the columns are the very kernel vectors
        assert [[list(e.items()) for e in expand_diffs(step)]
                for step in res.diffs] == [[list(e.items()) for e in step] for step in diffs]


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
    assert [{g.degree for g in expand_runs(step)} for step in res.gens[1:]] == [
        {i} for i in range(1, 6)]
    assert res.kernels_skipped > 0


@pytest.mark.parametrize("p, d_max, i_max, want", [
    (_loops2(), 10, 10, (10, 9)),
    (trivial_extension_dual(parse_quiver_spec("star:4")), 8, 8, (96, 159)),
], ids=["loops:2", "trivial_extension_dual(star:4)"])
def test_one_loop_kernel_counters_are_pinned(p, d_max, i_max, want):
    # summed over every vertex's resolution, so that transport does not move
    # them; adding a block's generators as one batch must not move them
    # either (tests/test_cli.py pins what resolve reports)
    model = AlgebraModel(p, d_max)
    resolutions = [SimpleResolution(model, v, i_max) for v in model.quiver.vertices]
    assert (sum(res.kernels_computed for res in resolutions),
            sum(res.kernels_skipped for res in resolutions)) == want


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
    report = resolve_in_full(AlgebraModel(exterior(3), 7), 7)
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
    resolve_in_full(AlgebraModel(p, d_max), i_max)
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
    """Per vertex: gens, the diffs one generator at a time in dict order,
    and the kernel counters."""
    out = []
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        out.append((res.gens,
                    [[list(e.items()) for e in expand_diffs(step)]
                     for step in res.diffs],
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
    report = resolve_in_full(model, 7)
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
    report = resolve_in_full(model, 7)
    assert report.ext_totals() == [3 ** i for i in range(8)]


def _resolve_with_a_nonzero_check(monkeypatch, d_max):
    """Resolve the preprojective(line:3) simple at vertex 1 with the first
    product of the vanishing check nonzero.  In degree 2 of P_1 at vertex 1
    Ω^1 is empty, so d_1 must vanish there; the block's column holds a word
    of length 1, below the top degree 2, so the check multiplies it.  Arrow
    images and solved kernels keep the true products."""
    _vanishing_check_products(monkeypatch, nonzero_at=1)
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
    """Resolve the loops:2 simple with one more run, generator 0 times stray
    (the unit vector {0·W + its id: 1} once built), in degree D of the step
    whose generators sit in step_degree.  No syzygy
    sits there, so the block vanishes and the stray unit vector meets
    empty arrow images.  A stray path that is not a basis word gets an id
    past the model's words."""
    from quiverkoszul import resolution

    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:2")), 4)
    if stray not in model.word_ids:
        model.words.append(stray)
        model.lengths.append(stray.length)
    stray_id = model.word_ids.get(stray, len(model.words) - 1)
    step_blocks = resolution._step_blocks

    def with_stray(model, gens, diffs):
        blocks = step_blocks(model, gens, diffs)
        if gens[0][0].degree == step_degree:
            # a run of one generator, 0, with its image, times the one word stray
            run = (0, 1, [stray_id], list(diffs[0])[:1])
            blocks[D, "1"] = blocks.get((D, "1"), []) + [run]
        return blocks

    monkeypatch.setattr(resolution, "_step_blocks", with_stray)
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

    step_blocks = resolution._step_blocks

    def cut(model, gens, diffs):
        blocks = step_blocks(model, gens, diffs)
        if gens[0][0].degree == step_degree:
            for w, n in keep.items():
                # one run per generator, with its image, its words cut to
                # the first n coordinates
                kept = []
                for k, m, words, entry in blocks.pop((D, w)):
                    for kk, image in zip(range(k, k + m), entry):
                        if n > 0:
                            kept.append((kk, 1, words[:n], [image]))
                            n -= len(words[:n])
                if kept:
                    blocks[D, w] = kept
        return blocks

    monkeypatch.setattr(resolution, "_step_blocks", cut)
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


# -- unit batches: a vanishing block's whole kernel kept as its runs ----------


def _units_cases():
    loops2 = _loops2()
    return {
        "loops:2": (loops2, 8, 8),
        "loops:3": (radical_square_zero(parse_quiver_spec("loops:3")), 6, 6),
        "loops2-Z3-all-ones": (build_covering(loops2, cyclic_group(3),
                                              {"x1": "1", "x2": "1"}), 7, 7),
    }


def _is_unit(image):
    """Whether a differential image is a unit vector {c: 1}."""
    return len(image) == 1 and ONE in image.values()


def _vanishing_runs(monkeypatch, model, i_max):
    """Resolve every simple and check that a ``UnitBatch`` run sits only
    where its block vanishes and that every generator of a vanishing block
    has a unit vector for its image; returns (vertex, step, run) for the
    runs of vanishing blocks."""
    vanished, kernel = {}, SimpleResolution._kernel

    def spy(self, i, D, w, block, nullity):
        size = sum(n * len(words) for _, n, words, _ in block)
        vanished[(self.vertex, i + 1, D, w)] = nullity == size
        return kernel(self, i, D, w, block, nullity)

    monkeypatch.setattr(SimpleResolution, "_kernel", spy)
    out = []
    for v in model.quiver.vertices:
        res = SimpleResolution(model, v, i_max)
        for i in range(1, i_max + 1):
            for (g, n), run in zip(res.gens[i], res.diffs[i]):
                if vanished[(v, i, g.degree, g.vertex)]:
                    assert len(run) == n and all(_is_unit(e) for e in run)
                    out.append((v, i, run))
                else:
                    assert type(run) is list
    return out


@pytest.mark.parametrize("name", sorted(_units_cases()))
def test_unit_batches_on_radical_square_zero_are_every_run(name, monkeypatch):
    # Ext is the path algebra of the opposite quiver and every block past
    # step 0 vanishes, so every run is a UnitBatch of the block's runs
    p, d_max, i_max = _units_cases()[name]
    model = AlgebraModel(p, d_max)
    report = resolve_in_full(model, i_max)
    for res in report.per_simple.values():
        if res.vertex not in report.transported:
            assert all(type(run) is UnitBatch for step in res.diffs[1:] for run in step)
    runs = _vanishing_runs(monkeypatch, model, i_max)
    assert all(type(run) is UnitBatch for _, _, run in runs)
    assert sum(len(run) for _, _, run in runs) == sum(report.ext_totals()[1:])


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_unit_batches_exactly_where_blocks_vanish_on_the_corpus(presentation, monkeypatch):
    _vanishing_runs(monkeypatch, AlgebraModel(presentation, 5), 5)


@pytest.mark.parametrize("name", ["loops2-Z3-all-ones"] + sorted(_orbit_covers()))
def test_unit_vectors_of_a_transported_copy_move_by_the_word_images(name):
    # a relabelled copy's unit vector {k·W + b: 1} moves to the coordinates
    # k·W + NF(σ(words[b])), which a deck map keeps one word with coefficient 1
    p, d_max, i_max = {**_units_cases(), **_orbit_covers()}[name]
    model = AlgebraModel(p, d_max)
    report = resolve_in_full(model, i_max)
    W = len(model.words)
    moved = 0
    for t in report.transported:
        copy = report.per_simple[t]
        source, sigma = copy._moved_by
        assert source is report.per_simple[copy.resolved_from]
        for step, copied in zip(source.diffs, copy.diffs):
            for run, image in zip(step, copied):
                assert type(image) is list and len(image) == len(run)
                if type(run) is UnitBatch:
                    for entry, got in zip(run, image):
                        [key] = entry
                        k, b = divmod(key, W)
                        [(m, c)] = moved_normal_form(model, sigma, model.words[b]).items()
                        assert (c, got) == (1, {k * W + m: 1})
                        moved += 1
    assert moved


def test_loops3_holds_one_differential_entry_per_step():
    # every step past 0 is one vanishing block whose 3^i unit vectors are
    # the step's one run of generators, so its differentials are one
    # UnitBatch of the block's runs, with no dict per generator built
    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:3")), 8)
    res = resolve_in_full(model, 8).per_simple["1"]
    assert [len(step) for step in res.diffs] == [1] * 9
    assert res.diffs[0] == [[{}]]
    assert all(type(run) is UnitBatch for step in res.diffs[1:] for run in step)
    assert [len(run) for step in res.diffs[1:] for run in step] == [
        3 ** i for i in range(1, 9)]
    assert _arrow_ranks(res, 8) == [3 ** i for i in range(1, 9)]
    assert all(run._units is None for step in res.diffs[1:] for run in step)


def test_a_unit_batch_cut_by_the_arrow_images_keeps_its_unit_vectors(monkeypatch):
    # random_presentation(Random(50)) at 6/5: the arrow images span part of
    # one vanishing block, so the unit vectors independent of them are that
    # run's generators, the batch's own dicts, as the two-pass reference
    # picks them
    model = AlgebraModel(random_presentation(random.Random(50)), 6)
    cut = [(v, i, len(run)) for v, i, run in _vanishing_runs(monkeypatch, model, 5)
           if type(run) is not UnitBatch]
    assert cut == [("2", 2, 1)]
    _assert_matches_two_pass(model, 5, 6)


def _moved_flat(model, source, sigma):
    """A relabelled copy's differentials as first built, one generator at
    a time: each coordinate k·W + b of the source's image moved to
    k·W + NF(σ(words[b]))."""
    W, out = len(model.words), []
    for step in source.diffs:
        moved = []
        for entry in expand_diffs(step):
            vec = {}
            for key, c in entry.items():
                k, b = divmod(key, W)
                image = moved_normal_form(model, sigma, model.words[b])
                vec_axpy(vec, c, {k * W + m: cm for m, cm in image.items()})
            moved.append(list(vec.items()))
        out.append(moved)
    return out


def _star2():
    """trivial_extension_dual(star:2), without the warning a Dynkin tree
    gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return trivial_extension_dual(parse_quiver_spec("star:2"))


def _star2_centre_swap():
    """trivial_extension_dual(star:2) at 6 and the swap of its leaves,
    which fixes the centre and reorders the arrows."""
    model = AlgebraModel(_star2(), 6)
    arrows = {a.label: a for a in model.quiver.arrows}
    swap = QuiverAutomorphism(
        {"c": "c", "l1": "l2", "l2": "l1"},
        {arrows[x]: arrows[y] for x, y in (("a1", "a2"), ("a2", "a1"),
                                           ("a1*", "a2*"), ("a2*", "a1*"))})
    return model, swap


@pytest.mark.parametrize("case", ["star:2-transported", "star:2-centre-swap",
                                  "random-181-reversed-copy"])
def test_relabelled_unit_batches_expand_to_the_moved_flat_form(case):
    # a copy reads each run, a UnitBatch too, image by image and moves each:
    # the leaf swaps of star:2 send a1 to a2, and the reversed copy of
    # random presentation 181 sends a batch word to -1/3 times a word
    if case == "star:2-centre-swap":
        model, sigma = _star2_centre_swap()
        assert keeps_model(model, sigma)
        copy = SimpleResolution(model, "c", 5).relabelled(sigma)
    else:
        if case == "star:2-transported":
            p = _star2()
        else:
            p = _with_copy(random_presentation(random.Random(181)), reverse=True)
        model = AlgebraModel(p, 5 if case.startswith("random") else 6)
        report = resolve_in_full(model, 5)
        copy = report.per_simple["l2" if case.startswith("star") else "1'"]
        assert copy.vertex in report.transported
    source, sigma = copy._moved_by
    assert any(type(run) is UnitBatch for step in source.diffs for run in step)
    assert [[list(e.items()) for e in expand_diffs(step)]
            for step in copy.diffs] == _moved_flat(model, source, sigma)
    assert [[len(run) for run in step] for step in copy.diffs] == [
        [len(run) for run in step] for step in source.diffs]


def _vanishing_check_products(monkeypatch, nonzero_at=None):
    """The list that records each product the vanishing check of
    ``_kernel`` asks for from here on: a word pair (b, c) it multiplies
    with ``model.product``, or a word b and the image it multiplies with
    ``_diff_image``.  The one numbered nonzero_at (from 1) is made
    nonzero."""
    from quiverkoszul import resolution

    diff_image, product = resolution._diff_image, AlgebraModel.product
    check = SimpleResolution._kernel
    calls = []

    def in_the_check(call, nonzero):
        # the check is the generator that _kernel runs
        if sys._getframe(2).f_back.f_code is check.__code__:
            calls.append(call)
            if len(calls) == nonzero_at:
                return nonzero
        return None

    def spy_image(model, entry, b):
        return (in_the_check((b, tuple(entry.items())), {b: 1})
                or diff_image(model, entry, b))

    def spy_product(model, b, c):
        return in_the_check((b, c), {b: 1}) or product(model, b, c)

    monkeypatch.setattr(resolution, "_diff_image", spy_image)
    monkeypatch.setattr(AlgebraModel, "product", spy_product)
    return calls


def _radical_cube_zero_loops2():
    """Loops x, y at 1 with every path of length 3 zero: top degree 2, so a
    vanishing block whose words are arrows has its columns multiplied."""
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    return Presentation(q, [{q.path(list(w)): 1} for w in itertools.product("xy", repeat=3)])


def test_a_unit_run_is_checked_once_per_word_pair(monkeypatch):
    # at 9/8, steps 2 and 4 check one vanishing block each whose columns
    # are an arrow times a generator of a UnitBatch of degree-2 words, 8 and
    # 64 generators long: 8 products per step, one model.product per
    # (arrow, degree-2 word) pair, whatever the run's length (one per column
    # would be 144); step 0's zero differential takes none
    calls = _vanishing_check_products(monkeypatch)
    model = AlgebraModel(_radical_cube_zero_loops2(), 9)
    assert resolve_in_full(model, 8).ext_totals() == [1, 2, 8, 16, 64, 128, 512, 0, 0]
    arrows = sorted(model.arrow_ids.values())
    squares = [c for c in range(len(model.words)) if model.lengths[c] == 2]
    assert len(calls) == 16
    assert sorted(set(calls)) == [(b, c) for b in arrows for c in squares]


def test_a_unit_run_with_a_nonzero_column_product_is_an_internal_error(monkeypatch):
    # the ninth product is step 4's first: the block in degree 7 at vertex 1
    _vanishing_check_products(monkeypatch, nonzero_at=9)
    with pytest.raises(InternalError,
                       match=r"step 4 differential is nonzero in degree 7 at"
                             r" vertex 1, where exactness makes it vanish"):
        SimpleResolution(AlgebraModel(_radical_cube_zero_loops2(), 9), "1", 8)


# -- one stored form: every entry a dict, every block run with its entry ------


@cache
def _form_cases():
    """The corpus at 6/6, its all-ones Z2 covers at 5/5 and 60 random
    presentations at 5/5."""
    cases = {label: (p, 6) for label, p in corpus_instances()}
    cases.update({label + "-Z2": (_z2_cover(p), 5) for label, p in corpus_instances()})
    for seed in range(60):
        cases[f"random-{seed}"] = (random_presentation(random.Random(seed)), 5)
    return cases


@pytest.mark.parametrize("name", sorted(_form_cases()))
def test_every_stored_entry_is_a_dict_or_a_unit_batch_run(name, monkeypatch):
    # transported copies included, whose differentials are built here; and
    # every block run a step files carries the step run at its index
    from quiverkoszul import resolution

    step_blocks, filed = resolution._step_blocks, []

    def spy(model, gens, diffs):
        blocks = step_blocks(model, gens, diffs)
        filed.append((gens, diffs, blocks))
        return blocks

    monkeypatch.setattr(resolution, "_step_blocks", spy)
    p, window = _form_cases()[name]
    report = resolve_in_full(AlgebraModel(p, window), window)
    for res in report.per_simple.values():
        assert res.diffs[0] == [[{}]]
        for runs, step in zip(res.gens, res.diffs):
            assert len(runs) == len(step)
            for (_, n), run in zip(runs, step):
                assert type(run) is UnitBatch or type(run) is list
                assert len(run) == n and all(type(e) is dict for e in run)
    resolved = [res for u, res in report.per_simple.items() if u not in report.transported]
    assert len(filed) == sum(len(res.gens) - 1 for res in resolved)
    for gens, diffs, blocks in filed:
        assert any(gens is step for res in resolved for step in res.gens)
        assert any(diffs is step for res in resolved for step in res.diffs)
        at, k = {}, 0
        for (_, n), run in zip(gens, diffs):
            at[k], k = (n, run), k + n
        for block in blocks.values():
            for k, n, _, entry in block:
                assert at[k][0] == n and at[k][1] is entry and len(entry) == n


# -- generator runs: each step's generators stored as (Generator, n) ----------


def _assert_run_format(report):
    """Every step of every simple holds runs (g, n) with n >= 1, no two in
    a row equal, in degrees that do not decrease, with one differential
    entry per run, holding n images; step 0's one run is the simple's own
    generator, its image {}; the Betti totals are the run sums; a
    relabelled copy has its source's run lengths, each run's vertex moved
    by σ."""
    totals, step_totals = {}, {}
    for u, res in report.per_simple.items():
        assert (res.gens[0], res.diffs[0]) == ([(Generator(u, 0), 1)], [[{}]])
        for i, (runs, entries) in enumerate(zip(res.gens, res.diffs)):
            assert all(type(g) is Generator and type(n) is int and n >= 1
                       for g, n in runs)
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
            assert all(a[0].degree <= b[0].degree for a, b in zip(runs, runs[1:]))
            assert [n for _, n in runs] == [len(run) for run in entries]
            assert sum(n for _, n in runs) == len(expand_diffs(entries)) == \
                len(expand_runs(runs))
            for g, n in runs:
                totals[(i, g.degree)] = totals.get((i, g.degree), 0) + n
                step_totals[i] = step_totals.get(i, 0) + n
        if u in report.transported:
            source, sigma = res._moved_by
            assert res.gens == [
                [(Generator(sigma.vertices[g.vertex], g.degree), n) for g, n in step]
                for step in source.gens]
    assert report.ext_totals() == [step_totals.get(i, 0) for i in range(report.i_max + 1)]
    assert all(report.betti_total(i, d) == n for (i, d), n in totals.items())
    assert sum(report.betti.values()) == sum(totals.values())


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_runs_are_well_formed_on_the_corpus(presentation):
    _assert_run_format(resolve_in_full(AlgebraModel(presentation, 5), 5))
    _assert_run_format(resolve_in_full(AlgebraModel(_z2_cover(presentation), 4), 4))


@pytest.mark.parametrize("seed", range(60))
def test_runs_are_well_formed_on_random_presentations(seed):
    p = random_presentation(random.Random(seed))
    _assert_run_format(resolve_in_full(AlgebraModel(p, 5), 5))


@pytest.mark.parametrize("seed", range(60))
def test_runs_are_well_formed_on_random_graded_covers(seed):
    cover = build_covering(*random_graded_presentation(random.Random(seed)))
    report = resolve_in_full(AlgebraModel(cover, 4), 4)
    _assert_run_format(report)


def test_runs_on_loops3_are_one_per_step():
    # every block past step 0 vanishes and each step's generators sit in
    # one block, degree i at the one vertex: 3^i generators in one run
    report = resolve_in_full(AlgebraModel(radical_square_zero(parse_quiver_spec("loops:3")), 8), 8)
    assert report.per_simple["1"].gens == [[(Generator("1", i), 3 ** i)] for i in range(9)]
    _assert_run_format(report)


# -- the transport certificate in word ids against a path-level check ---------


def _keeps_model_by_paths(model, sigma):
    """The path-level certificate: σ moves each path p of its domain inside
    the window to a path whose normal form is NF(σ(NF(p))), with σ applied
    to NF(p) term by term, so σ is well defined on the truncated model, and
    each block (d, u, v) of the domain has the dimension of its image."""
    for d in range(model.max_degree + 1):
        for u, v in model.blocks(d):
            if u not in sigma.vertices:
                continue
            if model.dim(d, u, v) != model.dim(d, sigma.vertices[u], sigma.vertices[v]):
                return False
            for p in model.all_paths(d, u, v):
                via = {sigma.apply(b): c for b, c in model.normal_form(p).items()}
                if model.normal_form(sigma.apply(p)) != model.normal_form(via):
                    return False
    return True


def _transport_ids_agree(model, sigma):
    """Asserts that the certificate in word ids accepts σ exactly when the
    path check does; returns whether it accepts."""
    want = _keeps_model_by_paths(model, sigma)
    assert keeps_model(model, sigma) == want
    return want


def _every_rooted_map(q):
    return [sigma for u in q.vertices for t in q.vertices
            if (sigma := rooted_isomorphism(q, u, t)) is not None]


def _transport_ids_cases():
    """The orbit covers and the unit cases, each with its window."""
    cases = {name: (p, d_max) for name, (p, _, d_max) in _orbit_covers().items()}
    cases.update((name, (p, d_max)) for name, (p, d_max, _) in _units_cases().items())
    return cases


@pytest.mark.parametrize("name", sorted(_transport_ids_cases()))
def test_orbit_transport_ids_match_the_path_check_on_every_rooted_map(name):
    p, d_max = _transport_ids_cases()[name]
    model = AlgebraModel(p, d_max)
    q = p.quiver
    outcomes = [_transport_ids_agree(model, sigma) for sigma in _every_rooted_map(q)]
    # the identity at each vertex, and the deck maps of a covering
    assert outcomes.count(True) > len(q.vertices) or len(q.vertices) == 1


def _random_covering_presentation(seed):
    """The random coverings of the brute-force test, as path algebras or
    with a few random relations, which keep or break their symmetry."""
    q = _random_covering_quiver(seed)
    rng = random.Random(2900 + seed)
    relations = []
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        paths = enumerate_paths(q, rng.choice((2, 2, 3)))
        if paths:
            first = rng.choice(paths)
            parallel = [p for p in paths if (p.source, p.target) == (first.source, first.target)]
            terms = rng.sample(parallel, min(len(parallel), rng.randint(1, 2)))
            relations.append({p: rng.choice((1, -1, 2)) for p in terms})
    return Presentation(q, relations)


@pytest.mark.parametrize("seed", range(60))
def test_orbit_transport_ids_match_the_path_check_on_random_quivers(seed):
    p = _random_covering_presentation(seed)
    q = p.quiver
    model = AlgebraModel(p, 3)
    for sigma in _every_rooted_map(q):
        _transport_ids_agree(model, sigma)


def test_orbit_transport_ids_match_the_path_check_on_the_fixtures():
    star = preprojective(parse_quiver_spec("star:4"))
    cases = [(AlgebraModel(star, 4), _leaf_swap(star.quiver))]
    cycle = AlgebraModel(_ideal_breaking_cycle(), 4)
    cases += [(cycle, rooted_isomorphism(cycle.quiver, "1", t)) for t in "12"]
    for order in [("1", "2"), ("2", "1")]:
        loops = AlgebraModel(_one_way_ideal(order), 4)
        cases += [(loops, rooted_isomorphism(loops.quiver, u, t)) for u, t in ["12", "21"]]
    tips = AlgebraModel(_equal_tips(), 4)
    cases.append((tips, rooted_isomorphism(tips.quiver, "1", "2")))
    squares = AlgebraModel(_two_commutative_squares(), 4)
    cases += [(squares, _squares_swapped(squares.quiver)),
              (squares, rooted_isomorphism(squares.quiver, "1", "5"))]
    assert [_transport_ids_agree(model, sigma) for model, sigma in cases] == [
        True, True, False, False, False, False, False, False, True, True]


def test_orbit_transport_checked_once_per_deck_map(monkeypatch):
    # the covering falls apart into two 10-vertex pieces, and every (v, t)
    # pair that yields a map already checked reuses its verdict; the maps
    # accepted from a resolved vertex are closed under composition, so from
    # the centre and from the first leaf the shift within its piece and one
    # map onto the other piece are checked, and those serve every leaf's
    # sheets.  No search finds a leaf swap on a covering: the arrows back
    # from the centre reach the leaves' next sheets, which the search pairs
    # by index.  Those maps break the ideal: the other leaves are refused
    # from the first leaf, two from the second and one from the third.  An
    # accepted map sends a refused leaf's sheet onto its other sheets, which
    # are not searched.  15 transported simples take 4 accepted checks and
    # 6 refused ones
    from quiverkoszul import resolution

    p = trivial_extension_dual(parse_quiver_spec("star:4"))
    cover = build_covering(p, cyclic_group(4), {a.label: "1" for a in p.quiver.arrows})
    model = AlgebraModel(cover, 6)
    checked = []

    def spy(model, sigma):
        checked.append(frozenset(sigma.vertices.items()))
        return keeps_model(model, sigma)

    monkeypatch.setattr(resolution, "keeps_model", spy)
    report = resolve_in_full(model, 6)
    assert len(checked) == len(set(checked)) == 10
    assert len(report.transported) == 15
    assert report.betti == _direct_betti(model, 6)


# -- the accepted maps from a resolved vertex, closed under composition -------


def _resolve_recording_maps(monkeypatch, model, i_max):
    """Resolves, recording the keys of the checked maps and, per relabelled
    simple, its source and the map it was relabelled by."""
    from quiverkoszul import resolution

    checked, moved = [], []

    def check(model, sigma):
        checked.append(frozenset(sigma.vertices.items()))
        return keeps_model(model, sigma)

    relabelled = SimpleResolution.relabelled

    def record(self, sigma):
        moved.append((self.resolved_from, sigma))
        return relabelled(self, sigma)

    monkeypatch.setattr(resolution, "keeps_model", check)
    monkeypatch.setattr(SimpleResolution, "relabelled", record)
    report = resolve_in_full(model, i_max)
    monkeypatch.undo()
    return report, checked, moved


def _assert_relabelling_maps_are_accepted(monkeypatch, p, i_max, d_max):
    """Every map a simple is relabelled by, checked or composed, is an
    isomorphism of the reached parts from its source that the certificate
    accepts; returns the numbers of checked maps and of composites, and the
    maps."""
    model = AlgebraModel(p, d_max)
    q = p.quiver
    report, checked, moved = _resolve_recording_maps(monkeypatch, model, i_max)
    # one relabelling per transported simple
    assert sorted(sigma.vertices[v] for v, sigma in moved) == sorted(report.transported)
    composites = 0
    for v, sigma in moved:
        assert _is_rooted_isomorphism(q, sigma, v, sigma.vertices[v])
        assert keeps_model(model, sigma)
        composites += frozenset(sigma.vertices.items()) not in checked
    assert report.betti == _direct_betti(model, i_max)
    _assert_transported_square_to_zero(report)
    return (len(checked), composites), moved


def _composite_cases():
    """The orbit covers, the unit cases, and covers by D3 and the Klein
    four-group, whose deck groups are not cyclic; each with (i_max, d_max)."""
    cases = dict(_orbit_covers())
    cases.update((name, (p, i_max, d_max))
                 for name, (p, d_max, i_max) in _units_cases().items())
    d3 = dihedral_group(3)
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    loops2, ext2 = _loops2(), exterior(2)
    cases.update({
        # two pieces of three sheets, rotated within and swapped by s
        "exterior2-D3-rotations": (build_covering(ext2, d3, {"a1": "c", "a2": "c2"}), 4, 4),
        # one piece of six sheets, moved by a deck group that is not abelian
        "loops2-D3": (build_covering(loops2, d3, {"x1": "c", "x2": "s"}), 4, 4),
        # one piece of four sheets, two generators of order two
        "exterior2-V4": (build_covering(ext2, klein, {"a1": "(1,0)", "a2": "(0,1)"}), 4, 4),
        # two pieces of two sheets each
        "loops2-V4-halves": (build_covering(loops2, klein, {"x1": "(1,0)", "x2": "(1,0)"}), 4, 4),
    })
    return cases


# (checked maps, composites) per case: the single-vertex algebras move
# nothing, a Z3 piece checks one shift and composes its square, and the
# covers by D3 and the Klein four-group check two maps each
_COMPOSITE_COUNTS = {
    "example2(2,1,3)-Z2": (2, 3),
    "exterior2-D3-rotations": (2, 3),
    "exterior2-V4": (2, 1),
    "exterior2-Z2": (1, 0),
    "exterior4-Z3": (1, 1),
    "loops2-D3": (2, 3),
    "loops2-V4-halves": (2, 1),
    "loops2-Z3": (1, 1),
    "loops2-Z3-all-ones": (1, 1),
    "loops:2": (0, 0),
    "loops:3": (0, 0),
}


@pytest.mark.parametrize("name", sorted(_composite_cases()))
def test_orbit_composed_deck_maps_are_the_rooted_maps(name, monkeypatch):
    # on a covering every relabelling map is a deck map, which keeps the
    # order of the arrows leaving each vertex, so it is what the search
    # finds from its source
    p, i_max, d_max = _composite_cases()[name]
    counts, moved = _assert_relabelling_maps_are_accepted(monkeypatch, p, i_max, d_max)
    assert counts == _COMPOSITE_COUNTS[name]
    for v, sigma in moved:
        rooted = rooted_isomorphism(p.quiver, v, sigma.vertices[v])
        assert (sigma.vertices, sigma.arrows) == (rooted.vertices, rooted.arrows)


@pytest.mark.parametrize("seed", range(60))
def test_orbit_composed_deck_maps_are_accepted_on_random_quivers(seed, monkeypatch):
    _assert_relabelling_maps_are_accepted(
        monkeypatch, _random_covering_presentation(seed), 3, 3)


def test_orbit_transport_composes_the_deck_maps_of_twelve_sheets(monkeypatch):
    # two 30-vertex pieces of six sheets each; from the centre and from each
    # leaf, the shift within its piece and one map onto the other piece are
    # checked or reuse a verdict, and the other nine maps onto a sheet are
    # their composites: 55 transported simples take 16 searches and 10
    # checks, 6 of them refused leaves
    from quiverkoszul import quiver, resolution

    p = trivial_extension_dual(parse_quiver_spec("star:4"))
    cover = build_covering(p, cyclic_group(12), {a.label: "1" for a in p.quiver.arrows})
    model = AlgebraModel(cover, 6)
    searched = []

    def search(q, u, t):
        searched.append(sigma := quiver.rooted_isomorphism(q, u, t))
        return sigma

    monkeypatch.setattr(resolution, "rooted_isomorphism", search)
    report, checked, moved = _resolve_recording_maps(monkeypatch, model, 6)
    assert len(searched) == 16
    assert len(checked) == len(set(checked)) == 10
    assert len(report.transported) == len(moved) == 55
    assert report.betti == _direct_betti(model, 6)


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
    # degree-i block from w to u.  The certified inputs among these, the
    # radical-square-zero ones included, get the table as chain counts
    for key, (betti, dual, _) in _diagonal(name).items():
        assert betti == dual, key


def test_diagonal_oracle_sees_the_orientation():
    assert len([n for n in _diagonal_cases() if not n.startswith("random-")]) == 14
    transposed = [name for name in _diagonal_cases()
                  if any(b != t for b, _, t in _diagonal(name).values())]
    assert "path_algebra(line:3)" in transposed
    assert len(transposed) > 1
