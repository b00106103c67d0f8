"""End-to-end acceptance sweep.

Each test covers one headline guarantee of the package and prints a single
PASS line when its assertions hold (run with -s to see them).  Every number
asserted here is either a closed-form count (binomials, group orders) or a
value frozen from an independent hand computation; nothing is read back
from the code under test.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from quiverkoszul.algebra import AlgebraModel, hilbert_matrix
from quiverkoszul.cli import main
from quiverkoszul.corpus import (
    build_corpus,
    corpus_instances,
    example1,
    example2,
    example3,
    example4,
    exterior,
    loop_cubed,
    parse_quiver_spec,
    path_algebra,
    preprojective,
    trivial_extension_dual,
)
from quiverkoszul.covering import InhomogeneousGradingError, build_covering
from quiverkoszul.duality import (
    double_dual_check,
    dual_presentation,
    quadratic_check,
)
from quiverkoszul.groups import GroupAction, cyclic_group, dihedral_group, direct_product
from quiverkoszul.linalg import EchelonSpan
from quiverkoszul.resolution import (
    ExtAlgebra,
    FAILS_AT,
    KOSZUL_TO_BOUND,
    generation_check,
    hilbert_euler_check,
    koszul_duality_dim_check,
    resolve,
    theorem_covering_check,
)
from quiverkoszul.serialization import (
    canonical_json,
    parse_document,
    presentation_to_document,
)
from quiverkoszul.structure import (
    radical,
    skew_group_algebra,
    smash_product,
    verify_smash_covering_iso,
)
from oracles import canonical_key

_reports = {}


def resolved(tag, presentation, i_max, d_max):
    key = (tag, i_max, d_max)
    if key not in _reports:
        model = AlgebraModel(presentation, d_max)
        _reports[key] = (model, resolve(model, i_max))
    return _reports[key]


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def all_one_weights(p, n):
    return {a.label: str(1 % n) for a in p.quiver.arrows}


def test_criterion_01_exterior_family_is_koszul():
    with criterion(1, "exterior algebras: dims, linear resolutions, generation"):
        for m in (1, 2, 3):
            model, report = resolved(f"exterior({m})", exterior(m), 5, 5)
            assert model.total_dims() == [comb(m, d) for d in range(6)]
            assert report.verdict().status == KOSZUL_TO_BOUND
            assert report.verdict().status == KOSZUL_TO_BOUND
            for i in range(6):
                assert report.ext_total(i) == comb(m + i - 1, i)
            gen = generation_check(ExtAlgebra(report))
            assert gen.passed
            assert gen.passed == (report.verdict().status == KOSZUL_TO_BOUND)


def test_criterion_02_quadratic_duals():
    with criterion(2, "dual dims are symmetric-algebra counts; double dual involutive"):
        for m in (1, 2, 3):
            dual = dual_presentation(exterior(m))
            dm = AlgebraModel(dual, 5)
            assert dm.total_dims() == [comb(m + d - 1, d) for d in range(6)]
        checked = 0
        for name, p in corpus_instances():
            if not quadratic_check(p):
                continue
            assert double_dual_check(p), name
            checked += 1
        assert checked >= 14  # everything but the cubic loop


def test_criterion_03_covering_theorem_on_exterior_family():
    with criterion(3, "cyclic coverings of exterior algebras stay Koszul, x|G| dims"):
        for m, n in [(2, 2), (2, 3), (2, 4), (3, 2)]:
            p = exterior(m)
            group = cyclic_group(n)
            weights = all_one_weights(p, n)
            tc = theorem_covering_check(p, group, weights, 4, 4)
            assert tc.passed, (m, n, tc.mismatches)
            assert tc.group_order == n
            assert tc.cover_verdict.status == KOSZUL_TO_BOUND
            cov = build_covering(p, group, weights)
            cov_model, cov_report = resolved(f"cover(ext{m},Z{n})", cov, 4, 4)
            assert cov_model.total_dims() == [n * comb(m, d) for d in range(5)]
            for i in range(5):
                assert cov_report.ext_total(i) == n * comb(m + i - 1, i)


def test_criterion_04_smash_products_match_coverings():
    with criterion(4, "smash product = covering algebra; products associate"):
        for m, n in [(1, 2), (2, 2), (2, 3)]:
            p = exterior(m)
            group = cyclic_group(n)
            weights = all_one_weights(p, n)
            # window 2m leaves room for products of two top-degree paths
            model = AlgebraModel(p, 2 * m)
            smash = smash_product(model, group, weights)
            assert smash.dim == 2 ** m * n
            assert smash.associativity_failures() == []
            assert smash.unit_failures() == []
            cov_model = AlgebraModel(build_covering(p, group, weights), 2 * m)
            assert verify_smash_covering_iso(cov_model, smash) is True
        # skew group algebras get the same exhaustive sweep
        p2 = exterior(2)
        model2 = AlgebraModel(p2, 4)
        swap = GroupAction(
            cyclic_group(2),
            {"0": {"1": "1"}, "1": {"1": "1"}},
            {"0": {"a1": "a1", "a2": "a2"}, "1": {"a1": "a2", "a2": "a1"}},
        )
        skew = skew_group_algebra(model2, swap)
        assert skew.dim == 8
        assert skew.associativity_failures() == []
        assert skew.unit_failures() == []


def test_criterion_05_smash_radical_is_lifted_radical():
    with criterion(5, "radical of the smash product is the base radical, spread |G| ways"):
        for m, n in [(1, 2), (2, 3)]:
            p = exterior(m)
            model = AlgebraModel(p, 2 * m)
            smash = smash_product(model, cyclic_group(n), all_one_weights(p, n))
            rad = radical(smash)
            base_radical_dim = sum(1 for b in model.finite_basis() if b.length)
            assert len(rad) == base_radical_dim * n
            expected = EchelonSpan()
            for i, (b, _) in enumerate(smash.labels):
                if b.length:
                    expected.add({i: Fraction(1)})
            found = EchelonSpan()
            for vec in rad:
                found.add(vec)
            assert found.equals(expected)


def test_criterion_06_cubic_loop_fails_and_its_covering_fails_alike():
    with criterion(6, "cubic loop: nonlinearity at (2,3), generation gap, covering agrees"):
        model, report = resolved("loop_cubed", loop_cubed(), 4, 6)
        assert report.verdict().status == FAILS_AT
        v = report.verdict()
        assert v.status == FAILS_AT
        assert v.witness == (2, 3)
        assert report.first_failure() == (2, 3)
        gen = generation_check(ExtAlgebra(report))
        assert not gen.passed
        assert gen.first_failure_i == 1
        assert (1, 0, 1) in gen.steps
        p = loop_cubed()
        tc = theorem_covering_check(p, cyclic_group(2), {"x": "1"}, 4, 6)
        assert tc.passed, tc.mismatches
        assert tc.cover_verdict.status == FAILS_AT
        assert tc.cover_verdict.witness == (2, 3)


def test_criterion_07_trivial_extension_dual_of_the_four_star():
    with criterion(7, "4-star doubled-tree algebra: Koszul, dual dims, Z2 covering"):
        ted = trivial_extension_dual(parse_quiver_spec("star:4"))
        model, report = resolved("ted(star:4)", ted, 4, 4)
        assert model.total_dims() == [5, 8, 5, 0, 0]
        assert report.verdict().status == KOSZUL_TO_BOUND
        pp = preprojective(parse_quiver_spec("star:4"))
        ok, witness = koszul_duality_dim_check(AlgebraModel(pp, 4), report)
        assert ok, witness
        weights = all_one_weights(ted, 2)
        tc = theorem_covering_check(ted, cyclic_group(2), weights, 4, 4)
        assert tc.passed, tc.mismatches
        assert tc.cover_verdict.status == KOSZUL_TO_BOUND
        cov = build_covering(ted, cyclic_group(2), weights)
        _, cov_report = resolved("cover(ted,Z2)", cov, 4, 4)
        assert cov_report.ext_totals() == [2 * t for t in report.ext_totals()]


def test_criterion_08_euler_identity_across_the_corpus():
    with criterion(8, "Betti-Hilbert Euler identity exact to order 5 on every instance"):
        for name, p in corpus_instances():
            model, report = resolved(name, p, 5, 5)
            ok, witness = hilbert_euler_check(report, 5)
            assert ok, (name, witness)
        # the two-vertex single-arrow case written out in closed form
        pa = path_algebra(parse_quiver_spec("line:2"))
        model, report = resolved("path_algebra(line:2)", pa, 5, 5)
        # the resolved Betti data is I - t*E12: 0 -> P(2)[-1] -> P(1) -> S(1)
        # and S(2) = P(2)
        assert report.betti == {
            ("1", 0, 0, "1"): 1, ("1", 1, 1, "2"): 1, ("2", 0, 0, "2"): 1}
        one, t = [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]
        assert hilbert_matrix(model, 5) == {
            ("1", "1"): one, ("1", "2"): t, ("2", "2"): one}
        # (I - t*E12)·H: row 1 is (1, t) - t·(0, 1) = (1, 0), row 2 is (0, 1)
        assert hilbert_euler_check(report, 5) == (True, None)


def test_criterion_09_ready_made_coverings_equal_constructed_ones():
    with criterion(9, "packaged covering presentations match build_covering"):
        for m, n in [(1, 2), (2, 2), (2, 3)]:
            direct = build_covering(
                exterior(m), cyclic_group(n), all_one_weights(exterior(m), n)
            )
            assert canonical_key(example1(m, n)) == canonical_key(direct)
        direct = build_covering(
            exterior(2), cyclic_group(3), {"a1": "1", "a2": "2"}
        )
        assert canonical_key(example2(2, 1, 3)) == canonical_key(direct)
        klein = direct_product(cyclic_group(2), cyclic_group(2))
        direct = build_covering(exterior(2), klein, {"a1": "(1,0)", "a2": "(0,1)"})
        assert canonical_key(example3(2)) == canonical_key(direct)
        direct = build_covering(exterior(2), dihedral_group(2), {"a1": "s", "a2": "c"})
        assert canonical_key(example4(2)) == canonical_key(direct)
        with pytest.raises(InhomogeneousGradingError) as exc:
            example4(3)
        message = str(exc.value)
        assert "sc" in message and "sc2" in message  # the non-commuting weights


def test_criterion_10_cli_determinism_and_round_trips(tmp_path, capsys):
    with criterion(10, "CLI output is reproducible; documents round-trip"):
        src = tmp_path / "exterior2.json"
        src.write_text(
            canonical_json(presentation_to_document(
                exterior(2), ("cyclic", 2), {"a1": "1", "a2": "1"}))
        )
        report_commands = [
            ["analyze", str(src), "--max-degree", "4", "--max-homological", "4"],
            ["verify", str(src), "--check", "koszul"],
            ["verify", str(src), "--check", "covering-theorem", "--max-homological", "3"],
        ]
        for argv in report_commands:
            main(argv)
            first = json.loads(capsys.readouterr().out)["canonical"]
            main(argv)
            second = json.loads(capsys.readouterr().out)["canonical"]
            assert json.dumps(first) == json.dumps(second), argv
        document_commands = [
            ["dual", str(src)],
            ["cover", str(src), "--group", "cyclic:2"],
            ["corpus", "build", "example3", "2"],
            ["corpus", "list"],
        ]
        for argv in document_commands:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            assert capsys.readouterr().out == first, argv
            assert first
        for name, p in corpus_instances():
            text = canonical_json(presentation_to_document(p))
            again = parse_document(text).presentation
            assert canonical_key(again) == canonical_key(p), name
            assert canonical_json(presentation_to_document(again)) == text, name
        rebuilt = build_corpus("example1", "2,2")
        assert canonical_key(rebuilt) == canonical_key(example1(2, 2))
