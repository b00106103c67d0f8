import json
import subprocess
import sys
from fractions import Fraction

import pytest

from quiverkoszul.algebra import AlgebraModel, CutoffError, Presentation, hilbert_matrix
from quiverkoszul.cli import main
from quiverkoszul.corpus import corpus_instances, exterior
from quiverkoszul.covering import build_covering
from quiverkoszul.groups import cyclic_group
from quiverkoszul.linalg import ColumnSolver, as_scalar
from quiverkoszul.quiver import Quiver
from quiverkoszul.resolution import (
    NotKoszulError,
    hilbert_euler_check,
    koszul_duality_dim_check,
    resolve,
)
from quiverkoszul.serialization import canonical_json, presentation_to_document
from quiverkoszul.structure import (
    StructureConstantAlgebra,
    smash_product,
    verify_smash_covering_iso,
)
from oracles import refuse_certificate


@pytest.fixture
def ext2_file(tmp_path):
    path = tmp_path / "exterior2.json"
    rc = main(["corpus", "build", "exterior", "2", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture
def ext2_graded_file(tmp_path):
    path = tmp_path / "exterior2_graded.json"
    path.write_text(
        canonical_json(presentation_to_document(
            exterior(2), ("cyclic", 2), {"a1": "1", "a2": "1"}))
    )
    return str(path)


@pytest.fixture
def loop3_file(tmp_path):
    path = tmp_path / "loop_cubed.json"
    assert main(["corpus", "build", "loop_cubed", "--out", str(path)]) == 0
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_corpus_list_names_everything(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for name in ["exterior", "example1", "example4", "preprojective", "loop_cubed"]:
        assert name in out


def test_corpus_build_writes_document(ext2_file):
    with open(ext2_file) as fh:
        doc = json.load(fh)
    assert doc["format"] == 1
    assert len(doc["vertices"]) == 1
    assert len(doc["arrows"]) == 2
    assert len(doc["relations"]) == 3


def test_corpus_build_bad_args_exit_2(capsys):
    assert main(["corpus", "build", "exterior", "x"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["corpus", "build", "exterior", "²"], "expected arguments"),
    (["corpus", "build", "radical_square_zero", "loops:²"], "bad quiver spec"),
    (["cover", "{file}", "--group", "cyclic:²"], "expected a number"),
], ids=["exterior", "loops", "cyclic"])
def test_non_ascii_digits_exit_2_with_the_named_error(capsys, ext2_file, argv, message):
    # str.isdigit accepts a superscript two, int() does not
    assert main([a.format(file=ext2_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "invalid literal" not in err


def test_analyze_reports_verdict_and_dims(capsys, ext2_file):
    rc, report = run_json(
        capsys, ["analyze", ext2_file, "--max-degree", "5", "--max-homological", "5"]
    )
    assert rc == 0
    assert report["format"] == 1
    c = report["canonical"]
    assert c["verdict"] == {"status": "koszul-to-bound", "witness": None}
    assert [row["total"] for row in c["dims"]] == [1, 2, 1, 0, 0, 0]
    assert c["ext_totals"] == [1, 2, 3, 4, 5, 6]
    assert c["generation"]["passed"] is True
    assert c["euler_identity"]["holds"] is True
    assert "timing" in report


def test_resolving_commands_report_orbit_sizes_outside_canonical(capsys, tmp_path,
                                                                ext2_graded_file,
                                                                monkeypatch):
    cover = tmp_path / "exterior2_z2.json"
    assert main(["cover", ext2_graded_file, "--group", "cyclic:2",
                 "--out", str(cover)]) == 0
    capsys.readouterr()
    # both simples certified: i + 1 chains at step i from each, one entry
    rc, report = run_json(capsys, ["analyze", str(cover)])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 0, "simples_transported": 0, "simples_certified": 2,
        "kernels_computed": 0, "kernels_skipped": 0,
        "generators": 30, "generator_runs": 10}
    assert "sizes" not in report["canonical"]
    rc, report = run_json(
        capsys, ["verify", ext2_graded_file, "--check", "covering-theorem"])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 0, "simples_transported": 0, "simples_certified": 3,
        "kernels_computed": 0, "kernels_skipped": 0,
        "generators": 45, "generator_runs": 15}
    refuse_certificate(monkeypatch)
    rc, report = run_json(capsys, ["analyze", str(cover)])
    assert rc == 0
    # one kernel solved per step for the resolved simple, every other
    # nonempty block counted; its i + 1 generators at step i sit in one run
    assert report["timing"]["sizes"] == {
        "simples_resolved": 1, "simples_transported": 1, "simples_certified": 0,
        "kernels_computed": 4, "kernels_skipped": 7,
        "generators": 15, "generator_runs": 5}
    assert "sizes" not in report["canonical"]
    rc, report = run_json(
        capsys, ["verify", ext2_graded_file, "--check", "covering-theorem"])
    assert rc == 0
    # the base's one simple, and one of the covering's two
    assert report["timing"]["sizes"] == {
        "simples_resolved": 2, "simples_transported": 1, "simples_certified": 0,
        "kernels_computed": 8, "kernels_skipped": 14,
        "generators": 30, "generator_runs": 10}
    rc, report = run_json(
        capsys, ["verify", ext2_graded_file, "--check", "smash-iso"])
    assert rc == 0
    # smash-iso resolves nothing; it counts its labels: e#p_g, a1#p_g and
    # a2#p_g are short, and both a1a2#p_g decompose
    assert report["timing"]["sizes"] == {
        "short_labels": 6, "decomposed_labels": 2, "full_sweeps": 0}
    assert "sizes" not in report["canonical"]


@pytest.mark.parametrize("check", ["covering-theorem", "smash-iso", "radical-smash"])
def test_graded_verify_builds_its_group_once(monkeypatch, capsys, ext2_graded_file, check):
    # parsing builds the declared group to check the weights, and the check
    # reads that group from the document
    from quiverkoszul import serialization

    build_group, built = serialization.build_group, []

    def spy(spec):
        built.append(spec)
        return build_group(spec)

    monkeypatch.setattr(serialization, "build_group", spy)
    rc, report = run_json(capsys, ["verify", ext2_graded_file, "--check", check])
    assert (rc, report["canonical"]["passed"]) == (0, True)
    assert built == [("cyclic", 2)]


def test_orbit_transport_reaches_coverings_that_fall_apart(capsys, tmp_path,
                                                           ext2_file, monkeypatch):
    cover = tmp_path / "exterior2_z3.json"
    assert main(["cover", ext2_file, "--group", "cyclic:3",
                 "--out", str(cover)]) == 0
    capsys.readouterr()
    # every weight s generates the order-2 subgroup of D3, so the covering
    # is three copies of a two-vertex piece
    ext4 = tmp_path / "exterior4_d3.json"
    ext4.write_text(canonical_json(presentation_to_document(
        exterior(4), ("dihedral", 3), {f"a{k}": "s" for k in range(1, 5)})))
    # certified: i + 1 and C(3 + i, i) chains at step i from each simple
    rc, report = run_json(capsys, ["analyze", str(cover)])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 0, "simples_transported": 0, "simples_certified": 3,
        "kernels_computed": 0, "kernels_skipped": 0,
        "generators": 45, "generator_runs": 15}
    rc, report = run_json(capsys, ["verify", str(ext4), "--check", "covering-theorem"])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 0, "simples_transported": 0, "simples_certified": 7,
        "kernels_computed": 0, "kernels_skipped": 0,
        "generators": 490, "generator_runs": 35}
    refuse_certificate(monkeypatch)
    # identity weights give three disjoint copies: one simple is resolved
    # and relabelled onto the other two
    rc, report = run_json(capsys, ["analyze", str(cover)])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 1, "simples_transported": 2, "simples_certified": 0,
        "kernels_computed": 4, "kernels_skipped": 7,
        "generators": 15, "generator_runs": 5}
    # one of the covering's six simples is resolved, as is the base's one
    rc, report = run_json(capsys, ["verify", str(ext4), "--check", "covering-theorem"])
    assert rc == 0
    # each resolved simple has C(3 + i, i) generators at step i, in one run
    assert report["timing"]["sizes"] == {
        "simples_resolved": 2, "simples_transported": 5, "simples_certified": 0,
        "kernels_computed": 8, "kernels_skipped": 28,
        "generators": 140, "generator_runs": 10}


@pytest.mark.parametrize("n, want", [(4, (2, 3, 39, 66)), (6, (2, 5, 55, 92))])
def test_orbit_transport_moves_the_leaves_of_a_star(capsys, tmp_path, n, want):
    # the leaf swaps keep the ideal, so the centre and one leaf are
    # resolved and the other leaves relabelled; resolving every vertex
    # computes 96 and 190 kernels (tests/test_resolution.py pins the first)
    doc = tmp_path / "ted.json"
    assert main(["corpus", "build", "trivial_extension_dual", f"star:{n}",
                 "--out", str(doc)]) == 0
    capsys.readouterr()
    rc, report = run_json(capsys, ["analyze", str(doc), "--max-degree", "8",
                                   "--max-homological", "8"])
    assert (rc, report["canonical"]["verdict"]["status"]) == (0, "koszul-to-bound")
    assert report["canonical"]["generation"]["passed"] is True
    sizes = report["timing"]["sizes"]
    assert (sizes["simples_resolved"], sizes["simples_transported"],
            sizes["kernels_computed"], sizes["kernels_skipped"]) == want


def test_analyze_json_flag_writes_file(tmp_path, capsys, ext2_file):
    out = tmp_path / "report.json"
    rc = main(["analyze", ext2_file, "--max-degree", "4",
               "--max-homological", "3", "--json", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["canonical"]["max_degree"] == 4


def test_verify_koszul_pass_exit_0(capsys, ext2_file):
    rc, report = run_json(
        capsys, ["verify", ext2_file, "--check", "koszul", "--max-homological", "4"]
    )
    assert rc == 0
    assert report["canonical"]["passed"] is True


def test_verify_koszul_failure_exit_1_with_witness(capsys, loop3_file):
    rc, report = run_json(capsys, ["verify", loop3_file, "--check", "koszul"])
    assert rc == 1
    details = report["canonical"]["details"]
    assert details["verdict"]["status"] == "fails-at"
    assert details["verdict"]["witness"] == [2, 3]


def test_verify_generation_failure_names_step(capsys, loop3_file):
    rc, report = run_json(capsys, ["verify", loop3_file, "--check", "generation"])
    assert rc == 1
    details = report["canonical"]["details"]
    assert details["first_failure"] == 1
    assert {"step": 1, "achieved": 0, "required": 1} in details["steps"]


def test_verify_hilbert_euler(capsys, loop3_file):
    rc, report = run_json(
        capsys,
        ["verify", loop3_file, "--check", "hilbert-euler",
         "--max-degree", "6", "--max-homological", "5", "--cutoff", "5"],
    )
    assert rc == 0
    assert report["canonical"]["details"]["cutoff"] == 5


def test_verify_cutoff_out_of_window_exit_2(capsys, ext2_file):
    rc = main(["verify", ext2_file, "--check", "hilbert-euler", "--cutoff", "9"])
    assert rc == 2


def test_verify_negative_cutoff_exit_2(capsys, ext2_file):
    rc = main(["verify", ext2_file, "--check", "hilbert-euler", "--cutoff", "-1"])
    assert rc == 2
    assert "cutoff -1" in capsys.readouterr().err


def test_verify_graded_checks(capsys, ext2_graded_file):
    for check in ["covering-theorem", "smash-iso", "radical-smash"]:
        rc, report = run_json(
            capsys,
            ["verify", ext2_graded_file, "--check", check, "--max-homological", "3"],
        )
        assert rc == 0, check
        assert report["canonical"]["passed"] is True, check


def _max_degree_0_reports(vertices):
    """(exit code, canonical block) per command at --max-degree 0, where
    only the trivial paths are in the window and no step past 0 has a
    generator."""
    n = len(vertices)
    betti = [{"count": 1, "degree": 0, "simple": v, "step": 0, "vertex": v}
             for v in vertices]
    unknown = {"status": "unknown-beyond-bound", "witness": None}
    window = {"max_degree": 0, "max_homological": 4}

    def verify(check, passed, details):
        return {"check": check, "command": "verify", "details": details,
                "passed": passed, **window}

    return {
        "analyze": (0, {
            "betti": betti, "command": "analyze",
            "dims": [{"blocks": [{"dim": 1, "from": v, "to": v} for v in vertices],
                      "degree": 0, "total": n}],
            "euler_identity": {"cutoff": 0, "holds": True, "witness": None},
            "ext_totals": [n, 0, 0, 0, 0],
            "generation": {"checked_to": 4, "first_failure": None, "passed": True},
            "hilbert": [{"coefficients": [1], "from": v, "to": v} for v in vertices],
            "verdict": unknown, **window}),
        "koszul": (1, verify("koszul", False, {
            "betti": betti, "ext_totals": [n, 0, 0, 0, 0], "verdict": unknown})),
        "generation": (0, verify("generation", True, {
            "checked_to": 4, "first_failure": None, "passed": True,
            "steps": [{"achieved": 0, "required": 0, "step": i} for i in range(4)]})),
        "hilbert-euler": (0, verify("hilbert-euler", True,
                                    {"cutoff": 0, "witness": None})),
        "covering-theorem": (0, verify("covering-theorem", True, {
            "base_verdict": unknown, "cover_verdict": unknown, "group_order": 2,
            "mismatches": []})),
    }


@pytest.mark.parametrize("name", ["exterior2", "one_arrow"])
def test_max_degree_0_reports_every_check(capsys, tmp_path, name):
    # a window that stops at degree 0 holds no arrow: every resolution ends
    # at step 0, and each command still prints its report
    if name == "exterior2":
        p, weights = exterior(2), {"a1": "1", "a2": "1"}
    else:
        q = Quiver(["1", "2"], [("a", "1", "2")])
        p, weights = Presentation(q, []), {"a": "1"}
    doc = tmp_path / f"{name}.json"
    doc.write_text(canonical_json(presentation_to_document(p, ("cyclic", 2), weights)))
    for command, want in _max_degree_0_reports(p.quiver.vertices).items():
        argv = ["analyze"] if command == "analyze" else ["verify", "--check", command]
        rc, report = run_json(capsys, argv[:1] + [str(doc)] + argv[1:]
                              + ["--max-degree", "0"])
        assert (rc, report["canonical"]) == want, command


@pytest.mark.parametrize("check", ["smash-iso", "radical-smash"])
def test_smash_checks_on_exterior4_fit_the_default_window(capsys, tmp_path, check):
    # products of exterior(4) reach degree 8, past the default window 6;
    # they vanish because degree 5 already does
    p = exterior(4)
    path = tmp_path / "exterior4_z2.json"
    path.write_text(
        canonical_json(presentation_to_document(
            p, ("cyclic", 2), {a.label: "1" for a in p.quiver.arrows}))
    )
    rc, report = run_json(capsys, ["verify", str(path), "--check", check])
    assert rc == 0
    assert report["canonical"]["max_degree"] == 6
    assert report["canonical"]["passed"] is True


def _off_span(s, rad):
    # the first basis vector also moves along a vertex idempotent's label
    zero = next(i for i, (b, _) in enumerate(s.labels) if not b.length)
    return [{**rad[0], zero: 1}] + rad[1:]


def _one_short(s, rad):
    return rad[:-1]


@pytest.mark.parametrize("fault,radical_dim", [(_off_span, 6), (_one_short, 5)],
                         ids=["off-span", "one-short"])
def test_radical_smash_fails_on_a_wrong_radical(monkeypatch, capsys, ext2_graded_file,
                                                fault, radical_dim):
    from quiverkoszul import cli

    radical = cli.radical
    monkeypatch.setattr(cli, "radical", lambda s: fault(s, radical(s)))
    rc, report = run_json(
        capsys, ["verify", ext2_graded_file, "--check", "radical-smash"])
    assert rc == 1
    assert report["canonical"]["passed"] is False
    assert report["canonical"]["details"] == {
        "radical_dim": radical_dim, "expected_dim": 6, "spans_match": False}


@pytest.mark.parametrize("options, line", [
    (["--check", "hilbert-euler", "--cutoff", "-1"], "error: cutoff -1 is negative"),
    (["--check", "hilbert-euler", "--cutoff", "5"],
     "error: cutoff 5 exceeds the certified window 4"),
    (["--check", "duality-dims", "--max-degree", "2"],
     "error: duality dimension check needs koszul-to-bound, got unknown-beyond-bound"),
], ids=["negative-cutoff", "cutoff-past-window", "duality-needs-koszul"])
def test_precondition_errors_exit_2_with_their_message(capsys, ext2_file, options, line):
    assert main(["verify", ext2_file, *options]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_precondition_errors_are_named():
    # the three sites behind the exit-2 lines above
    model = AlgebraModel(exterior(2), 6)
    with pytest.raises(CutoffError, match="^cutoff -1 is negative$"):
        hilbert_matrix(model, -1)
    with pytest.raises(CutoffError, match="^cutoff 5 exceeds the certified window 4$"):
        hilbert_euler_check(resolve(model, 4), 5)
    with pytest.raises(NotKoszulError, match="got unknown-beyond-bound$"):
        koszul_duality_dim_check(AlgebraModel(exterior(2), 2),
                                 resolve(AlgebraModel(exterior(2), 2), 4))


def test_internal_error_exit_3(capsys, monkeypatch, ext2_file):
    # every column dependent with an empty expansion: each coordinate becomes
    # a syzygy, so the first solved kernel exceeds the exactness count
    def all_dependent(self, vec):
        self.count += 1
        return {self.count - 1: 1}

    refuse_certificate(monkeypatch)
    monkeypatch.setattr(ColumnSolver, "_add_column", all_dependent)
    rc = main(["analyze", ext2_file, "--max-degree", "3", "--max-homological", "3"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_kernel_below_the_exactness_count_exits_3(capsys, monkeypatch, ext2_file):
    refuse_certificate(monkeypatch)
    monkeypatch.setattr(ColumnSolver, "_add_column", lambda self, vec: None)
    rc = main(["analyze", ext2_file, "--max-degree", "3", "--max-homological", "3"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: step 1 kernel in degree 2 at vertex 1 has dimension 0")


def test_internal_error_in_model_exit_3(capsys, monkeypatch, ext2_file):
    monkeypatch.setattr(AlgebraModel, "normal_form", lambda self, x: {"x": 1})
    rc = main(["verify", ext2_file, "--check", "koszul"])
    assert rc == 3
    assert "internal error: relation" in capsys.readouterr().err


def test_smash_iso_size_mismatch_exits_3(capsys, monkeypatch, ext2_graded_file):
    # a covering over Z3 against the document's Z2 smash product: the two
    # tables of one base model disagree in size, which only a defect causes
    from quiverkoszul import cli

    build_covering = cli.build_covering
    monkeypatch.setattr(
        cli, "build_covering",
        lambda p, group, weights: build_covering(p, cyclic_group(3), weights))
    rc = main(["verify", ext2_graded_file, "--check", "smash-iso"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: basis size mismatch: covering has 12, smash has 8")


_FINITE_CORPUS = [(label, p) for label, p in corpus_instances()
                  if AlgebraModel(p, 6).top_degree() is not None]


@pytest.mark.parametrize("p", [p for _, p in _FINITE_CORPUS],
                         ids=[label for label, _ in _FINITE_CORPUS])
def test_smash_iso_runs_no_full_sweep_on_corpus_covers(capsys, tmp_path, p):
    # every label is short or decomposed, and nothing falls back
    path = tmp_path / "graded.json"
    path.write_text(canonical_json(presentation_to_document(
        p, ("cyclic", 2), {a.label: "1" for a in p.quiver.arrows})))
    rc, report = run_json(capsys, ["verify", str(path), "--check", "smash-iso"])
    assert (rc, report["canonical"]["passed"]) == (0, True)
    sizes = report["timing"]["sizes"]
    assert sizes["full_sweeps"] == 0
    assert (sizes["short_labels"] + sizes["decomposed_labels"]
            == report["canonical"]["details"]["smash_dim"])


def _long_left_doubled(s):
    # the first product whose left factor is long, times 2: the short rows
    # still match the covering, and the table stops being associative
    key = next(key for key in s.table if s.labels[key[0]][0].length > 1)
    table = {**s.table, key: {k: 2 * c for k, c in s.table[key].items()}}
    return StructureConstantAlgebra(s.labels, s.unit, table)


def _top_label_doubled(s):
    # the basis with one top-degree label b replaced by 2b: the same
    # associative algebra, in which b is b_a b_x with coefficient 1/2 only
    top = max(range(s.dim), key=lambda i: s.labels[i][0].length)

    def scale(i):
        return 2 if i == top else 1

    table = {(i, j): {k: as_scalar(Fraction(c * scale(i) * scale(j), scale(k)))
                      for k, c in vec.items()}
             for (i, j), vec in s.table.items()}
    return StructureConstantAlgebra(s.labels, s.unit, table)


@pytest.mark.parametrize("perturb,full_sweeps,short_iso", [
    (_long_left_doubled, 2, True),
    (_top_label_doubled, 1, False),
], ids=["long-left-product", "undecomposed-label"])
def test_smash_iso_falls_back_to_the_full_sweeps(monkeypatch, capsys, tmp_path,
                                                 perturb, full_sweeps, short_iso):
    # the report is what the full associativity sweep and the full comparison
    # give on the perturbed table, as before the short decisions
    from quiverkoszul import cli

    p, group = exterior(3), cyclic_group(2)
    weights = {a.label: "1" for a in p.quiver.arrows}
    path = tmp_path / "exterior3_z2.json"
    path.write_text(canonical_json(presentation_to_document(p, ("cyclic", 2), weights)))
    built = []

    def perturbed(m, group, weights):
        built.append(perturb(smash_product(m, group, weights)))
        return built[-1]

    monkeypatch.setattr(cli, "smash_product", perturbed)
    rc, report = run_json(capsys, ["verify", str(path), "--check", "smash-iso"])
    s, = built
    cov_model = AlgebraModel(build_covering(p, group, weights), 6)
    assert verify_smash_covering_iso(cov_model, s, 1) is short_iso
    full_iso, full = verify_smash_covering_iso(cov_model, s), s.associativity_failures()
    assert full_iso is False and (full != []) == (full_sweeps == 2)
    assert (rc, report["canonical"]["passed"]) == (1, False)
    assert report["canonical"]["details"] == json.loads(json.dumps({
        "isomorphic": full_iso, "smash_dim": 16, "associativity_failures": full[:5],
        "unit_failures": s.unit_failures()[:5], "notes": []}))
    # e#p_g and the three arrows on both sheets are short; the doubled top
    # label is the one long label left undecomposed
    decomposed = 8 - (perturb is _top_label_doubled)
    assert report["timing"]["sizes"] == {
        "short_labels": 8, "decomposed_labels": decomposed, "full_sweeps": full_sweeps}


def test_verify_graded_check_needs_grading(capsys, ext2_file):
    rc = main(["verify", ext2_file, "--check", "covering-theorem"])
    assert rc == 2
    assert "grading" in capsys.readouterr().err


def test_verify_duality_dims(capsys, ext2_file):
    rc, _ = run_json(capsys, ["verify", ext2_file, "--check", "duality-dims"])
    assert rc == 0


def test_verify_duality_dims_needs_quadratic(capsys, loop3_file):
    assert main(["verify", loop3_file, "--check", "duality-dims"]) == 2


def test_cover_builds_covering_document(capsys, tmp_path, ext2_file):
    out = tmp_path / "cov.json"
    rc = main(["cover", ext2_file, "--group", "cyclic:2",
               "--weights", "a1=1,a2=1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["vertices"]) == ["1|0", "1|1"]
    assert len(doc["arrows"]) == 4
    assert len(doc["relations"]) == 6


def test_cover_defaults_weights_from_grading(capsys, tmp_path, ext2_graded_file):
    out = tmp_path / "cov.json"
    rc = main(["cover", ext2_graded_file, "--group", "cyclic:2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    a = next(a for a in doc["arrows"] if a["name"] == "a1|0")
    assert a["to"] == "1|1"  # weight 1 moved the sheet


def test_cover_identity_weights_when_group_differs(capsys, tmp_path, ext2_graded_file):
    out = tmp_path / "cov.json"
    rc = main(["cover", ext2_graded_file, "--group", "cyclic:3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    a = next(a for a in doc["arrows"] if a["name"] == "a1|0")
    assert a["to"] == "1|0"  # identity weights keep every sheet


def test_cover_product_group_weights_with_commas(capsys, tmp_path, ext2_file):
    out = tmp_path / "cov.json"
    rc = main(["cover", ext2_file, "--group", "product:cyclic:2,cyclic:2",
               "--weights", "a1=(1,0),a2=(0,1)", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 4
    assert len(doc["arrows"]) == 8


def test_cover_inhomogeneous_weights_exit_2(capsys, ext2_file):
    rc = main(["cover", ext2_file, "--group", "dihedral:3",
               "--weights", "a1=s,a2=c"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "inhomogeneous" in err


def test_cover_bad_weight_syntax_exit_2(capsys, ext2_file):
    assert main(["cover", ext2_file, "--group", "cyclic:2",
                 "--weights", "a1"]) == 2
    assert main(["cover", ext2_file, "--group", "cyclic:2",
                 "--weights", "zz=1"]) == 2
    assert main(["cover", ext2_file, "--group", "cyclic:2",
                 "--weights", "a1=1,a1=1"]) == 2
    capsys.readouterr()


def test_dual_emits_document(capsys, ext2_file):
    rc, doc = run_json(capsys, ["dual", ext2_file])
    assert rc == 0
    assert doc["format"] == 1
    assert len(doc["relations"]) == 1


def test_missing_file_exit_2(capsys):
    assert main(["analyze", "no_such_file.json"]) == 2
    capsys.readouterr()


def test_determinism_of_canonical_sections(capsys, ext2_graded_file):
    commands = [
        ["analyze", ext2_graded_file, "--max-degree", "4", "--max-homological", "3"],
        ["verify", ext2_graded_file, "--check", "koszul"],
        ["verify", ext2_graded_file, "--check", "smash-iso"],
    ]
    for argv in commands:
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert json.dumps(first["canonical"]) == json.dumps(second["canonical"]), argv


def test_document_outputs_byte_identical(capsys, ext2_file):
    for argv in [
        ["dual", ext2_file],
        ["cover", ext2_file, "--group", "cyclic:2", "--weights", "a1=1,a2=1"],
        ["corpus", "build", "example1", "2,2"],
    ]:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first


def test_console_script_entry_point(tmp_path):
    # one end-to-end run through the installed script
    proc = subprocess.run(
        [sys.executable, "-m", "quiverkoszul.cli", "corpus", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exterior" in proc.stdout


def test_main_builds_one_parser_per_process(capsys, monkeypatch, ext2_file):
    import argparse

    from quiverkoszul import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "quiverkoszul":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    assert built == []  # built on the first call, not before
    # a well-formed file-command line is read without one
    assert main(["analyze", ext2_file, "--max-degree", "3"]) == 0
    assert built == []
    assert main(["corpus", "list"]) == 0
    assert main(["corpus", "list"]) == 0
    assert len(built) == 1
    # argparse still rejects a bad command line with exit 2, call after call
    for _ in range(2):
        with pytest.raises(SystemExit) as rejected:
            main(["analyze"])
        assert rejected.value.code == 2
        assert "the following arguments are required: file" in capsys.readouterr().err
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    code = ("import quiverkoszul.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("argv", [
    ["analyze", "FILE", "--max-degree", "3", "--max-homological", "2"],
    ["verify", "FILE", "--check", "koszul", "--max-degree", "3", "--max-homological", "3"],
], ids=["analyze", "verify"])
def test_report_seconds_cover_everything_but_rendering(capsys, monkeypatch, ext2_file,
                                                       argv):
    # a clock that moves only where the test moves it: 1 s in parsing the
    # arguments, 2 s in reading the document, 4 s in rendering the report
    from types import SimpleNamespace

    from quiverkoszul import cli

    now = [0]

    def spend(seconds, fn):
        def wrapped(*args):
            now[0] += seconds
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(cli, "_parse_args", spend(1, cli._parse_args))
    monkeypatch.setattr(cli, "_read_document", spend(2, cli._read_document))
    monkeypatch.setattr(cli, "canonical_json", spend(4, cli.canonical_json))
    argv = [ext2_file if a == "FILE" else a for a in argv]
    rc, report = run_json(capsys, argv)
    assert rc == 0
    assert report["timing"]["seconds"] == 3


# -- reading command lines without argparse ---------------------------------

_DECLINED = object()


def _fast_read(monkeypatch, argv):
    """``cli._parse_args(argv)``, or ``_DECLINED`` where it hands the line to
    argparse."""
    from types import SimpleNamespace

    from quiverkoszul import cli

    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser",
                  lambda: SimpleNamespace(parse_args=lambda argv: _DECLINED))
        return cli._parse_args(argv)


def _argparse_read(capsys, argv):
    """argparse's namespace for ``argv``, or the ``SystemExit`` it raises."""
    from quiverkoszul import cli

    try:
        return cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc
    finally:
        capsys.readouterr()


# token groups a generated line is made of: well-formed ones (declared flags
# in both forms), then odd ones (help, abbreviations, negative and non-integer
# values, missing values, unknown checks and flags, "--", dashed positionals)
_TOKEN_GROUPS = {
    "analyze": ([("--max-degree", "3"), ("--max-degree=5",), ("--max-homological", "2"),
                 ("--max-homological=0",), ("--json", "out.json"), ("--json=r.json",),
                 ("--json=",), ("--json", "")],
                [("--max-d", "3"), ("--max-degree", "-1"), ("--max-degree=-1",),
                 ("--max-degree", "x"), ("--max-degree", "+4"), ("--max-degree", "3.5"),
                 ("--max-degree",), ("--json", "-")]),
    "dual": ([("--out", "d.json"), ("--out=e.json",)],
             [("--o", "d.json"), ("--out",), ("--out", "--out")]),
    "cover": ([("--group", "cyclic:2"), ("--group=dihedral:3",), ("--weights", "a1=1"),
               ("--weights=a1=1,a2=0",), ("--out", "c.json")],
              [("--gr", "cyclic:2"), ("--weights", "-1"), ("--group",)]),
    "verify": ([("--check", "koszul"), ("--check=smash-iso",), ("--max-degree", "4"),
                ("--max-homological=3",), ("--cutoff", "2"), ("--cutoff", " 3")],
               [("--check", "bogus"), ("--check=",), ("--che", "koszul"),
                ("--cutoff", "-1"), ("--cutoff=two",), ("--max", "3")]),
}
_ODD_GROUPS = [("other.json",), ("a=b.json",), ("",), ("-h",), ("--help",), ("--",),
               ("--unknown",), ("-x",), ("-",)]


def _generated_lines(command, count=300, seed=0):
    """Half the lines are one FILE among well-formed groups; the other half
    draw from every group."""
    import random

    rng = random.Random(seed)
    good, odd = _TOKEN_GROUPS[command]
    lines = [[command], [command, "FILE"]]
    while len(lines) < count:
        groups = good if len(lines) % 2 else good + odd + _ODD_GROUPS
        picked = rng.choices(groups, k=rng.randint(0, 6))
        picked.insert(rng.randint(0, len(picked)), ("FILE",))
        lines.append([command, *(t for group in picked for t in group)])
    return lines


@pytest.mark.parametrize("command", sorted(_TOKEN_GROUPS))
def test_fast_read_agrees_with_argparse_or_declines(capsys, monkeypatch, command):
    fast_reads = 0
    for argv in _generated_lines(command):
        fast = _fast_read(monkeypatch, argv)
        expected = _argparse_read(capsys, argv)
        if isinstance(expected, SystemExit):
            assert fast is _DECLINED, argv
        elif fast is not _DECLINED:
            fast_reads += 1
            assert vars(fast) == vars(expected), argv
    assert fast_reads >= 60  # the generated lines reach the fast path too


def _documented_lines():
    """The file-command lines of the README's command block, of the CI
    workflow and of the benchmark's jobs, as argv lists."""
    import importlib.util
    import pathlib
    import re
    import shlex

    from quiverkoszul.cli import _FILE_COMMANDS

    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = {"README": [shlex.split(line)[1:] for line in block.splitlines()
                        if line.startswith("quiverkoszul ")]}
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    lines["workflow"] = [
        shlex.split(re.split(r"\s+\d?[>|&;]", m.group(1))[0])
        for m in re.finditer(r"python -m quiverkoszul\.cli (.*)", workflow)]
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    lines["workloads"] = [job.command("DOCS") for jobs in workloads.WORKLOADS.values()
                          for job in jobs]
    return {source: [argv for argv in found if argv[0] in _FILE_COMMANDS]
            for source, found in lines.items()}


def test_documented_command_lines_take_the_fast_path(capsys, monkeypatch):
    documented = _documented_lines()
    assert min(map(len, documented.values())) >= 4, documented
    for source, lines in documented.items():
        for argv in lines:
            expected = _argparse_read(capsys, argv)
            if isinstance(expected, SystemExit):
                # the workflow's CLI-surface step runs malformed lines on purpose
                assert source == "workflow", argv
                continue
            fast = _fast_read(monkeypatch, argv)
            assert fast is not _DECLINED, (source, argv)
            assert vars(fast) == vars(expected), (source, argv)


def test_a_fast_read_command_never_imports_argparse(ext2_file):
    # once with the line given, once read from sys.argv
    code = ("import sys; from quiverkoszul.cli import main; "
            f"sys.argv[1:] = ['verify', {ext2_file!r}, '--check', 'koszul']; "
            f"rcs = main(['analyze', {ext2_file!r}]), main(); "
            "print(*rcs, 'argparse' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 0 False"


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["analyze", "-h"], ["dual", "-h"], ["cover", "--help"],
    ["verify", "-h"], ["verify", "FILE", "--check", "koszul", "-h"], ["corpus", "-h"],
    ["corpus", "build", "-h"],
])
def test_help_is_argparse_help(capsys, argv):
    from quiverkoszul import cli

    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert exc.value.code == 0 and expected.out.startswith("usage:")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv", [
    ["verify", "FILE", "--check", "bogus"],
    ["verify", "FILE"],
    ["verify", "--check", "koszul"],
    ["analyze"],
    ["analyze", "FILE", "extra"],
    ["cover", "FILE"],
    ["dual", "FILE", "--out"],
    ["analyze", "FILE", "--max-degree", "x"],
    ["analyze", "FILE", "--bogus"],
    [],
    ["bogus"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_malformed_lines_get_argparse_errors(capsys, argv):
    from quiverkoszul import cli

    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert exc.value.code == 2 and expected.err.startswith("usage:")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == expected


def test_abbreviated_and_negative_values_still_go_through_argparse(capsys, ext2_file):
    rc, report = run_json(capsys, ["analyze", ext2_file, "--max-d", "3",
                                   "--max-homological", "2"])
    assert rc == 0
    assert (report["canonical"]["max_degree"],
            report["canonical"]["max_homological"]) == (3, 2)
    assert main(["analyze", ext2_file, "--max-degree", "-1"]) == 2
    assert "must be nonnegative" in capsys.readouterr().err
