import json
import subprocess
import sys

import pytest

from quiverkoszul.algebra import AlgebraModel, Presentation
from quiverkoszul.cli import main
from quiverkoszul.corpus import exterior
from quiverkoszul.groups import cyclic_group
from quiverkoszul.linalg import ColumnSolver
from quiverkoszul.quiver import Quiver
from quiverkoszul.serialization import serialize_presentation


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
        serialize_presentation(exterior(2), ("cyclic", 2), {"a1": "1", "a2": "1"})
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
                                                                ext2_graded_file):
    cover = tmp_path / "exterior2_z2.json"
    assert main(["cover", ext2_graded_file, "--group", "cyclic:2",
                 "--out", str(cover)]) == 0
    capsys.readouterr()
    rc, report = run_json(capsys, ["analyze", str(cover)])
    assert rc == 0
    # one kernel solved per step for the resolved simple, every other
    # nonempty block counted
    assert report["timing"]["sizes"] == {
        "simples_resolved": 1, "simples_transported": 1,
        "kernels_computed": 4, "kernels_skipped": 7}
    assert "sizes" not in report["canonical"]
    rc, report = run_json(
        capsys, ["verify", ext2_graded_file, "--check", "covering-theorem"])
    assert rc == 0
    # the base's one simple, and one of the covering's two
    assert report["timing"]["sizes"] == {
        "simples_resolved": 2, "simples_transported": 1,
        "kernels_computed": 8, "kernels_skipped": 14}
    rc, report = run_json(
        capsys, ["verify", ext2_graded_file, "--check", "smash-iso"])
    assert rc == 0
    assert "sizes" not in report["timing"]


def test_orbit_transport_reaches_coverings_that_fall_apart(capsys, tmp_path,
                                                           ext2_file):
    # identity weights give three disjoint copies: one simple is resolved
    # and relabelled onto the other two
    cover = tmp_path / "exterior2_z3.json"
    assert main(["cover", ext2_file, "--group", "cyclic:3",
                 "--out", str(cover)]) == 0
    capsys.readouterr()
    rc, report = run_json(capsys, ["analyze", str(cover)])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 1, "simples_transported": 2,
        "kernels_computed": 4, "kernels_skipped": 7}
    # every weight s generates the order-2 subgroup of D3, so the covering
    # is three copies of a two-vertex piece; one of its six simples is
    # resolved, as is the base's one simple
    ext4 = tmp_path / "exterior4_d3.json"
    ext4.write_text(serialize_presentation(
        exterior(4), ("dihedral", 3), {f"a{k}": "s" for k in range(1, 5)}))
    rc, report = run_json(capsys, ["verify", str(ext4), "--check", "covering-theorem"])
    assert rc == 0
    assert report["timing"]["sizes"] == {
        "simples_resolved": 2, "simples_transported": 5,
        "kernels_computed": 8, "kernels_skipped": 28}


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
    doc.write_text(serialize_presentation(p, ("cyclic", 2), weights))
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
        serialize_presentation(p, ("cyclic", 2), {a.label: "1" for a in p.quiver.arrows})
    )
    rc, report = run_json(capsys, ["verify", str(path), "--check", check])
    assert rc == 0
    assert report["canonical"]["max_degree"] == 6
    assert report["canonical"]["passed"] is True


def test_internal_error_exit_3(capsys, monkeypatch, ext2_file):
    # every column dependent with an empty expansion: each coordinate becomes
    # a syzygy, so the first solved kernel exceeds the exactness count
    def all_dependent(self, vec):
        self.count += 1
        return {self.count - 1: 1}

    monkeypatch.setattr(ColumnSolver, "_add_column", all_dependent)
    rc = main(["analyze", ext2_file, "--max-degree", "3", "--max-homological", "3"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_kernel_below_the_exactness_count_exits_3(capsys, monkeypatch, ext2_file):
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


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
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

    parser = cli._build_parser()
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(cli, "_build_parser", lambda: SimpleNamespace(
        parse_args=spend(1, parser.parse_args)))
    monkeypatch.setattr(cli, "_read_document", spend(2, cli._read_document))
    monkeypatch.setattr(cli, "canonical_json", spend(4, cli.canonical_json))
    argv = [ext2_file if a == "FILE" else a for a in argv]
    rc, report = run_json(capsys, argv)
    assert rc == 0
    assert report["timing"]["seconds"] == 3
