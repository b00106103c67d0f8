"""The Anick-chain route of ``resolve`` against the full resolution.

A model whose degree-2 tips form a Gröbner basis gets its Betti table as
chain counts (``_chain_betti``); every such table must be the resolution's,
and every command's canonical report must be the one the resolution gives.
"""

import json
import math
import random

import pytest

from quiverkoszul.algebra import AlgebraModel, Presentation
from quiverkoszul.cli import main
from quiverkoszul.corpus import (
    corpus_instances,
    exterior,
    loop_cubed,
    parse_quiver_spec,
    preprojective,
    radical_square_zero,
    trivial_extension_dual,
)
from quiverkoszul.covering import build_covering
from quiverkoszul.duality import dual_presentation
from quiverkoszul.groups import cyclic_group
from quiverkoszul.resolution import (
    FAILS_AT,
    ExtAlgebra,
    _chain_betti,
    generation_check,
    resolution_sizes,
    resolve,
)
from quiverkoszul.serialization import canonical_json, presentation_to_document
from oracles import refuse_certificate, resolve_in_full
from random_inputs import random_graded_presentation, random_presentation


def _z2_cover(p):
    return build_covering(p, cyclic_group(2), {a.label: "1" for a in p.quiver.arrows})


def _quadratic_part(p):
    return Presentation(p.quiver, [r for r in p.relations if r.length == 2])


def _cases():
    """(presentation, max_degree, i_max) by name."""
    cases = {}
    for label, p in corpus_instances():
        for d_max, i_max in ((6, 6), (3, 3), (4, 7)):
            cases[f"{label}-{d_max}/{i_max}"] = (p, d_max, i_max)
        cases[f"{label}-Z2-5/5"] = (_z2_cover(p), 5, 5)
    for seed in range(100):
        cases[f"random-{seed}"] = (random_presentation(random.Random(seed)), 6, 6)
    for seed in range(60):
        p, group, weights = random_graded_presentation(random.Random(seed))
        cases[f"graded-cover-{seed}"] = (build_covering(p, group, weights), 5, 5)
        cases[f"graded-quadratic-cover-{seed}"] = (
            build_covering(_quadratic_part(p), group, weights), 5, 5)
    return cases


CASES = _cases()


def _sizes_cover_every_vertex(report):
    sizes = resolution_sizes(report)
    assert (sizes["simples_resolved"] + sizes["simples_transported"]
            + sizes["simples_certified"]) == len(report.simples)
    return sizes


@pytest.mark.parametrize("name", list(CASES))
def test_chain_counts_are_the_resolutions_betti_table(name):
    p, d_max, i_max = CASES[name]
    model = AlgebraModel(p, d_max)
    report, full = resolve(model, i_max), resolve_in_full(model, i_max)
    assert not full.certified and full.per_simple
    assert report.certified == (_chain_betti(model, i_max) is not None)
    assert report.betti == full.betti
    assert 0 not in report.betti.values()
    assert report.verdict() == full.verdict()
    assert report.ext_totals() == full.ext_totals()
    assert report.arrow_ranks == full.arrow_ranks
    assert generation_check(ExtAlgebra(report)) == generation_check(ExtAlgebra(full))
    sizes, full_sizes = _sizes_cover_every_vertex(report), _sizes_cover_every_vertex(full)
    if report.certified:
        assert report.per_simple == {} and report.verdict().status != FAILS_AT
        assert sizes == {
            "simples_resolved": 0, "simples_transported": 0,
            "simples_certified": len(report.simples),
            "kernels_computed": 0, "kernels_skipped": 0,
            "generators": sum(report.betti.values()), "generator_runs": len(report.betti)}
    else:
        assert sizes == full_sizes and sizes["simples_certified"] == 0


def test_the_certificate_covers_the_papers_examples():
    # exterior algebras and their covers, examples 1-4, and the radical
    # square zero and hereditary instances; the other quadratic instances
    # are Koszul to the bound but their tips are not a Gröbner basis
    certified = {name for name, (p, d_max, i_max) in CASES.items()
                 if _chain_betti(AlgebraModel(p, d_max), i_max) is not None}
    for label, _ in corpus_instances():
        want = not label.startswith(("loop_cubed", "preprojective(star",
                                     "trivial_extension_dual(star"))
        assert (f"{label}-6/6" in certified) == want, label
        assert (f"{label}-Z2-5/5" in certified) == want, label
    assert 5 < sum(name.startswith("random-") for name in certified) < 90
    assert sum(name.startswith("graded-quadratic-cover-") for name in certified) > 10


@pytest.mark.parametrize("p, d_max", [
    (loop_cubed(), 6),
    (exterior(3), 2),
    (preprojective(parse_quiver_spec("line:6")), 6),
    (trivial_extension_dual(parse_quiver_spec("star:4")), 6),
], ids=["loop_cubed", "window-2", "preprojective-line6", "ted-star4"])
def test_the_certificate_refuses(p, d_max):
    model = AlgebraModel(p, d_max)
    assert _chain_betti(model, 4) is None
    report = resolve(model, 4)
    assert not report.certified and report.betti == resolve_in_full(model, 4).betti


def test_a_negative_bound_is_refused_before_the_certificate(monkeypatch):
    def count(model, i_max):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr("quiverkoszul.resolution._chain_betti", count)
    with pytest.raises(ValueError, match="homological bound must be nonnegative"):
        resolve(AlgebraModel(exterior(2), 4), -1)


def test_chains_are_counted_not_listed():
    # 3^13 chains at step 13: the count runs over (start vertex, last arrow)
    model = AlgebraModel(radical_square_zero(parse_quiver_spec("loops:3")), 13)
    report = resolve(model, 13)
    assert report.certified
    assert report.ext_totals() == [3 ** i for i in range(14)]


def test_certified_chain_totals_are_the_dual_dimensions():
    # a PBW algebra is Koszul in every degree, so its Ext is the quadratic
    # dual, step by step
    certified = 0
    for label, p in corpus_instances():
        report = resolve(AlgebraModel(p, 6), 6)
        if report.certified:
            certified += 1
            dual = AlgebraModel(dual_presentation(p), 6)
            assert report.ext_totals() == dual.total_dims(), label
    assert certified == 12


def test_exterior7_is_certified_with_binomial_totals():
    report = resolve(AlgebraModel(exterior(7), 12), 10)
    assert report.certified
    assert report.ext_totals() == [math.comb(6 + i, i) for i in range(11)]


# -- every command's canonical report, certificate taken and refused --------

_DOCUMENTS = {label: p for label, p in corpus_instances()}
_DOCUMENTS["exterior(4)"] = exterior(4)
_CHECKS = ["koszul", "generation", "hilbert-euler", "duality-dims", "covering-theorem"]


def _outcomes(capsys, path, argvs):
    """Per command line: exit code, canonical block (stderr on an error) and
    the simples certified."""
    out = []
    for argv in argvs:
        rc = main([argv[0], path, *argv[1:]])
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out else {}
        out.append((rc, canonical_json(report["canonical"]) if report else captured.err,
                    report.get("timing", {}).get("sizes", {}).get("simples_certified")))
    return out


@pytest.mark.parametrize("label", list(_DOCUMENTS))
def test_commands_report_the_same_with_the_certificate_refused(label, capsys, tmp_path,
                                                              monkeypatch):
    p = _DOCUMENTS[label]
    doc = tmp_path / "doc.json"
    doc.write_text(canonical_json(presentation_to_document(
        p, ("cyclic", 2), {a.label: "1" for a in p.quiver.arrows})))
    bounds = ["--max-degree", "5", "--max-homological", "5"]
    argvs = [["analyze", *bounds], ["analyze", "--max-degree", "3", "--max-homological", "6"]]
    argvs += [["verify", "--check", check, *bounds] for check in _CHECKS]
    argvs.append(["verify", "--check", "hilbert-euler", "--cutoff", "2", *bounds])
    if label in ("exterior(2)", "example1(1,2)"):
        argvs += [["verify", "--check", check, "--max-degree", "4"]
                  for check in ("smash-iso", "radical-smash")]
    taken = _outcomes(capsys, str(doc), argvs)
    if _chain_betti(AlgebraModel(p, 5), 5) is not None:
        # the first analyze and the koszul check counted chains
        assert taken[0][2] == taken[2][2] == len(p.quiver.vertices)
    refuse_certificate(monkeypatch)
    refused = _outcomes(capsys, str(doc), argvs)
    assert [o[:2] for o in refused] == [o[:2] for o in taken]
    assert not any(o[2] for o in refused)
