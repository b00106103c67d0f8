import ast
import json
import re
from pathlib import Path

import pytest

from quiverkoszul.corpus import corpus_instances, exterior
from quiverkoszul.serialization import (
    DocumentError,
    GroupSpecError,
    build_group,
    canonical_json,
    group_spec_to_text,
    parse_document,
    parse_group_spec,
    parse_presentation,
    presentation_to_document,
    serialize_presentation,
)

MINIMAL = {
    "format": 1,
    "vertices": ["1"],
    "arrows": [{"name": "x", "from": "1", "to": "1"}],
    "relations": [[{"coef": "1", "path": ["x", "x"]}]],
}


def doc_text(**overrides):
    doc = {**MINIMAL, **overrides}
    return json.dumps(doc)


def test_minimal_document_parses():
    p = parse_presentation(doc_text())
    assert len(p.quiver.vertices) == 1
    assert len(p.quiver.arrows) == 1
    assert len(p.relations) == 1
    assert p.relations[0].length == 2


def test_exterior_document_round_trip():
    p = exterior(2)
    text = serialize_presentation(p)
    again = parse_presentation(text)
    assert again.canonical_key() == p.canonical_key()
    assert serialize_presentation(again) == text


@pytest.mark.parametrize("name,p", corpus_instances())
def test_round_trip_identity_on_corpus(name, p):
    text = serialize_presentation(p)
    again = parse_presentation(text)
    assert again.canonical_key() == p.canonical_key(), name
    assert serialize_presentation(again) == text, name


def test_cubic_relation_accepted():
    p = parse_presentation(doc_text(
        relations=[[{"coef": "1", "path": ["x", "x", "x"]}]]
    ))
    assert p.relations[0].length == 3


def test_coefficient_one_over_zero_rejected():
    with pytest.raises(DocumentError) as exc:
        parse_presentation(doc_text(
            relations=[[{"coef": "1/0", "path": ["x", "x"]}]]
        ))
    assert "coef" in str(exc.value)


def test_bad_coefficient_string_rejected():
    with pytest.raises(DocumentError):
        parse_presentation(doc_text(
            relations=[[{"coef": "one half", "path": ["x", "x"]}]]
        ))


def test_unknown_arrow_in_path_rejected():
    with pytest.raises(DocumentError) as exc:
        parse_presentation(doc_text(
            relations=[[{"coef": "1", "path": ["x", "y"]}]]
        ))
    assert "path" in str(exc.value)


def test_missing_format_rejected():
    doc = {k: v for k, v in MINIMAL.items() if k != "format"}
    with pytest.raises(DocumentError):
        parse_presentation(json.dumps(doc))


def test_unsupported_format_rejected():
    with pytest.raises(DocumentError):
        parse_presentation(doc_text(format=2))


def test_malformed_json_rejected():
    with pytest.raises(DocumentError):
        parse_presentation("{not json")


def test_duplicate_paths_accumulate():
    p = parse_presentation(doc_text(
        relations=[[
            {"coef": "1/2", "path": ["x", "x"]},
            {"coef": "1/2", "path": ["x", "x"]},
        ]]
    ))
    ((path, coef),) = p.relations[0].items()
    assert str(coef) == "1"


def test_terms_cancelling_to_zero_rejected():
    with pytest.raises(DocumentError):
        parse_presentation(doc_text(
            relations=[[
                {"coef": "1", "path": ["x", "x"]},
                {"coef": "-1", "path": ["x", "x"]},
            ]]
        ))


def test_mixed_endpoint_relation_rejected():
    doc = {
        "format": 1,
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "2", "to": "2"},
        ],
        "relations": [[
            {"coef": "1", "path": ["a", "b"]},
            {"coef": "1", "path": ["b", "b"]},
        ]],
    }
    with pytest.raises(DocumentError):
        parse_presentation(json.dumps(doc))


def test_grading_round_trip():
    p = exterior(2)
    spec = ("cyclic", 2)
    weights = {"a1": "1", "a2": "1"}
    text = serialize_presentation(p, spec, weights)
    doc = parse_document(text)
    assert doc.group_spec == spec
    assert doc.weights == weights
    assert doc.group().order == 2
    # and the grading survives re-serialization byte for byte
    assert serialize_presentation(doc.presentation, doc.group_spec, doc.weights) == text


def test_grading_weight_totality_enforced():
    p = exterior(2)
    text = serialize_presentation(p, ("cyclic", 2), {"a1": "1", "a2": "1"})
    doc = json.loads(text)
    del doc["grading"]["weights"]["a2"]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


def test_grading_weight_membership_enforced():
    p = exterior(2)
    text = serialize_presentation(p, ("cyclic", 2), {"a1": "1", "a2": "1"})
    doc = json.loads(text)
    doc["grading"]["weights"]["a2"] = "5"
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


class TestGroupSpec:
    def test_cyclic(self):
        assert parse_group_spec("cyclic:4") == ("cyclic", 4)
        assert build_group(("cyclic", 4)).order == 4

    def test_dihedral(self):
        assert parse_group_spec("dihedral:3") == ("dihedral", 3)
        assert build_group(("dihedral", 3)).order == 6

    def test_product(self):
        spec = parse_group_spec("product:cyclic:2,cyclic:3")
        assert spec == ("product", ("cyclic", 2), ("cyclic", 3))
        assert build_group(spec).order == 6

    def test_nested_product(self):
        spec = parse_group_spec("product:cyclic:2,product:cyclic:2,cyclic:2")
        assert build_group(spec).order == 8

    def test_spec_text_round_trip(self):
        for text in ["cyclic:5", "dihedral:4", "product:cyclic:2,dihedral:3"]:
            assert group_spec_to_text(parse_group_spec(text)) == text

    @pytest.mark.parametrize(
        "bad",
        ["", "cyclic", "cyclic:", "cyclic:x", "cyclic:0", "symmetric:3",
         "product:cyclic:2", "product:cyclic:2,cyclic:3,cyclic:5"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)


def test_canonical_json_is_stable():
    doc = presentation_to_document(exterior(2))
    assert canonical_json(doc) == canonical_json(doc)
    assert canonical_json(doc).endswith("\n")


def test_document_lists_terms_in_path_order():
    # canonical serialization orders terms by the first-applied word
    p = exterior(2)
    doc = presentation_to_document(p)
    for relation in doc["relations"]:
        words = [term["path"] for term in relation]
        assert words == sorted(words)


def _readme_blocks(language):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", readme, flags=re.S)


def test_readme_document_example_parses():
    blocks = _readme_blocks("json")
    assert len(blocks) == 1
    doc = parse_document(blocks[0])
    assert doc.group_spec == ("cyclic", 2)
    assert dict(doc.weights) == {"a1": "1", "a2": "1"}
    assert len(doc.presentation.relations) == 2


def test_readme_library_example_runs():
    blocks = _readme_blocks("python")
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    # every expression line's comment shows the value it prints as
    shown = []
    for line in blocks[0].splitlines():
        code, _, comment = line.partition("#")
        if comment and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            shown.append((str(eval(code, namespace)), comment.strip()))
    values = ["[1, 2, 1, 0, 0, 0]", "koszul-to-bound", "[1, 2, 3, 4, 5, 6]", "True"]
    assert [want for _, want in shown] == values
    assert [got for got, _ in shown] == values
