import ast
import json
import re
from pathlib import Path

import pytest

from quiverkoszul.corpus import corpus_instances, exterior
from quiverkoszul.serialization import (
    DocumentError,
    GroupSpecError,
    ParsedDocument,
    build_group,
    canonical_json,
    parse_document,
    parse_group_spec,
    presentation_to_document,
)
from oracles import canonical_key

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
    p = parse_document(doc_text()).presentation
    assert len(p.quiver.vertices) == 1
    assert len(p.quiver.arrows) == 1
    assert len(p.relations) == 1
    assert p.relations[0].length == 2


def test_exterior_document_round_trip():
    p = exterior(2)
    text = canonical_json(presentation_to_document(p))
    again = parse_document(text).presentation
    assert canonical_key(again) == canonical_key(p)
    assert canonical_json(presentation_to_document(again)) == text


@pytest.mark.parametrize("name,p", corpus_instances())
def test_round_trip_identity_on_corpus(name, p):
    text = canonical_json(presentation_to_document(p))
    again = parse_document(text).presentation
    assert canonical_key(again) == canonical_key(p), name
    assert canonical_json(presentation_to_document(again)) == text, name


def test_cubic_relation_accepted():
    p = parse_document(doc_text(
        relations=[[{"coef": "1", "path": ["x", "x", "x"]}]]
    )).presentation
    assert p.relations[0].length == 3


def test_coefficient_one_over_zero_rejected():
    with pytest.raises(DocumentError) as exc:
        parse_document(doc_text(
            relations=[[{"coef": "1/0", "path": ["x", "x"]}]]
        ))
    assert "coef" in str(exc.value)


def test_bad_coefficient_string_rejected():
    with pytest.raises(DocumentError):
        parse_document(doc_text(
            relations=[[{"coef": "one half", "path": ["x", "x"]}]]
        ))


def test_unknown_arrow_in_path_rejected():
    with pytest.raises(DocumentError) as exc:
        parse_document(doc_text(
            relations=[[{"coef": "1", "path": ["x", "y"]}]]
        ))
    assert "path" in str(exc.value)


def test_missing_format_rejected():
    doc = {k: v for k, v in MINIMAL.items() if k != "format"}
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


def test_unsupported_format_rejected():
    with pytest.raises(DocumentError):
        parse_document(doc_text(format=2))


@pytest.mark.parametrize("fmt", [True, 1.0, "1"], ids=repr)
def test_format_must_be_the_int_one(fmt):
    # True and 1.0 compare equal to 1, yet are not the format number
    with pytest.raises(DocumentError, match="format: expected 1"):
        parse_document(doc_text(format=fmt))


def test_malformed_json_rejected():
    with pytest.raises(DocumentError):
        parse_document("{not json")


def test_duplicate_paths_accumulate():
    p = parse_document(doc_text(
        relations=[[
            {"coef": "1/2", "path": ["x", "x"]},
            {"coef": "1/2", "path": ["x", "x"]},
        ]]
    )).presentation
    ((path, coef),) = p.relations[0].items()
    assert str(coef) == "1"


def test_terms_cancelling_to_zero_rejected():
    with pytest.raises(DocumentError):
        parse_document(doc_text(
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
        parse_document(json.dumps(doc))


def test_grading_round_trip():
    p = exterior(2)
    spec = ("cyclic", 2)
    weights = {"a1": "1", "a2": "1"}
    text = canonical_json(presentation_to_document(p, spec, weights))
    doc = parse_document(text)
    assert doc.group_spec == spec
    assert doc.weights == weights
    assert doc.group().order == 2
    # and the grading survives re-serialization byte for byte
    again = presentation_to_document(doc.presentation, doc.group_spec, doc.weights)
    assert canonical_json(again) == text


def test_parsed_document_keeps_its_group_out_of_equality_and_repr():
    text = canonical_json(
        presentation_to_document(exterior(2), ("cyclic", 2), {"a1": "1", "a2": "1"}))
    doc = parse_document(text)
    bare = ParsedDocument(doc.presentation, doc.group_spec, doc.weights)
    assert bare == doc
    assert repr(bare) == repr(doc)
    # parsing keeps the group it built; a document made without one builds
    # it on the first call and keeps it
    assert doc.group() is doc.group()
    assert bare.group() is bare.group()
    assert bare.group().elements == doc.group().elements == ("0", "1")
    assert ParsedDocument(doc.presentation).group() is None


def test_grading_weight_totality_enforced():
    p = exterior(2)
    text = canonical_json(presentation_to_document(p, ("cyclic", 2), {"a1": "1", "a2": "1"}))
    doc = json.loads(text)
    del doc["grading"]["weights"]["a2"]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


def test_grading_weight_membership_enforced():
    p = exterior(2)
    text = canonical_json(presentation_to_document(p, ("cyclic", 2), {"a1": "1", "a2": "1"}))
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
            assert build_group(parse_group_spec(text)).name == text

    @pytest.mark.parametrize(
        "bad",
        ["", "cyclic", "cyclic:", "cyclic:x", "cyclic:0", "symmetric:3",
         "product:cyclic:2", "product:cyclic:2,cyclic:3,cyclic:5"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)

    @pytest.mark.parametrize("bad", ["cyclic:²", "dihedral:٣", "product:cyclic:²,cyclic:2"])
    def test_non_ascii_digits_are_not_a_number(self, bad):
        # str.isdigit accepts them, int() does not
        with pytest.raises(GroupSpecError, match="expected a number"):
            parse_group_spec(bad)

    def test_digits_stop_at_the_first_non_ascii_digit(self):
        with pytest.raises(GroupSpecError, match=r"trailing text '²'"):
            parse_group_spec("cyclic:2²")


def test_canonical_json_is_stable():
    doc = presentation_to_document(exterior(2))
    assert canonical_json(doc) == canonical_json(doc)
    assert canonical_json(doc).endswith("\n")


# -- canonical_json against the stdlib ------------------------------------------


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


class _Dict(dict):
    pass


class _List(list):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


_TEXTS = ["", "plain", "é", "Ω-ω", "𝔽𝔾", "\U0001f600", "\x00", "\x1f", "\x7f",
          "\n\t\r\b\f", '"', "\\", "\u2028\u2029", "\ud800", "a\"b\\c"]
_NUMBERS = [0, 1, -1, 2 ** 64, -(3 ** 50), 0.0, -0.0, 0.1, -2.5, 1e300, 1e-300,
            True, False, None]


def _generated(rng, depth):
    kind = rng.randrange(6 if depth else 2)
    if kind == 0:
        return rng.choice(_TEXTS)
    if kind == 1:
        return rng.choice(_NUMBERS)
    width = rng.randrange(4)
    items = [_generated(rng, depth - 1) for _ in range(width)]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return dict(zip(rng.sample(_TEXTS, width), items))


def _corpus_documents():
    for name, p in corpus_instances():
        ones = {a.label: "1" for a in p.quiver.arrows}
        yield name, presentation_to_document(p)
        yield name + " graded", presentation_to_document(p, ("cyclic", 2), ones)


@pytest.mark.parametrize("name,doc", list(_corpus_documents()))
def test_canonical_json_is_the_stdlib_text_on_corpus_documents(name, doc):
    assert canonical_json(doc) == _stdlib_json(doc), name


def test_canonical_json_is_the_stdlib_text_on_golden_reports():
    golden = Path(__file__).parent / "data" / "golden_canonical.json"
    jobs = json.loads(golden.read_text(encoding="utf-8"))
    assert jobs
    for job in jobs:
        assert canonical_json(job) == _stdlib_json(job), job["args"]


@pytest.mark.parametrize("value", [
    {}, [], (), "", {"a": {}, "b": [], "c": (), "d": ""}, [[], [[]], {}],
    {"x": ((), [()])}, 2 ** 200, -(10 ** 40), -0.0, 0.1, 1e300, True, False,
    None, {"seconds": 0.012345, "sizes": {"simples": 3}},
], ids=repr)
def test_canonical_json_is_the_stdlib_text_on_edge_values(value):
    assert canonical_json(value) == _stdlib_json(value)


def test_canonical_json_is_the_stdlib_text_on_generated_values():
    import random

    rng = random.Random(2024)
    for _ in range(400):
        value = _generated(rng, 4)
        assert canonical_json(value) == _stdlib_json(value), repr(value)


@pytest.mark.parametrize("value", [
    {1, 2}, [1, {2}], {"a": frozenset()}, b"bytes", object(),
    _Dict(), [_List()], {"a": _Int(1)}, (_Float(0.5),), _Str("s"),
    {1: "one"}, {"ok": [{None: 2}]}, {True: "t"}, {1.5: "f"}, {_Str("k"): 1},
    {(1, 2): 3},
], ids=repr)
def test_canonical_json_rejects_other_types_and_keys(value):
    with pytest.raises(TypeError):
        canonical_json(value)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), [1, float("inf")],
    {"seconds": float("nan")},
], ids=repr)
def test_canonical_json_rejects_a_float_with_no_json_text(value):
    with pytest.raises(ValueError):
        canonical_json(value)


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
