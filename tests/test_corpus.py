import warnings

import pytest

from quiverkoszul.algebra import AlgebraModel, Presentation
from quiverkoszul.corpus import (
    CORPUS,
    CorpusError,
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
    radical_square_zero,
    trivial_extension_dual,
)
from quiverkoszul.covering import (
    InhomogeneousGradingError,
    build_covering,
    is_homogeneous_grading,
    sheet_label,
)
from quiverkoszul.groups import cyclic_group, dihedral_group, direct_product
from quiverkoszul.linalg import ONE
from quiverkoszul.quiver import PathCombination, Quiver, validate_relation
from quiverkoszul.serialization import canonical_json, presentation_to_document
from oracles import canonical_key


def counts(p):
    return (len(p.quiver.vertices), len(p.quiver.arrows), len(p.relations))


@pytest.mark.parametrize("m,expected", [(1, (1, 1, 1)), (2, (1, 2, 3)), (3, (1, 3, 6))])
def test_exterior_counts(m, expected):
    assert counts(exterior(m)) == expected


def test_exterior_rejects_nonpositive():
    with pytest.raises(CorpusError):
        exterior(0)


def test_loop_cubed_shape():
    p = loop_cubed()
    assert counts(p) == (1, 1, 1)
    assert p.relations[0].length == 3


class TestQuiverSpecs:
    def test_line(self):
        q = parse_quiver_spec("line:3")
        assert q.vertices == ("1", "2", "3")
        assert [(a.label, a.source, a.target) for a in q.arrows] == [
            ("a1", "1", "2"),
            ("a2", "2", "3"),
        ]

    def test_star_arrows_point_into_center(self):
        q = parse_quiver_spec("star:4")
        assert q.vertices[0] == "c"
        assert all(a.target == "c" for a in q.arrows)
        assert len(q.arrows) == 4

    def test_loops(self):
        q = parse_quiver_spec("loops:2")
        assert len(q.vertices) == 1
        assert [a.label for a in q.arrows] == ["x1", "x2"]

    @pytest.mark.parametrize("bad", ["", "line", "line:", "line:0", "ring:3", "line:x"])
    def test_bad_specs(self, bad):
        with pytest.raises(CorpusError):
            parse_quiver_spec(bad)

    @pytest.mark.parametrize("bad", ["loops:²", "line:٣", "star:1²"])
    def test_non_ascii_digits_are_a_bad_spec(self, bad):
        # str.isdigit accepts them, int() does not
        with pytest.raises(CorpusError, match="bad quiver spec"):
            parse_quiver_spec(bad)


def test_path_algebra_has_no_relations():
    p = path_algebra(parse_quiver_spec("line:3"))
    assert counts(p) == (3, 2, 0)


def test_radical_square_zero_kills_length_two():
    p = radical_square_zero(parse_quiver_spec("loops:2"))
    assert counts(p) == (1, 2, 4)
    model = AlgebraModel(p, 3)
    assert model.total_dims() == [1, 2, 0, 0]


class TestExampleFamilies:
    def test_example1_counts(self):
        assert counts(example1(2, 2)) == (2, 4, 6)
        assert counts(example1(1, 2)) == (2, 2, 2)

    def test_example2_counts(self):
        assert counts(example2(2, 1, 3)) == (3, 6, 9)

    def test_example3_counts(self):
        assert counts(example3(2)) == (4, 8, 12)

    def test_example4_counts(self):
        assert counts(example4(2)) == (4, 8, 12)

    def test_example1_equals_cyclic_covering(self):
        for m, n in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            direct = example1(m, n)
            g = cyclic_group(n)
            lifted = build_covering(
                exterior(m), g, {f"a{i}": "1" for i in range(1, m + 1)}
            )
            assert canonical_key(direct) == canonical_key(lifted), (m, n)

    def test_example2_equals_weighted_covering(self):
        direct = example2(2, 1, 3)
        g = cyclic_group(3)
        lifted = build_covering(exterior(2), g, {"a1": "1", "a2": "2"})
        assert canonical_key(direct) == canonical_key(lifted)

    def test_example3_equals_product_covering(self):
        direct = example3(2)
        g = direct_product(cyclic_group(2), cyclic_group(2))
        lifted = build_covering(exterior(2), g, {"a1": "(1,0)", "a2": "(0,1)"})
        assert canonical_key(direct) == canonical_key(lifted)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_example4_rejected_beyond_two(self, n):
        with pytest.raises(InhomogeneousGradingError) as exc:
            example4(n)
        text = str(exc.value)
        # witness: the two composite weights s*c and c*s disagree
        assert "sc" in text
        assert f"sc{n - 1}" in text

    def test_example4_weights_are_homogeneous_only_for_two(self):
        from quiverkoszul.groups import dihedral_group

        p = exterior(2)
        ok = is_homogeneous_grading(p, dihedral_group(2), {"a1": "s", "a2": "c"})
        assert ok.homogeneous
        bad = is_homogeneous_grading(p, dihedral_group(3), {"a1": "s", "a2": "c"})
        assert not bad.homogeneous


# -- the covering families in closed form -------------------------------------
#
# The corpus generates example1-4 with build_covering; this oracle writes the
# covering quiver and the lifted exterior relations out term by term.


def _covering_quiver(m, group, weights):
    arrows = [
        (sheet_label(f"a{i}", g), sheet_label("1", g),
         sheet_label("1", group.multiply(weights[f"a{i}"], g)))
        for i in range(1, m + 1)
        for g in group.elements
    ]
    return Quiver([sheet_label("1", g) for g in group.elements], arrows)


def _closed_form_exterior_covering(m, group, weights):
    """The covering of exterior(m) in closed form: a two-letter word applying
    a then b from sheet g becomes a at sheet g followed by b at sheet W(a)g."""
    q = _covering_quiver(m, group, weights)

    def word(first, then, g):
        mid = group.multiply(weights[first], g)
        return q.path([sheet_label(first, g), sheet_label(then, mid)])

    relations = []
    for i in range(1, m + 1):
        ai = f"a{i}"
        for g in group.elements:
            relations.append(PathCombination({word(ai, ai, g): ONE}))
        for j in range(i + 1, m + 1):
            aj = f"a{j}"
            for g in group.elements:
                relations.append(PathCombination({
                    word(ai, aj, g): ONE,
                    word(aj, ai, g): ONE,
                }))
    return Presentation(q, relations)


def _closed_form_cases():
    """(corpus name, arguments, m, group, weights) for m <= 4 and n <= 4."""
    cases = []
    for m in range(1, 5):
        for n in range(1, 5):
            ones = {f"a{i}": str(1 % n) for i in range(1, m + 1)}
            cases.append(("example1", (m, n), m, cyclic_group(n), ones))
            for l in range(m + 1):
                mixed = {f"a{i}": str(1 % n) if i <= l else str((n - 1) % n)
                         for i in range(1, m + 1)}
                cases.append(("example2", (m, l, n), m, cyclic_group(n), mixed))
    for n in range(1, 5):
        cases.append(("example3", (n,), 2,
                      direct_product(cyclic_group(2), cyclic_group(n)),
                      {"a1": "(1,0)", "a2": f"(0,{1 % n})"}))
    cases.append(("example4", (2,), 2, dihedral_group(2), {"a1": "s", "a2": "c"}))
    return cases


_CLOSED_FORM_CASES = _closed_form_cases()
_EXAMPLES = {"example1": example1, "example2": example2,
             "example3": example3, "example4": example4}


def test_closed_form_cases_cover_every_family():
    assert len(_CLOSED_FORM_CASES) == 77
    assert {case[0] for case in _CLOSED_FORM_CASES} == set(_EXAMPLES)


@pytest.mark.parametrize(
    "name,args,m,group,weights", _CLOSED_FORM_CASES,
    ids=[f"{c[0]}{c[1]}".replace(" ", "") for c in _CLOSED_FORM_CASES])
def test_example_covering_document_equals_the_closed_form(name, args, m, group,
                                                          weights):
    built = _EXAMPLES[name](*args)
    direct = _closed_form_exterior_covering(m, group, weights)
    assert (canonical_json(presentation_to_document(built))
            == canonical_json(presentation_to_document(direct)))


class TestTrivialExtensionDual:
    def test_star4_census(self):
        p = trivial_extension_dual(parse_quiver_spec("star:4"))
        assert counts(p) == (5, 8, 18)
        model = AlgebraModel(p, 3)
        assert model.total_dims() == [5, 8, 5, 0]

    def test_line2_is_free_cycle(self):
        # a single edge contributes no relation pairs: the result is the
        # free algebra on the doubled edge, one path per vertex per degree
        p = trivial_extension_dual(parse_quiver_spec("line:2"))
        assert counts(p) == (2, 2, 0)
        model = AlgebraModel(p, 4)
        assert model.total_dims() == [2, 2, 2, 2, 2]

    def test_interior_vertex_rejected(self):
        with pytest.raises(CorpusError) as exc:
            trivial_extension_dual(parse_quiver_spec("line:3"))
        assert "source or a sink" in str(exc.value)

    def test_non_tree_rejected(self):
        with pytest.raises(CorpusError):
            trivial_extension_dual(parse_quiver_spec("loops:1"))
        two_edges = Quiver(
            ["1", "2"], [("a", "1", "2"), ("b", "1", "2")]
        )
        with pytest.raises(CorpusError):
            trivial_extension_dual(two_edges)

    def test_disconnected_tree_rejected(self):
        q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "3", "4")])
        with pytest.raises(CorpusError):
            trivial_extension_dual(q)

    def test_dynkin_warning_fires(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trivial_extension_dual(parse_quiver_spec("star:2"))
        assert any("A3" in str(w.message) for w in caught)

    def test_star3_warns_as_d4(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trivial_extension_dual(parse_quiver_spec("star:3"))
        assert any("D4" in str(w.message) for w in caught)

    def test_star4_is_not_dynkin_so_no_warning(self):
        # the 4-star is the affine D4 graph, one vertex past Dynkin
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trivial_extension_dual(parse_quiver_spec("star:4"))
        assert not caught

    def test_single_edge_gets_no_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trivial_extension_dual(parse_quiver_spec("line:2"))
        assert not caught

    def test_non_dynkin_star_gets_no_warning(self):
        star5 = parse_quiver_spec("star:5")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trivial_extension_dual(star5)
        assert not caught


class TestPreprojective:
    def test_star4_dims(self):
        p = preprojective(parse_quiver_spec("star:4"))
        model = AlgebraModel(p, 4)
        assert model.total_dims() == [5, 8, 15, 16, 25]

    def test_line2_dims(self):
        p = preprojective(parse_quiver_spec("line:2"))
        model = AlgebraModel(p, 3)
        assert model.total_dims() == [2, 2, 0, 0]

    def test_relations_are_commutator_sums(self):
        p = preprojective(parse_quiver_spec("line:2"))
        # one relation per vertex with arrows through it
        assert len(p.relations) == 2


def test_every_instance_has_valid_relations():
    for label, p in corpus_instances():
        for r in p.relations:
            validate_relation(p.quiver, r)


def test_corpus_instance_labels_are_unique():
    labels = [label for label, _ in corpus_instances()]
    assert len(labels) == len(set(labels)) == 15


class TestBuildCorpus:
    def test_dispatch_matches_direct_builders(self):
        pairs = [
            ("exterior", "2", exterior(2)),
            ("example1", "2,2", example1(2, 2)),
            ("example2", "2,1,3", example2(2, 1, 3)),
            ("example3", "2", example3(2)),
            ("example4", "2", example4(2)),
            ("loop_cubed", "", loop_cubed()),
        ]
        for name, args, expected in pairs:
            assert canonical_key(build_corpus(name, args)) == canonical_key(expected)

    def test_quiver_spec_arguments(self):
        p = build_corpus("preprojective", "star:4")
        assert counts(p) == (5, 8, 5)

    def test_unknown_name(self):
        with pytest.raises(CorpusError):
            build_corpus("nonsense", "")

    def test_wrong_arity(self):
        with pytest.raises(CorpusError):
            build_corpus("exterior", "2,3")
        with pytest.raises(CorpusError):
            build_corpus("exterior", "x")
        with pytest.raises(CorpusError):
            build_corpus("loop_cubed", "7")

    @pytest.mark.parametrize("bad", ["²", "--1", "-", "1,-²", "٣"])
    def test_malformed_integers_are_named_errors(self, bad):
        # one optional leading minus, then ASCII digits
        arity = len(bad.split(","))
        name = {1: "exterior", 2: "example1"}[arity]
        with pytest.raises(CorpusError, match="expected arguments"):
            build_corpus(name, bad)

    def test_registry_covers_dispatch(self):
        for name in CORPUS:
            # every advertised name is buildable with some argument
            sample = {
                "exterior": "2",
                "example1": "1,2",
                "example2": "2,1,3",
                "example3": "2",
                "example4": "2",
                "preprojective": "line:2",
                "trivial_extension_dual": "line:2",
                "path_algebra": "line:2",
                "radical_square_zero": "loops:1",
                "loop_cubed": "",
            }[name]
            build_corpus(name, sample)
