import random
from fractions import Fraction

import pytest

from quiverkoszul.algebra import (
    AlgebraModel,
    DegreeOverflowError,
    InternalError,
    Presentation,
    hilbert_matrix,
)
from quiverkoszul.corpus import (
    corpus_instances,
    exterior,
    loop_cubed,
    parse_quiver_spec,
    path_algebra,
    preprojective,
    radical_square_zero,
    trivial_extension_dual,
)
from quiverkoszul.covering import build_covering
from quiverkoszul.duality import dual_presentation, quadratic_check
from quiverkoszul.groups import cyclic_group
from quiverkoszul.linalg import ONE, EchelonSpan
from quiverkoszul.quiver import (
    Arrow,
    Path,
    PathCombination,
    Quiver,
    compose,
    enumerate_paths,
    trivial_path,
)
from quiverkoszul.resolution import _diff_image, resolve
from random_inputs import random_presentation


@pytest.fixture
def ext2():
    return AlgebraModel(exterior(2), 4)


def test_exterior_dims_are_binomials(ext2):
    assert ext2.total_dims() == [1, 2, 1, 0, 0]


def test_exterior3_dims():
    m = AlgebraModel(exterior(3), 5)
    assert m.total_dims() == [1, 3, 3, 1, 0, 0]


def test_loop_cubed_dims():
    m = AlgebraModel(loop_cubed(), 5)
    assert m.total_dims() == [1, 1, 1, 0, 0, 0]


def test_normal_form_rewrites_to_canonical_basis(ext2):
    q = ext2.quiver
    square = q.path(["a1", "a1"])
    assert ext2.normal_form(PathCombination({square: Fraction(1)})) == {}
    # the rewrite eliminates the lex-first word: a1-then-a2 becomes
    # minus the surviving basis word a2-then-a1
    p21 = q.path(["a2", "a1"])
    p12 = q.path(["a1", "a2"])
    assert ext2.normal_form(PathCombination({p12: Fraction(1)})) == {p21: Fraction(-1)}
    assert ext2.normal_form(PathCombination({p21: Fraction(1)})) == {p21: Fraction(1)}


def test_basis_product_respects_relations(ext2):
    q = ext2.quiver
    a1 = q.path(["a1"])
    a2 = q.path(["a2"])
    p21 = q.path(["a2", "a1"])
    # multiply(x, y) applies y first; the degree-2 basis word is a2-then-a1
    assert ext2.multiply(a2, a1) == {p21: Fraction(-1)}
    assert ext2.multiply(a1, a2) == {p21: Fraction(1)}
    assert ext2.multiply(a1, a1) == {}


def test_basis_product_reduces_a_right_factor_that_is_not_a_basis_word():
    m = AlgebraModel(exterior(4), 5)
    q = m.quiver
    tip = q.path(["a1", "a2"])  # the lex-first word, eliminated
    assert m.basis_paths(2).count(tip) == 0
    for left in (trivial_path("1"), q.path(["a3"]), q.path(["a3", "a4"])):
        want = m.normal_form(compose(left, tip))
        assert want
        assert m.multiply(left, tip) == want


def test_basis_product_of_non_composable_paths_is_zero():
    line = AlgebraModel(path_algebra(parse_quiver_spec("line:3")), 3)
    b1 = line.quiver.path(["a1"])
    b2 = line.quiver.path(["a2"])
    assert line.multiply(b2, b1) == {line.quiver.path(["a1", "a2"]): Fraction(1)}
    # endpoints do not match: the product is zero, not an error
    assert line.multiply(b1, b2) == {}


def test_blocks_and_dim(ext2):
    assert ext2.blocks(1) == [("1", "1")]
    assert ext2.dim(1, "1", "1") == 2
    assert ext2.dim(3, "1", "1") == 0


def test_line_quiver_blocks():
    m = AlgebraModel(path_algebra(parse_quiver_spec("line:3")), 3)
    assert m.total_dims() == [3, 2, 1, 0]
    assert m.dim(1, "1", "2") == 1
    assert m.dim(1, "2", "1") == 0
    assert m.dim(2, "1", "3") == 1


def test_top_degree_and_finite_basis(ext2):
    assert ext2.top_degree() == 2
    basis = ext2.finite_basis()
    assert len(basis) == 4


def test_finite_basis_refuses_open_window():
    free_loop = path_algebra(parse_quiver_spec("loops:1"))
    m = AlgebraModel(free_loop, 4)
    assert m.top_degree() is None
    with pytest.raises(DegreeOverflowError):
        m.finite_basis()


def test_check_degree_guards_window(ext2):
    with pytest.raises(ValueError):
        ext2.basis_paths(5)


def test_relations_have_zero_normal_form_after_build():
    # constructor checks every relation reduces to zero
    AlgebraModel(exterior(3), 4)
    AlgebraModel(loop_cubed(), 4)


def test_relation_surviving_elimination_is_an_internal_error(monkeypatch):
    # the relation rows enter through _add, which keeps no row here either
    monkeypatch.setattr(EchelonSpan, "add", lambda self, vec: False)
    monkeypatch.setattr(EchelonSpan, "_add", lambda self, vec: {})
    with pytest.raises(InternalError, match="nonzero normal form"):
        AlgebraModel(exterior(2), 3)
    assert not issubclass(InternalError, ValueError)


def test_relation_rows_stop_at_a_full_block(monkeypatch):
    # a block whose span has a pivot in every column takes no further row:
    # exterior(4) at 6 builds 95 nonzero relation rows, and 104 without
    # the stop
    add, rows = EchelonSpan._add, []

    def counted(self, vec):
        rows.append(vec)
        return add(self, vec)

    monkeypatch.setattr(EchelonSpan, "_add", counted)
    model = AlgebraModel(exterior(4), 6)
    assert model.total_dims() == [1, 4, 6, 4, 1, 0, 0]
    assert len(rows) == 95


class TestPastFirstVanishingDegree:
    """exterior(3) vanishes from degree 4 on; the window runs to 7."""

    @pytest.fixture(scope="class")
    def ext3(self):
        return AlgebraModel(exterior(3), 7)

    def test_queries_past_d0(self, ext3):
        assert ext3.total_dims() == [1, 3, 3, 1, 0, 0, 0, 0]
        assert ext3.top_degree() == 3
        q = ext3.quiver
        for d in range(4, 8):
            assert ext3.blocks(d) == [("1", "1")]
            assert ext3.dim(d, "1", "1") == 0
            assert ext3.basis_paths(d) == []
            assert ext3.total_dim(d) == 0
            paths = ext3.all_paths(d, "1", "1")
            assert paths == enumerate_paths(q, d, "1", "1")
            assert len(paths) == 3 ** d
        with pytest.raises(DegreeOverflowError):
            ext3.all_paths(8, "1", "1")

    def test_products_past_d0_and_past_the_window_are_zero(self, ext3):
        q = ext3.quiver
        top = q.path(["a1", "a2", "a3"])
        # the id-keyed product reads the basis word top is a multiple of
        top_id = ext3.word_ids[ext3.basis_paths(3)[0]]
        assert ext3.multiply(top, q.path(["a1"])) == {}
        assert ext3.product(top_id, top_id) == {}
        assert ext3.normal_form(q.path(["a3"] * 9)) == {}
        assert ext3.multiply(top, top) == {}

    def test_foreign_path_still_raises(self, ext3):
        stray = Arrow("z", "1", "1")
        for length in (2, 5, 9):
            with pytest.raises(ValueError, match="does not live"):
                ext3.normal_form(Path((stray,) * length))

    def test_blocks_follow_walks_on_several_vertices(self):
        p = trivial_extension_dual(parse_quiver_spec("star:4"))
        m = AlgebraModel(p, 6)
        assert m.top_degree() == 2
        index = m.quiver.vertex_index
        for d in range(7):
            walks = {(w.source, w.target) for w in enumerate_paths(m.quiver, d)}
            want = sorted(walks, key=lambda uv: (index(uv[0]), index(uv[1])))
            assert m.blocks(d) == want
            for u, v in want:
                assert m.all_paths(d, u, v) == enumerate_paths(m.quiver, d, u, v)


def test_foreign_vertex_does_not_live_in_the_quiver(ext2):
    with pytest.raises(ValueError, match="does not live"):
        ext2.normal_form(Path((), "zz"))
    assert ext2.normal_form(trivial_path("1")) == {trivial_path("1"): ONE}


def test_blocks_with_paths_but_no_basis_words():
    # exterior(3) over Z8 with weights (1, 2, 4): a4.a4.a1 joins sheet 0 to
    # sheet 1 in degree 3, but every degree-3 word there contains a square
    p = exterior(3)
    weights = dict(zip((a.label for a in p.quiver.arrows), ("1", "2", "4")))
    m = AlgebraModel(build_covering(p, cyclic_group(8), weights), 6)
    assert ("1|0", "1|1") in m.blocks(3)
    assert m.dim(3, "1|0", "1|1") == 0
    assert m.basis_paths(3, "1|0", "1|1") == []
    assert m.top_degree() == 3
    basis = m.finite_basis()
    assert len(basis) == 8 * 8
    assert sorted(b.length for b in basis) == sorted(
        [0] * 8 + [1] * 24 + [2] * 24 + [3] * 8
    )


# -- the every-path elimination, kept as the reference model ----------


def _every_path_model(presentation, window):
    """Eliminate the ideal over every path of each degree.

    This is the construction ``AlgebraModel`` used before it built each
    degree from the previous degree's basis.  Returns (basis, expr,
    zero_from): basis[(d, u, v)] lists the non-pivot paths in canonical
    order, expr[path] is the normal form of every path of length up to d0
    (or the window), and zero_from is d0 or None.
    """
    q = presentation.quiver
    basis, expr = {}, {}
    for v in q.vertices:
        e = trivial_path(v)
        basis[(0, v, v)] = [e]
        expr[e] = {e: ONE}
    relations_by_degree = {}
    for r in presentation.relations:
        relations_by_degree.setdefault(r.length, []).append(r)
    prev_spans, blocks_prev = {}, {}
    for d in range(1, window + 1):
        blocks = {}
        for p in enumerate_paths(q, d):
            blocks.setdefault((p.source, p.target), []).append(p)
        index = {p: j for paths in blocks.values() for j, p in enumerate(paths)}
        spans = {key: EchelonSpan() for key in blocks}
        for r in relations_by_degree.get(d, ()):
            spans[(r.source, r.target)].add({index[p]: c for p, c in r.items()})
        for (u, v), span in prev_spans.items():
            paths_prev = blocks_prev[(u, v)]
            for row in span.rref_rows():
                for a in q.arrows_by_source[v]:
                    spans[(u, a.target)].add({
                        index[Path((a,) + paths_prev[j].arrows)]: c
                        for j, c in row.items()
                    })
                for a in q.arrows_by_target[u]:
                    spans[(a.source, v)].add({
                        index[Path(paths_prev[j].arrows + (a,))]: c
                        for j, c in row.items()
                    })
        survivors = 0
        for (u, v), paths in blocks.items():
            rows = spans[(u, v)].rows
            kept = [p for j, p in enumerate(paths) if j not in rows]
            survivors += len(kept)
            basis[(d, u, v)] = kept
            for p in kept:
                expr[p] = {p: ONE}
            for pivot, row in rows.items():
                expr[paths[pivot]] = {
                    paths[j]: -c for j, c in row.items() if j != pivot
                }
        if not survivors:
            return basis, expr, d
        prev_spans, blocks_prev = spans, blocks
    return basis, expr, None


def _assert_same_model(presentation, window):
    m = AlgebraModel(presentation, window)
    basis, expr, zero_from = _every_path_model(presentation, window)
    q = presentation.quiver
    index = q.vertex_index
    for d in range(window + 1):
        walks = {(p.source, p.target) for p in enumerate_paths(q, d)}
        assert m.blocks(d) == sorted(walks, key=lambda uv: (index(uv[0]), index(uv[1])))
        for u in q.vertices:
            for v in q.vertices:
                assert m.basis_paths(d, u, v) == basis.get((d, u, v), [])
    top = None if zero_from is None else zero_from - 1
    assert m.top_degree() == top
    if top is None:
        with pytest.raises(DegreeOverflowError):
            m.finite_basis()
    else:
        assert m.finite_basis() == [
            b
            for d in range(top + 1)
            for u, v in m.blocks(d)
            for b in basis.get((d, u, v), ())
        ]
    # the degree-2 basis words a∘t, as the pairs (id of a, id of t)
    ids = m.arrow_ids
    assert m.normal_pairs == {
        (ids[p.arrows[0]], ids[p.arrows[1]])
        for (d, _, _), paths in basis.items() if d == 2 for p in paths}
    limit = window if zero_from is None else min(window, zero_from)
    for d in range(limit + 1):
        for p in enumerate_paths(q, d):
            assert m.normal_form(p) == expr[p], p
    words = [b for bs in basis.values() for b in bs]
    for bx in words:
        for by in words:
            d = bx.length + by.length
            if d > window:
                continue
            if bx.source != by.target or (zero_from is not None and d >= zero_from):
                want = {}
            else:
                want = expr[compose(bx, by)]
            assert m.multiply(bx, by) == want, (bx, by)


_QUADRATIC_CORPUS = [
    (label, p) for label, p in corpus_instances() if quadratic_check(p)
]


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_model_equals_every_path_elimination_on_the_corpus(presentation):
    _assert_same_model(presentation, 5)


@pytest.mark.parametrize(
    "presentation", [p for _, p in _QUADRATIC_CORPUS],
    ids=[label for label, _ in _QUADRATIC_CORPUS],
)
def test_model_equals_every_path_elimination_on_quadratic_duals(presentation):
    _assert_same_model(dual_presentation(presentation), 5)


def _assert_word_ids_follow_basis_order(model):
    # by degree, source and target in quiver order, then canonical order,
    # which is finite_basis() order wherever the window shows a top degree
    want = [b for d in range(model.max_degree + 1) for b in model.basis_paths(d)]
    assert model.words == want
    assert model.lengths == [b.length for b in want]
    assert [model.word_ids[b] for b in want] == list(range(len(want)))
    if model.top_degree() is not None:
        assert model.finite_basis() == want
    for (d, u), blocks in model.blocks_from.items():
        assert [v for v, _ in blocks] == [
            v for v in model.quiver.vertices if model.dim(d, u, v)]
        for v, ids in blocks:
            assert [model.words[x] for x in ids] == model.basis_paths(d, u, v)
    if model.max_degree:
        assert {a: model.words[x] for a, x in model.arrow_ids.items()} == {
            a: Path((a,)) for a in model.quiver.arrows}


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_word_ids_follow_finite_basis_order_on_the_corpus(presentation):
    _assert_word_ids_follow_basis_order(AlgebraModel(presentation, 5))
    weights = ["1"] * len(presentation.quiver.arrows)
    _assert_word_ids_follow_basis_order(
        AlgebraModel(_covering(presentation, 2, weights), 4))


@pytest.mark.parametrize("seed", range(30))
def test_word_ids_follow_finite_basis_order_on_random_presentations(seed):
    model = AlgebraModel(random_presentation(random.Random(seed)), 5)
    _assert_word_ids_follow_basis_order(model)


def _covering(p, order, weights):
    labels = [a.label for a in p.quiver.arrows]
    return build_covering(p, cyclic_group(order), dict(zip(labels, weights)))


# the coverings the benchmark runs: (presentation, window)
_COVERING_CASES = {
    "exterior(3)/Z8": lambda: (_covering(exterior(3), 8, ("1", "2", "4")), 6),
    "exterior(4)/Z3": lambda: (
        _covering(exterior(4), 3, ("0", "1", "1", "2")), 5),
    "loops:2/Z3": lambda: (_covering(
        radical_square_zero(parse_quiver_spec("loops:2")), 3, ("1", "2")), 8),
    "preprojective(line:4)/Z3": lambda: (_covering(
        preprojective(parse_quiver_spec("line:4")), 3, ("1",) * 6), 6),
}


@pytest.mark.parametrize("name", sorted(_COVERING_CASES))
def test_model_equals_every_path_elimination_on_coverings(name):
    _assert_same_model(*_COVERING_CASES[name]())


@pytest.mark.parametrize("seed", range(40))
def test_model_equals_every_path_elimination_on_random_presentations(seed):
    _assert_same_model(random_presentation(random.Random(seed)), 4)


def _scaled(presentation, rng):
    """The presentation with each relation times a random nonzero rational."""
    relations = []
    for r in presentation.relations:
        s = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3, 7)))
        relations.append(PathCombination({p: c * s for p, c in r.items()}))
    return Presentation(presentation.quiver, relations)


def _assert_scaling_invariant(presentation, rng, window):
    # a scaled generating set spans the same ideal, so the model and the
    # resolution must not see the scaling
    m = AlgebraModel(presentation, window)
    scaled = AlgebraModel(_scaled(presentation, rng), window)
    q = presentation.quiver
    for d in range(window + 1):
        for u in q.vertices:
            for v in q.vertices:
                assert scaled.basis_paths(d, u, v) == m.basis_paths(d, u, v)
        for p in enumerate_paths(q, d):
            assert scaled.normal_form(p) == m.normal_form(p), p
    assert resolve(scaled, window).betti == resolve(m, window).betti


@pytest.mark.parametrize(
    "presentation", [p for _, p in corpus_instances()],
    ids=[label for label, _ in corpus_instances()],
)
def test_scaling_relations_changes_nothing_on_the_corpus(presentation):
    _assert_scaling_invariant(presentation, random.Random(7), 4)


@pytest.mark.parametrize("seed", range(40))
def test_scaling_relations_changes_nothing_on_random_presentations(seed):
    rng = random.Random(seed)
    _assert_scaling_invariant(random_presentation(rng), rng, 4)


def test_open_window_still_overflows():
    free_loop = AlgebraModel(path_algebra(parse_quiver_spec("loops:1")), 3)
    x2 = free_loop.quiver.path(["x1", "x1"])
    assert free_loop.multiply(free_loop.quiver.path(["x1"]), x2)
    with pytest.raises(DegreeOverflowError):
        free_loop.multiply(x2, x2)
    with pytest.raises(DegreeOverflowError):
        free_loop.normal_form(free_loop.quiver.path(["x1"] * 4))


def test_presentation_canonical_key_ignores_relation_order():
    p = exterior(2)
    reversed_relations = list(p.relations)[::-1]
    q = Presentation(p.quiver, reversed_relations)
    assert p.canonical_key() == q.canonical_key()


def test_presentation_accepts_bare_paths():
    q = Quiver(["1"], [("x", "1", "1")])
    p = Presentation(q, [q.path(["x", "x"])])
    m = AlgebraModel(p, 3)
    assert m.total_dims() == [1, 1, 0, 0]


def test_multiply_general_combinations(ext2):
    q = ext2.quiver
    a1 = q.path(["a1"])
    a2 = q.path(["a2"])
    left = {a1: Fraction(1), a2: Fraction(1)}
    nf = ext2.multiply(left, left)
    # (a1+a2)^2 = a1a2 + a2a1 = 0 in the exterior algebra
    assert nf == {}


def test_hilbert_matrix_entries():
    m = AlgebraModel(exterior(2), 3)
    assert hilbert_matrix(m, 3) == {("1", "1"): [1, 2, 1, 0]}


def test_hilbert_matrix_rejects_a_cutoff_past_the_window():
    m = AlgebraModel(exterior(2), 3)
    assert hilbert_matrix(m, 3)[("1", "1")] == [1, 2, 1, 0]
    with pytest.raises(ValueError, match="window 3 at cutoff 4"):
        hilbert_matrix(m, 4)


def test_hilbert_matrix_rejects_a_negative_cutoff():
    # a truncation below degree 0 has no terms, so it would compare as empty
    m = AlgebraModel(exterior(2), 3)
    with pytest.raises(ValueError, match="cutoff -1 is negative"):
        hilbert_matrix(m, -1)


def test_hilbert_matrix_line_quiver():
    m = AlgebraModel(path_algebra(parse_quiver_spec("line:2")), 2)
    # the zero entry (2, 1) is left out
    assert hilbert_matrix(m, 2) == {
        ("1", "1"): [1, 0, 0], ("1", "2"): [0, 1, 0], ("2", "2"): [1, 0, 0]}


# -- block queries read the nonempty blocks, not every vertex pair -----------


def _block_query_cases():
    """The corpus, the benchmark's coverings and random presentations, each
    with its window."""
    def cover(p, order, weights):
        return build_covering(p, cyclic_group(order), dict(zip(
            [a.label for a in p.quiver.arrows], weights)))

    line4 = preprojective(parse_quiver_spec("line:4"))
    cases = {label: (p, 5) for label, p in corpus_instances()}
    cases.update({
        "exterior(4)-Z3": (cover(exterior(4), 3, "0112"), 5),
        "loops:2-Z3": (cover(radical_square_zero(parse_quiver_spec("loops:2")), 3, "12"), 8),
        "preprojective(line:4)-Z3": (cover(line4, 3, "1" * len(line4.quiver.arrows)), 6),
        "exterior(3)-Z8": (cover(exterior(3), 8, "124"), 6),
    })
    for seed in range(40):
        cases[f"random-{seed}"] = (random_presentation(random.Random(seed)), 4)
    return cases


@pytest.mark.parametrize("name", sorted(_block_query_cases()))
def test_block_queries_match_the_every_pair_scan(name):
    p, window = _block_query_cases()[name]
    m = AlgebraModel(p, window)
    V = p.quiver.vertices
    walks = {(v, v) for v in V}
    for d in range(window + 1):
        assert m.blocks(d) == [(u, v) for u in V for v in V if (u, v) in walks]
        walks = {(u, a.target) for u, v in walks for a in p.quiver.arrows_by_source[v]}
        assert m.total_dim(d) == sum(m.dim(d, u, v) for u in V for v in V)
        scan = {}
        for u in V:
            for v in V:
                dims = [m.dim(k, u, v) for k in range(d + 1)]
                if any(dims):
                    scan[(u, v)] = dims
        # equal in content and in key order
        assert list(hilbert_matrix(m, d).items()) == list(scan.items())


# -- the product cache: one row per left word id ------------------------------


def _product_row_cases():
    """The corpus at window 5, the benchmark's coverings at theirs, and
    random presentations at window 4."""
    cases = {label: (p, 5) for label, p in corpus_instances()}
    cases.update((name, make()) for name, make in _COVERING_CASES.items())
    for seed in range(40):
        cases[f"random-{seed}"] = (random_presentation(random.Random(seed)), 4)
    return cases


@pytest.mark.parametrize("name", sorted(_product_row_cases()))
def test_product_rows_hold_the_walked_normal_forms(name):
    # every pair of words, read through the rows in id order: a left
    # table entry, or a miss that is computed and stays in the row; the
    # reference walks the composed path's arrows from its source's trivial
    # word on a second model, whose rows hold only the left tables
    p, window = _product_row_cases()[name]
    model, fresh = AlgebraModel(p, window), AlgebraModel(p, window)
    assert not hasattr(model, "_products")
    top, misses = model.top_degree(), 0
    for x, bx in enumerate(model.words):
        for y, by in enumerate(model.words):
            d = bx.length + by.length
            misses += y not in model._left[x]
            if bx.source != by.target or (top is not None and d > top):
                want = {}
            elif d > window:
                with pytest.raises(DegreeOverflowError):
                    model.product(x, y)
                continue
            else:
                want = {fresh.word_ids[b]: c
                        for b, c in fresh.normal_form(compose(bx, by)).items()}
            got = model.product(x, y)
            assert got == want, (bx, by)
            assert model._left[x][y] is got
            assert model.product(x, y) is got
    assert misses


def test_product_rows_keep_the_diff_image_zeros_and_overflows():
    # exterior(2) vanishes from degree 3 on; the polynomial ring in three
    # variables has no vanishing degree, so a product past its window raises
    ext2 = AlgebraModel(exterior(2), 5)
    W = len(ext2.words)
    a1, a2 = (ext2.arrow_ids[a] for a in ext2.quiver.arrows)
    top = ext2.word_ids[ext2.basis_paths(2)[0]]
    assert top not in ext2._left[a1]
    # a miss past the top degree, as a dict entry and as a unit entry
    assert _diff_image(ext2, {W + top: 3}, a1) == {}
    assert _diff_image(ext2, W + top, a1) == {}
    assert ext2._left[a1][top] == {}
    # a left table entry, scaled and moved to its generator
    assert _diff_image(ext2, {2 * W + a2: 3}, a1) == {
        2 * W + m: 3 * c for m, c in ext2.product(a1, a2).items()}
    poly = AlgebraModel(dual_presentation(exterior(3)), 3)
    assert poly.top_degree() is None
    W = len(poly.words)
    square = poly.word_ids[poly.basis_paths(2)[0]]
    for entry in ({W + square: 1}, W + square):
        with pytest.raises(DegreeOverflowError):
            _diff_image(poly, entry, square)
    assert square not in poly._left[square]
