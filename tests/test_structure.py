import random
from fractions import Fraction

import pytest

from quiverkoszul.algebra import AlgebraModel, InternalError, Presentation
from quiverkoszul.corpus import (
    corpus_instances,
    exterior,
    loop_cubed,
    parse_quiver_spec,
    path_algebra,
)
from quiverkoszul.covering import (
    build_covering,
    deck_action,
    path_weight,
    sheet_label,
    split_sheet,
)
from quiverkoszul.groups import (
    GroupAction,
    cyclic_group,
    dihedral_group,
    direct_product,
    trivial_action,
)
from quiverkoszul.linalg import (
    EchelonSpan,
    ONE,
    ZERO,
    as_scalar,
    kernel_basis_sparse,
    vec_axpy,
)
from quiverkoszul.quiver import Path, Quiver, QuiverAutomorphism, trivial_path
from quiverkoszul.resolution import theorem_covering_check
from quiverkoszul.structure import (
    StructureConstantAlgebra,
    algebra_to_structure_constants,
    radical,
    short_associativity,
    skew_group_algebra,
    smash_product,
    verify_smash_covering_iso,
)

from random_inputs import random_graded_presentation


def ext_model(m, bound=4):
    return AlgebraModel(exterior(m), bound)


def one_weights(p, group):
    one = "1" if "1" in group else group.identity
    return {a.label: one for a in p.quiver.arrows}


def test_structure_constants_of_exterior2():
    s = algebra_to_structure_constants(ext_model(2))
    assert s.dim == 4
    assert s.unit_failures() == []
    assert s.associativity_failures() == []


def test_structure_constants_need_no_window_for_products():
    # exterior(3) has top degree 3, so its products reach degree 6 > 4
    s = algebra_to_structure_constants(ext_model(3, 4))
    assert s.dim == 8
    assert s.associativity_failures() == []
    assert s.unit_failures() == []


def test_structure_constants_unit_is_vertex_sum():
    s = algebra_to_structure_constants(ext_model(1))
    assert s.dim == 2
    assert s.unit_failures() == []
    assert s.associativity_failures() == []


def test_product_matches_algebra_multiplication():
    model = ext_model(2)
    s = algebra_to_structure_constants(model)
    labels = list(s.labels)
    a1 = labels.index(model.quiver.path(["a1"]))
    a2 = labels.index(model.quiver.path(["a2"]))
    prod = s.table.get((a2, a1), {})  # a1 applied first
    prod_rev = s.table.get((a1, a2), {})
    # both land on the degree-2 basis class with opposite signs
    assert len(prod) == len(prod_rev) == 1
    ((i, c),) = prod.items()
    ((j, d),) = prod_rev.items()
    assert i == j
    assert c == -d


def test_radical_of_exterior_is_positive_degrees():
    s = algebra_to_structure_constants(ext_model(2))
    rad = radical(s)
    assert len(rad) == 3
    expected = EchelonSpan()
    for i, lab in enumerate(s.labels):
        if lab.length:
            expected.add({i: Fraction(1)})
    got = EchelonSpan()
    for v in rad:
        got.add(v)
    assert got.equals(expected)


def test_radical_of_semisimple_is_zero():
    # vertex span only: kill both loops
    from quiverkoszul.algebra import Presentation
    from quiverkoszul.quiver import Quiver

    q = Quiver(["1"], [("x", "1", "1")])
    p = Presentation(q, [q.path(["x", "x"])])
    model = AlgebraModel(p, 3)
    s = algebra_to_structure_constants(model)
    assert len(radical(s)) == 1  # x itself, x^2 = 0


class TestSmashProduct:
    def test_dim_is_base_times_group(self):
        p = exterior(2)
        g = cyclic_group(2)
        s = smash_product(ext_model(2), g, one_weights(p, g))
        assert s.dim == 8
        assert s.unit_failures() == []
        assert s.associativity_failures() == []

    def test_weight_mismatch_kills_products(self):
        p = exterior(1)
        g = cyclic_group(2)
        model = AlgebraModel(p, 3)
        s = smash_product(model, g, {"a1": "1"})
        # (a#p_0)(a#p_0): left factor needs weight(a) = 0*0^{-1} = 0, but
        # weight(a) = 1, so the product vanishes
        labels = list(s.labels)
        a_p0 = next(
            i for i, (b, h) in enumerate(labels) if b.length == 1 and h == "0"
        )
        assert (a_p0, a_p0) not in s.table

    def test_smash_with_trivial_group_is_base(self):
        p = exterior(2)
        g = cyclic_group(1)
        model = ext_model(2)
        s = smash_product(model, g, {"a1": "0", "a2": "0"})
        base = algebra_to_structure_constants(model)
        assert s.dim == base.dim
        assert s.unit_failures() == []
        assert s.associativity_failures() == []

    def test_radical_dim_multiplies(self):
        p = exterior(2)
        g = cyclic_group(3)
        s = smash_product(ext_model(2), g, one_weights(p, g))
        assert len(radical(s)) == 3 * 3  # dim J = 3, |G| = 3

    def test_radical_spans_positive_degree_slices(self):
        p = exterior(1)
        g = cyclic_group(2)
        s = smash_product(ext_model(1), g, one_weights(p, g))
        rad = radical(s)
        assert len(rad) == 2
        expected = EchelonSpan()
        for i, (b, h) in enumerate(s.labels):
            if b.length:
                expected.add({i: Fraction(1)})
        got = EchelonSpan()
        for v in rad:
            got.add(v)
        assert got.equals(expected)


# the swap of two loops a1, a2 at vertex 1, as in exterior(2)'s quiver, and
# the swap of the two leaves of star:2
_SWAP = GroupAction(
    cyclic_group(2),
    {"0": {"1": "1"}, "1": {"1": "1"}},
    {"0": {"a1": "a1", "a2": "a2"}, "1": {"a1": "a2", "a2": "a1"}},
)
_LEAF_SWAP = GroupAction(
    cyclic_group(2),
    {"0": {"c": "c", "l1": "l1", "l2": "l2"},
     "1": {"c": "c", "l1": "l2", "l2": "l1"}},
    {"0": {"a1": "a1", "a2": "a2"}, "1": {"a1": "a2", "a2": "a1"}},
)


class TestSkewGroupAlgebra:
    def test_trivial_action_skew_is_group_algebra_tensor(self):
        model = ext_model(2)
        action = trivial_action(model.quiver)
        s = skew_group_algebra(model, action)
        assert s.dim == 4
        assert s.unit_failures() == []
        assert s.associativity_failures() == []

    def test_swap_action_on_exterior2(self):
        s = skew_group_algebra(ext_model(2), _SWAP)
        assert s.dim == 8
        assert s.unit_failures() == []
        assert s.associativity_failures() == []
        assert len(radical(s)) == 6

    def test_action_must_preserve_relations(self):
        p = loop_cubed()
        model = AlgebraModel(p, 4)
        action = trivial_action(model.quiver)
        s = skew_group_algebra(model, action)
        assert s.dim == 3
        assert s.unit_failures() == []
        assert s.associativity_failures() == []


class TestSmashCoveringIso:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3)])
    def test_iso_holds(self, m, n):
        p = exterior(m)
        g = cyclic_group(n)
        weights = one_weights(p, g)
        cov = build_covering(p, g, weights)
        cov_model = AlgebraModel(cov, 4)
        s = smash_product(ext_model(m), g, weights)
        assert verify_smash_covering_iso(cov_model, s)

    def test_size_mismatch_raises(self):
        p = exterior(2)
        cov = build_covering(p, cyclic_group(2), {"a1": "1", "a2": "1"})
        cov_model = AlgebraModel(cov, 4)
        s = smash_product(ext_model(2), cyclic_group(3), {"a1": "1", "a2": "1"})
        with pytest.raises(InternalError,
                           match="basis size mismatch: covering has 8, smash has 12"):
            verify_smash_covering_iso(cov_model, s)

    def test_wrong_weights_fail_product_comparison(self):
        p = exterior(2)
        g = cyclic_group(2)
        cov = build_covering(p, g, {"a1": "1", "a2": "1"})
        cov_model = AlgebraModel(cov, 4)
        # same sizes, different weight function: bijection exists but
        # structure constants disagree
        s = smash_product(ext_model(2), g, {"a1": "1", "a2": "0"})
        assert not verify_smash_covering_iso(cov_model, s)


# -- the sparse sweeps against dense references --------------------------------


def _product(s: StructureConstantAlgebra, x: dict, y: dict) -> dict:
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            vec_axpy(out, ci * cj, s.table.get((i, j), {}))
    return out


def _dense_associativity_failures(s: StructureConstantAlgebra) -> list:
    failures = []
    for i in range(s.dim):
        for j in range(s.dim):
            for k in range(s.dim):
                left = _product(s, s.table.get((i, j), {}), {k: ONE})
                right = _product(s, {i: ONE}, s.table.get((j, k), {}))
                if left != right:
                    failures.append((i, j, k))
    return failures


def _dense_radical(s: StructureConstantAlgebra) -> list:
    # L_i[k][l] = coordinate k of b_i b_l
    lefts = [[[s.table.get((i, l), {}).get(k, ZERO) for l in range(s.dim)]
              for k in range(s.dim)] for i in range(s.dim)]
    columns = []
    for j in range(s.dim):
        col = {}
        for i in range(s.dim):
            tr = sum(lefts[i][k][l] * lefts[j][l][k]
                     for k in range(s.dim) for l in range(s.dim))
            if tr:
                col[i] = tr
        columns.append(col)
    return kernel_basis_sparse(columns)


def _dense_unit_failures(s: StructureConstantAlgebra) -> list:
    failures = []
    for i in range(s.dim):
        if _product(s, s.unit, {i: ONE}) != {i: ONE}:
            failures.append(("left", i))
        if _product(s, {i: ONE}, s.unit) != {i: ONE}:
            failures.append(("right", i))
    return failures


def _random_algebra(rng) -> StructureConstantAlgebra:
    n = rng.randint(1, 7)
    density = rng.choice([0.15, 0.4, 0.8])
    table = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                targets = rng.sample(range(n), rng.randint(1, min(3, n)))
                vec = {k: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for k in targets}
                # the constructor takes exact, zero-free rows
                vec = {k: as_scalar(c) for k, c in vec.items() if c}
                if vec:
                    table[(i, j)] = vec
    return StructureConstantAlgebra(range(n), {}, table)


def _semigroup_algebra(rng) -> StructureConstantAlgebra:
    # associative: the semigroup ({0..n-1}, max) or ({0..n-1}, + mod n)
    n = rng.randint(1, 7)
    if rng.random() < 0.5:
        table = {(i, j): {max(i, j): 1} for i in range(n) for j in range(n)}
    else:
        table = {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}
    return StructureConstantAlgebra(range(n), {0: 1}, table)


@pytest.mark.parametrize("seed", range(40))
def test_sparse_sweeps_match_dense_references(seed):
    rng = random.Random(seed)
    s = _semigroup_algebra(rng) if seed % 4 == 0 else _random_algebra(rng)
    failures = s.associativity_failures()
    assert failures == _dense_associativity_failures(s)
    if seed % 4 == 0:
        assert failures == []
    assert radical(s) == _dense_radical(s)
    assert s.unit_failures() == _dense_unit_failures(s)
    if seed % 4 == 0:
        assert s.unit_failures() == []


@pytest.mark.parametrize("unit", [{0: 1}, {1: 1}, {0: 1, 1: -1}, {0: 2}])
def test_unit_failures_match_dense_reference_one_sided(unit):
    # b_i b_j = b_j: each b_u is a left unit, and a right unit for b_u only
    n = 4
    s = StructureConstantAlgebra(
        range(n), unit, {(i, j): {j: 1} for i in range(n) for j in range(n)})
    assert s.unit_failures() == _dense_unit_failures(s)
    if unit == {0: 1}:
        assert s.unit_failures() == [("right", 1), ("right", 2), ("right", 3)]


def test_sweeps_see_random_nonassociative_algebras():
    # guards the parametrized test above against only drawing easy cases
    found = 0
    for seed in range(40):
        rng = random.Random(seed)
        if seed % 4:
            found += len(_random_algebra(rng).associativity_failures())
    assert found > 100


def test_known_nonassociative_algebra():
    # b0 b0 = b1 and b1 b0 = b0; b0 b1 = b1 b1 = 0.  The failing triples:
    # (b0 b0) b0 = b1 b0 = b0  but  b0 (b0 b0) = b0 b1 = 0
    # (b0 b1) b0 = 0           but  b0 (b1 b0) = b0 b0 = b1
    # (b1 b0) b0 = b0 b0 = b1  but  b1 (b0 b0) = b1 b1 = 0
    # (b1 b1) b0 = 0           but  b1 (b1 b0) = b1 b0 = b0
    # and the four triples ending in b1 are 0 on both sides
    s = StructureConstantAlgebra(
        ["b0", "b1"], {}, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    want = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert s.associativity_failures() == want
    assert _dense_associativity_failures(s) == want
    # the same products after adjoining a unit e: the unit law holds
    table = {(0, k): {k: 1} for k in range(3)}
    table.update({(k, 0): {k: 1} for k in range(3)})
    table.update({(1, 1): {2: 1}, (2, 1): {1: 1}})
    unital = StructureConstantAlgebra(["e", "b0", "b1"], {0: 1}, table)
    assert unital.unit_failures() == []
    assert unital.associativity_failures() == [
        (1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)]


def _dense_smash_table(m, group, weights) -> dict:
    basis = m.finite_basis()
    labels = [(b, g) for b in basis for g in group.elements]
    index = {lab: i for i, lab in enumerate(labels)}
    table = {}
    for bi, g in labels:
        for bj, h in labels:
            weight = path_weight(group, weights, bj)
            if weight != group.multiply(g, group.inverse(h)):
                continue
            prod = m.multiply(bi, bj)
            if prod:
                table[(index[(bi, g)], index[(bj, h)])] = {
                    index[(b, h)]: c for b, c in prod.items()}
    return table


_GRADINGS = [
    ("cyclic", exterior(2), cyclic_group(3), {"a1": "1", "a2": "2"}),
    ("klein", exterior(2), direct_product(cyclic_group(2), cyclic_group(2)),
     {"a1": "(1,0)", "a2": "(0,1)"}),
    ("dihedral", exterior(2), dihedral_group(3), {"a1": "s", "a2": "s"}),
    ("dihedral-line", path_algebra(parse_quiver_spec("line:3")),
     dihedral_group(3), {"a1": "s", "a2": "c"}),
]


@pytest.mark.parametrize("name,p,group,weights", _GRADINGS,
                         ids=[g[0] for g in _GRADINGS])
def test_smash_table_matches_all_label_pairs(name, p, group, weights):
    m = AlgebraModel(p, 4)
    s = smash_product(m, group, weights)
    assert s.table == _dense_smash_table(m, group, weights)
    assert s.associativity_failures() == []
    assert s.unit_failures() == []


@pytest.mark.parametrize("seed", range(20))
def test_paper_statements_on_random_gradings(seed):
    p, group, weights = random_graded_presentation(random.Random(seed))
    m = AlgebraModel(p, 3)
    s = smash_product(m, group, weights)
    assert s.table == _dense_smash_table(m, group, weights)
    cov_model = AlgebraModel(build_covering(p, group, weights), 3)
    assert verify_smash_covering_iso(cov_model, s)
    assert s.associativity_failures() == []
    assert s.unit_failures() == []
    base_radical = radical(algebra_to_structure_constants(m))
    assert len(radical(s)) == len(base_radical) * group.order
    assert theorem_covering_check(p, group, weights, 3, 3).passed


def test_random_gradings_reach_every_group():
    # guards the test above against drawing only cyclic gradings
    orders = {random_graded_presentation(random.Random(seed))[1].order
              for seed in range(20)}
    assert orders == {2, 3, 4, 6}


def _per_pair_skew_table(model, action) -> dict:
    group, q = action.group, model.quiver
    labels = [(b, g) for b in model.finite_basis() for g in group.elements]
    index = {lab: i for i, lab in enumerate(labels)}
    moved = {(g, b): model.normal_form(action.automorphism(q, g).apply(b))
             for b, g in labels}
    want = {}
    for bi, g in labels:
        # bi·g(bj) does not depend on h: multiply once per bj
        prods = {}
        for bj, h in labels:
            if bj not in prods:
                prods[bj] = model.multiply({bi: ONE}, moved[(g, bj)])
            prod = prods[bj]
            if prod:
                want[(index[(bi, g)], index[(bj, h)])] = {
                    index[(b, group.multiply(g, h))]: c for b, c in prod.items()}
    return want


def test_skew_table_on_swap_action_matches_per_pair_reference():
    model = ext_model(2)
    s = skew_group_algebra(model, _SWAP)
    assert list(s.table.items()) == list(_per_pair_skew_table(model, _SWAP).items())


def test_skew_table_on_leaf_swap_matches_per_pair_reference():
    # the action moves vertices, so g(bj) can end where bj does not
    model = AlgebraModel(path_algebra(parse_quiver_spec("star:2")), 2)
    s = skew_group_algebra(model, _LEAF_SWAP)
    assert list(s.table.items()) == list(_per_pair_skew_table(model, _LEAF_SWAP).items())
    assert s.dim == 10
    assert s.unit_failures() == []
    assert s.associativity_failures() == []


@pytest.mark.parametrize("seed", range(20))
def test_skew_table_on_deck_actions_matches_per_pair_reference(seed):
    p, group, weights = random_graded_presentation(random.Random(seed))
    cov = build_covering(p, group, weights)
    model = AlgebraModel(cov, 3)
    action = deck_action(cov, group)
    s = skew_group_algebra(model, action)
    assert list(s.table.items()) == list(_per_pair_skew_table(model, action).items())
    assert s.unit_failures() == []


def _underlying(base_quiver: Quiver, b: Path) -> Path:
    """A covering path with its sheets dropped."""
    if not b.arrows:
        return trivial_path(split_sheet(b.base)[0])
    return Path(tuple(base_quiver.arrow(split_sheet(a.label)[0]) for a in b.arrows))


@pytest.mark.parametrize("seed", range(60))
def test_skew_algebra_of_a_covering_has_the_base_as_a_corner(seed):
    # C*G is Morita equivalent to A for a Galois covering C of A
    # (Cibils-Marcos; Cohen-Montgomery).  The corner cut by the idempotent
    # sum over v of e_(v,1)·1 is spanned by the labels (b, g) with b from
    # sheet g^-1 to sheet 1, and dropping the sheets carries it onto A
    p, group, weights = random_graded_presentation(random.Random(seed))
    cov = build_covering(p, group, weights)
    s = skew_group_algebra(AlgebraModel(cov, 4), deck_action(cov, group))
    base = algebra_to_structure_constants(AlgebraModel(p, 4))
    e = group.identity
    pi = {}
    for k, (b, g) in enumerate(s.labels):
        if (split_sheet(b.source)[1], split_sheet(b.target)[1]) == (group.inverse(g), e):
            b0 = _underlying(p.quiver, b)
            assert path_weight(group, weights, b0) == g
            pi[k] = base.index(b0)
    assert sorted(pi.values()) == list(range(base.dim))
    corner = {}
    for (x, y), vec in s.table.items():
        if x in pi and y in pi:
            assert vec.keys() <= pi.keys()
            corner[(pi[x], pi[y])] = {pi[k]: c for k, c in vec.items()}
    assert corner == base.table
    ones = [s.index((trivial_path(sheet_label(v, e)), e)) for v in p.quiver.vertices]
    assert {pi[k]: ONE for k in ones} == base.unit


def test_skew_algebra_reads_only_word_ids(monkeypatch):
    # no path-keyed normal form, product or moved path on the way
    p, group, weights = random_graded_presentation(random.Random(0))
    cov = build_covering(p, group, weights)
    cases = [
        (ext_model(2), _SWAP),
        (AlgebraModel(path_algebra(parse_quiver_spec("star:2")), 2), _LEAF_SWAP),
        (AlgebraModel(cov, 3), deck_action(cov, group)),
    ]

    def refuse(*args):
        raise AssertionError("the skew group algebra left the word ids")

    for owner, name in ((AlgebraModel, "normal_form"), (AlgebraModel, "multiply"),
                        (QuiverAutomorphism, "apply")):
        monkeypatch.setattr(owner, name, refuse)
    for model, action in cases:
        assert skew_group_algebra(model, action).unit_failures() == []


def _two_loops_with_swap(max_degree):
    q = Quiver(["1"], [("a1", "1", "1"), ("a2", "1", "1")])
    p = Presentation(q, [q.path(["a1", "a1"]), q.path(["a2", "a2"]),
                         q.path(["a1", "a2"])])
    return AlgebraModel(p, max_degree), _SWAP


def test_skew_refuses_an_action_that_breaks_the_ideal():
    # the swap sends the relation a1a2 to a2a1, which is not in the ideal
    model, swap = _two_loops_with_swap(3)
    with pytest.raises(ValueError) as exc:
        skew_group_algebra(model, swap)
    assert str(exc.value) == (
        "action of '1' does not preserve the ideal (relation (1)*a2.a1)")


def test_skew_refuses_a_relation_past_the_window():
    model, swap = _two_loops_with_swap(1)
    with pytest.raises(ValueError, match="cannot certify the action preserves"
                       " the ideal: relation degree 2 exceeds the window 1"):
        skew_group_algebra(model, swap)


@pytest.mark.parametrize("change", ["scale", "extra", "unit"])
def test_iso_check_sees_one_perturbed_structure_constant(change):
    p = exterior(2)
    g = cyclic_group(2)
    weights = one_weights(p, g)
    cov_model = AlgebraModel(build_covering(p, g, weights), 4)
    s = smash_product(ext_model(2), g, weights)
    assert verify_smash_covering_iso(cov_model, s)
    # a table is fixed once built, so each perturbation is a new algebra
    table, unit = dict(s.table), s.unit
    (i, j), vec = max(s.table.items())
    k = next(iter(vec))
    if change == "scale":
        table[(i, j)] = {**vec, k: 2 * vec[k]}
    elif change == "unit":
        unit = {**s.unit, next(iter(s.unit)): 2}
    else:
        # a product the covering says vanishes
        zero_pair = next((a, b) for a in range(s.dim) for b in range(s.dim)
                         if (a, b) not in s.table)
        table[zero_pair] = {k: ONE}
    assert not verify_smash_covering_iso(
        cov_model, StructureConstantAlgebra(s.labels, unit, table))


# -- the short-label decisions against the full sweeps --------------------------


def _full_iso(cov_model, s) -> bool:
    # every product, through a second table of the covering whose labels meet
    # the smash labels by arrow names, source vertex and sheet
    c = algebra_to_structure_constants(cov_model)
    smash_keys = {(tuple(a.label for a in b.arrows), b.source, g): i
                  for i, (b, g) in enumerate(s.labels)}
    mapping = []
    for b in c.labels:
        vertex, sheet = split_sheet(b.source)
        key = (tuple(split_sheet(a.label)[0] for a in b.arrows), vertex, sheet)
        if key not in smash_keys:
            return False
        mapping.append(smash_keys[key])
    if sorted(mapping) != list(range(s.dim)):
        return False
    if {mapping[u]: v for u, v in c.unit.items()} != s.unit:
        return False
    return {(mapping[i], mapping[j]): {mapping[k]: v for k, v in vec.items()}
            for (i, j), vec in c.table.items()} == s.table


def _long(lengths) -> int:
    return sum(n > 1 for n in lengths)


def _assert_short_decisions_match_full_sweeps(m, group, weights):
    s = smash_product(m, group, weights)
    lengths = [b.length for b, _ in s.labels]
    assert short_associativity(s, lengths) == ([], _long(lengths))
    assert s.associativity_failures() == []
    cov_model = AlgebraModel(build_covering(m.presentation, group, weights),
                             m.max_degree)
    assert verify_smash_covering_iso(cov_model, s, 1) is True
    assert verify_smash_covering_iso(cov_model, s) is True
    assert _full_iso(cov_model, s) is True
    # what the short comparison assumes of the covering's own table
    c = algebra_to_structure_constants(cov_model)
    cover_lengths = [b.length for b in c.labels]
    assert short_associativity(c, cover_lengths) == ([], _long(cover_lengths))
    assert c.associativity_failures() == []


_FINITE_CORPUS = [(label, p) for label, p in corpus_instances()
                  if AlgebraModel(p, 6).top_degree() is not None]


def test_finite_corpus_leaves_out_only_infinite_instances():
    assert len(_FINITE_CORPUS) == 13


@pytest.mark.parametrize("p", [p for _, p in _FINITE_CORPUS],
                         ids=[label for label, _ in _FINITE_CORPUS])
def test_short_decisions_match_full_sweeps_on_corpus_covers(p):
    group = cyclic_group(2)
    _assert_short_decisions_match_full_sweeps(
        AlgebraModel(p, 6), group, one_weights(p, group))


@pytest.mark.parametrize("seed", range(30))
def test_short_decisions_match_full_sweeps_on_random_covers(seed):
    p, group, weights = random_graded_presentation(random.Random(seed))
    _assert_short_decisions_match_full_sweeps(AlgebraModel(p, 3), group, weights)


def _decomposed_reference(s, lengths) -> int:
    return sum(
        any(s.table.get((a, x)) == {l: 1}
            for a in range(s.dim) if lengths[a] == 1
            for x in range(s.dim) if lengths[x] == lengths[l] - 1)
        for l in range(s.dim) if lengths[l] > 1)


@pytest.mark.parametrize("seed", range(40))
def test_short_sweep_is_the_full_sweep_on_short_first_factors(seed):
    rng = random.Random(seed)
    s = _semigroup_algebra(rng) if seed % 4 == 0 else _random_algebra(rng)
    lengths = [rng.randint(0, 3) for _ in range(s.dim)]
    failures, decomposed = short_associativity(s, lengths)
    full = s.associativity_failures()
    assert failures == [t for t in full if lengths[t[0]] <= 1]
    assert decomposed == _decomposed_reference(s, lengths)
    if not failures and decomposed == _long(lengths):
        assert full == []


def test_short_sweep_needs_every_long_label_decomposed():
    # b1 b0 = b0 and nothing else: b1 (b1 b0) = b0 but (b1 b1) b0 = 0, the
    # one failure, has the long b1 first.  The short sweep is clean, and b1
    # is no product of short labels, so only the full sweep decides
    s = StructureConstantAlgebra(["b0", "b1"], {}, {(1, 0): {0: 1}})
    assert short_associativity(s, [1, 2]) == ([], 0)
    assert s.associativity_failures() == [(1, 1, 0)]
    # with b1 short the sweep sees the failure itself
    assert short_associativity(s, [1, 1]) == ([(1, 1, 0)], 0)


def test_factor_index_is_built_once():
    s = smash_product(ext_model(2), cyclic_group(2), {"a1": "1", "a2": "1"})
    index = s.factor_index
    assert s.unit_failures() == [] and s.associativity_failures() == []
    assert len(radical(s)) == 6
    assert s.factor_index is index
