import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import quiverkoszul
from quiverkoszul.quiver import (
    PathCombination,
    Quiver,
    QuiverError,
    RelationError,
    compose,
    composed_path,
    double_quiver,
    enumerate_paths,
    opposite_quiver,
    trivial_path,
    validate_relation,
)


@pytest.fixture
def loop2():
    return Quiver(["1"], [("a1", "1", "1"), ("a2", "1", "1")])


@pytest.fixture
def line3():
    return Quiver(
        ["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")]
    )


def test_quiver_basic(line3):
    assert line3.vertices == ("1", "2", "3")
    assert [a.label for a in line3.arrows] == ["a1", "a2"]
    assert line3.arrow("a1").source == "1"
    assert line3.arrow("a1").target == "2"


def test_quiver_rejects_duplicates():
    with pytest.raises(QuiverError):
        Quiver(["1", "1"], [])
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "2")])


def test_trivial_path_endpoints(line3):
    e = trivial_path("2")
    assert e.source == "2"
    assert e.target == "2"
    assert e.length == 0


def test_path_from_labels_is_first_applied_order(line3):
    p = line3.path(["a1", "a2"])  # a1 first, then a2
    assert p.source == "1"
    assert p.target == "3"
    assert p.length == 2
    # stored last-applied-first
    assert [a.label for a in p.arrows] == ["a2", "a1"]


def test_path_rejects_non_composable(line3):
    with pytest.raises(QuiverError):
        line3.path(["a2", "a1"])


def test_compose_applies_right_factor_first(line3):
    p = line3.path(["a1"])
    q = line3.path(["a2"])
    pq = compose(q, p)  # p first, then q
    assert pq.source == "1"
    assert pq.target == "3"
    with pytest.raises(QuiverError):
        compose(p, q)


def test_compose_with_trivial_paths(line3):
    p = line3.path(["a1"])
    assert compose(p, trivial_path("1")) == p
    assert compose(trivial_path("2"), p) == p
    with pytest.raises(QuiverError):
        compose(trivial_path("3"), p)


def test_enumerate_paths_counts(loop2, line3):
    assert len(enumerate_paths(loop2, 0)) == 1
    assert len(enumerate_paths(loop2, 1)) == 2
    assert len(enumerate_paths(loop2, 3)) == 8
    assert len(enumerate_paths(line3, 2)) == 1
    assert len(enumerate_paths(line3, 3)) == 0


def test_enumerate_paths_lex_order_by_first_applied(loop2):
    words = [
        [a.label for a in reversed(p.arrows)] for p in enumerate_paths(loop2, 2)
    ]
    assert words == [
        ["a1", "a1"],
        ["a1", "a2"],
        ["a2", "a1"],
        ["a2", "a2"],
    ]


def test_enumerate_paths_endpoint_filters(line3):
    assert len(enumerate_paths(line3, 1, source="1")) == 1
    assert len(enumerate_paths(line3, 1, source="1", target="3")) == 0
    assert len(enumerate_paths(line3, 2, source="1", target="3")) == 1


def test_path_key_orders_by_first_applied_word(loop2):
    p12 = loop2.path(["a1", "a2"])
    p21 = loop2.path(["a2", "a1"])
    keys = sorted([loop2.path_key(p21), loop2.path_key(p12)])
    assert keys == [loop2.path_key(p12), loop2.path_key(p21)]
    # keys are compared within one degree; the word is the tiebreaker
    assert loop2.path_key(p12)[1] == (0, 1)
    assert loop2.path_key(p21)[1] == (1, 0)


def test_opposite_quiver(line3):
    op = opposite_quiver(line3)
    assert op.vertices == line3.vertices
    a = op.arrow("a1_op")
    assert a.source == "2"
    assert a.target == "1"


def test_double_quiver(line3):
    d = double_quiver(line3)
    assert [a.label for a in d.arrows] == ["a1", "a2", "a1*", "a2*"]
    star = d.arrow("a1*")
    assert star.source == "2"
    assert star.target == "1"


class TestPathCombination:
    def test_zero_coefficients_dropped(self, loop2):
        p = loop2.path(["a1", "a2"])
        q = loop2.path(["a2", "a1"])
        c = PathCombination({p: Fraction(1), q: Fraction(0)})
        assert dict(c.items()) == {p: Fraction(1)}

    def test_all_zero_combination_rejected(self, loop2):
        p = loop2.path(["a1"])
        with pytest.raises(RelationError):
            PathCombination({p: Fraction(0)})

    def test_endpoints_of_homogeneous_combination(self, loop2):
        p = loop2.path(["a1", "a2"])
        q = loop2.path(["a2", "a1"])
        c = PathCombination({p: Fraction(1), q: Fraction(1)})
        assert c.source == "1"
        assert c.target == "1"
        assert c.length == 2


def test_validate_relation_accepts_uniform_endpoints(loop2):
    p = loop2.path(["a1", "a1"])
    q = loop2.path(["a1", "a2"])
    validate_relation(loop2, PathCombination({p: Fraction(1), q: Fraction(1)}))


def test_validate_relation_rejects_mixed_endpoints(line3):
    p = line3.path(["a1"])
    q = line3.path(["a2"])
    with pytest.raises(RelationError):
        validate_relation(line3, PathCombination({p: Fraction(1), q: Fraction(1)}))


def test_validate_relation_rejects_trivial_terms(loop2):
    e = trivial_path("1")
    with pytest.raises(RelationError):
        validate_relation(loop2, PathCombination({e: Fraction(1)}))


def test_path_equality_and_hash(loop2):
    p = loop2.path(["a1", "a2"])
    q = loop2.path(["a1", "a2"])
    assert p == q
    assert hash(p) == hash(q)
    assert p != loop2.path(["a2", "a1"])


def test_composed_path_is_the_checked_path(line3):
    # the unchecked constructor that AlgebraModel builds its words with
    p = line3.path(["a1", "a2"])
    q = composed_path(p.arrows)
    assert (q, hash(q), str(q), q.source, q.target, q.base) == (
        p, hash(p), str(p), p.source, p.target, p.base)
    assert {q: 1} == {p: 1}


def test_pickled_paths_and_arrows_keep_equality_and_hash(loop2):
    p = loop2.path(["a1", "a2"])
    for x in (p, trivial_path("1"), loop2.arrows[0]):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x
            assert hash(y) == hash(x)


_PICKLE_SCRIPT = """
import pickle, sys
from quiverkoszul.quiver import Quiver, enumerate_paths, trivial_path
q = Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")])
paths = [trivial_path("u"), trivial_path("v")]
paths += [p for d in (1, 2, 3) for p in enumerate_paths(q, d)]
mode, name = sys.argv[1:]
if mode == "write":
    with open(name, "wb") as fh:
        pickle.dump(({p: i for i, p in enumerate(paths)},
                     {a: a.label for a in q.arrows}), fh)
else:
    with open(name, "rb") as fh:
        by_path, by_arrow = pickle.load(fh)
    assert all(by_path[p] == i for i, p in enumerate(paths)), "path lookup"
    assert all(by_arrow[a] == a.label for a in q.arrows), "arrow lookup"
    print(len(by_path), len(by_arrow))
"""


def test_pickled_path_keys_are_found_under_another_hash_seed(tmp_path):
    # string hashes differ between interpreters, so a hash computed in the
    # writing process must not travel with the pickle
    src = os.path.dirname(os.path.dirname(quiverkoszul.__file__))
    name = str(tmp_path / "paths.pickle")
    for seed, mode in (("1", "write"), ("2", "read")):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, mode, name],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["18", "3"]
