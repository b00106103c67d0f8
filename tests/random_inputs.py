"""Seeded random inputs shared by the test modules.

Each generator takes a ``random.Random``, so a test names its inputs by
seed and a failure replays exactly.
"""

from fractions import Fraction

from quiverkoszul.algebra import Presentation
from quiverkoszul.covering import path_weight
from quiverkoszul.groups import cyclic_group, dihedral_group, direct_product
from quiverkoszul.quiver import PathCombination, Quiver, enumerate_paths

# non-integral coefficients run the Fraction branch of every elimination
COEFFICIENTS = (-2, -1, 1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


def random_presentation(rng):
    """A small quiver with a few random homogeneous relations of lengths 2-4."""
    vertices = [str(i) for i in range(1, rng.randint(1, 3) + 1)]
    arrows = [
        (f"x{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(1, rng.randint(2, 4) + 1)
    ]
    q = Quiver(vertices, arrows)
    relations = []
    for _ in range(rng.randint(1, 5)):
        paths = enumerate_paths(q, rng.choice((2, 2, 2, 3, 3, 4)))
        if not paths:
            continue
        first = rng.choice(paths)
        parallel = [
            p for p in paths if (p.source, p.target) == (first.source, first.target)
        ]
        terms = rng.sample(parallel, min(len(parallel), rng.randint(1, 3)))
        relations.append(PathCombination(
            {p: rng.choice(COEFFICIENTS) for p in terms}
        ))
    return Presentation(q, relations)


GROUPS = (
    cyclic_group(2),
    cyclic_group(3),
    direct_product(cyclic_group(2), cyclic_group(2)),
    dihedral_group(3),
)


def random_graded_presentation(rng):
    """A small presentation with a homogeneous group grading, as
    ``(presentation, group, weights)``.

    The arrow weights come first, in a cyclic, Klein-four or dihedral(3)
    group; each quadratic relation then combines parallel paths of one
    weight.  Every path of length 3 is killed as well (a monomial is
    homogeneous under any weighting), so the algebra is finite-dimensional
    and a window of 3 certifies it.
    """
    group = rng.choice(GROUPS)
    vertices = [str(i) for i in range(1, rng.randint(1, 2) + 1)]
    arrows = [
        (f"x{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(1, rng.randint(2, 3) + 1)
    ]
    q = Quiver(vertices, arrows)
    weights = {label: rng.choice(group.elements) for label, _, _ in arrows}
    same_weight = {}
    for p in enumerate_paths(q, 2):
        key = (p.source, p.target, path_weight(group, weights, p))
        same_weight.setdefault(key, []).append(p)
    relations = []
    for _ in range(rng.randint(0, 3) if same_weight else 0):
        paths = same_weight[rng.choice(sorted(same_weight))]
        terms = rng.sample(paths, min(len(paths), rng.randint(1, 3)))
        relations.append(PathCombination(
            {p: rng.choice(COEFFICIENTS) for p in terms}
        ))
    relations.extend(enumerate_paths(q, 3))
    return Presentation(q, relations), group, weights
