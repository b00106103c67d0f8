"""Seeded random inputs shared by the test modules.

Each generator takes a ``random.Random``, so a test names its inputs by
seed and a failure replays exactly.
"""

from fractions import Fraction

from quiverkoszul.algebra import Presentation
from quiverkoszul.quiver import PathCombination, enumerate_paths, make_quiver

# non-integral coefficients run the Fraction branch of every elimination
COEFFICIENTS = (-2, -1, 1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


def random_presentation(rng):
    """A small quiver with a few random homogeneous relations of lengths 2-4."""
    vertices = [str(i) for i in range(1, rng.randint(1, 3) + 1)]
    arrows = [
        (f"x{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(1, rng.randint(2, 4) + 1)
    ]
    q = make_quiver(vertices, arrows)
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
