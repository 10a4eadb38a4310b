"""Shared constructors and random generators for the test suite.

The string-based builders (``sc``, ``vec``, ``mat``) go through the text
format on purpose: the format has its own round-trip tests, and literal
matrices read much better as strings than as nested constructor calls.
"""

import random
from fractions import Fraction

from supertropical import (
    Mat,
    Vec,
    ZERO,
    ghost,
    is_nonsingular,
    parse_matrix,
    parse_scalar,
    parse_vector,
    tangible,
)

Z = ZERO


def T(x):
    return tangible(Fraction(x))


def G(x):
    return ghost(Fraction(x))


def sc(text):
    return parse_scalar(text)


def vec(text):
    return parse_vector(text)


def mat(text):
    return parse_matrix(text)


def rows(text):
    return mat(text).row_list()


# -- random generation -------------------------------------------------

# (lo, hi, zero_p, ghost_p, denom) for ``rand_scalar``: tie-heavy, sparse,
# ghost-heavy and fractional populations.
POPULATIONS = [
    (-1, 1, 0.0, 0.0, 1),
    (-1, 1, 0.2, 0.2, 1),
    (-3, 5, 0.1, 0.3, 1),
    (-3, 5, 0.5, 0.0, 1),
    (0, 2, 0.3, 0.1, 1),
    (-4, 4, 0.1, 0.1, 2),
    (-6, 6, 0.2, 0.2, 3),
]


def rand_scalar(rng, lo=-3, hi=5, zero_p=0.15, ghost_p=0.3, denom=1):
    if rng.random() < zero_p:
        return ZERO
    v = Fraction(rng.randint(lo, hi), denom)
    if rng.random() < ghost_p:
        return ghost(v)
    return tangible(v)


def rand_tangible(rng, lo=-3, hi=5):
    return tangible(Fraction(rng.randint(lo, hi)))


def rand_vec(rng, n, **kw):
    return Vec([rand_scalar(rng, **kw) for _ in range(n)])


def rand_tangible_vec(rng, n, lo=-3, hi=5):
    return Vec([rand_tangible(rng, lo, hi) for _ in range(n)])


def rand_mat(rng, r, c, **kw):
    return Mat([[rand_scalar(rng, **kw) for _ in range(c)] for _ in range(r)])


def rand_nonsingular(rng, n, tries=500, **kw):
    for _ in range(tries):
        A = rand_mat(rng, n, n, **kw)
        if is_nonsingular(A):
            return A
    raise AssertionError("failed to draw a nonsingular matrix")


def seeded(seed=0):
    return random.Random(seed)
