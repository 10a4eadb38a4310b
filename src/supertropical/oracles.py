"""Brute-force reference implementations.

Everything here leans on scalar arithmetic alone, never on the matrix
or dependence algorithms, so that an agreement between an oracle and
the main path counts as two independent pieces of evidence.  The loops
are exponential on purpose and guarded by size limits.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .dependence import DepWitness
from .exceptions import InvalidInputError, ShapeError
from .scalars import ONE, ZERO, tangible

__all__ = ["brute_permanent", "dp_permanent", "brute_dependence", "check_saturated"]

_MAX_PERM = 8
_MAX_DP = 14
_MAX_DEP = 4


def brute_permanent(A):
    """Sum over all permutations of the products of picked entries,
    written out literally."""
    if not A.is_square():
        raise ShapeError("permanent requires a square matrix")
    n = A.rows
    if n > _MAX_PERM:
        raise InvalidInputError(f"brute permanent capped at n={_MAX_PERM}")
    total = ZERO
    cols = range(1, n)
    for picked in permutations(A.row_tuples):
        # picked[c] is the row whose entry in column c joins the term
        term = picked[0][0]
        for c in cols:
            term = term * picked[c][c]
        total = total + term
    return total


def dp_permanent(A):
    """Row expansion memoized over column subsets, ``n * 2^n`` scalar
    operations: ``dp[mask]`` is the permanent of the first
    ``popcount(mask)`` rows on the columns in ``mask``."""
    if not A.is_square():
        raise ShapeError("permanent requires a square matrix")
    n = A.rows
    if n > _MAX_DP:
        raise InvalidInputError(f"dp permanent capped at n={_MAX_DP}")
    rows = A.row_tuples
    dp = [ZERO] * (1 << n)
    dp[0] = ONE
    for mask in range(1, 1 << n):
        row = rows[mask.bit_count() - 1]
        acc = ZERO
        m = mask
        while m:
            low = m & -m
            acc = acc + row[low.bit_length() - 1] * dp[mask ^ low]
            m ^= low
        dp[mask] = acc
    return dp[-1]


def _grid_values(rows, target_vals, support):
    """Candidate coefficient values for one support: zero and the
    target gaps as seeds, then every pairwise member gap applied over
    and over, one round per extra support element."""
    seeds = {0}
    if target_vals is not None:
        for i in support:
            for j, wv in enumerate(rows[i]):
                if wv is None or target_vals[j] is None:
                    continue
                seeds.add(target_vals[j] - wv)
    deltas = set()
    for a in support:
        for b in support:
            for j in range(len(rows[a])):
                av, bv = rows[a][j], rows[b][j]
                if av is None or bv is None:
                    continue
                deltas.add(av - bv)
    vals = set(seeds)
    for _ in range(max(len(support) - 1, 0)):
        vals |= {v + d for v in vals for d in deltas}
    return sorted(vals)


def _value_rows(S):
    return [
        [None if x.is_zero() else x.value for x in w]
        for w in S
    ]


def brute_dependence(S, target=None):
    """Exhaustive dependence search: every nonempty support, every
    coefficient tuple from the candidate grid, smallest first."""
    S = list(S)
    k = len(S)
    if k == 0:
        raise InvalidInputError("empty family")
    n = S[0].dim
    for w in S:
        if w.dim != n:
            raise ShapeError("mixed dimensions")
    if target is not None and target.dim != n:
        raise ShapeError("target dimension mismatch")
    if k > _MAX_DEP or n > _MAX_DEP:
        raise InvalidInputError(f"brute dependence capped at {_MAX_DEP}")
    rows = _value_rows(S)
    tvals = None
    if target is not None:
        tvals = [None if x.is_zero() else x.value for x in target]
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            vals = _grid_values(rows, tvals, support)
            for tup in product(vals, repeat=size):
                coeffs = [ZERO] * k
                for c, i in zip(tup, support):
                    coeffs[i] = tangible(c)
                acc = list(target.entries) if target is not None else [ZERO] * n
                for i in support:
                    for j, x in enumerate(S[i]):
                        acc[j] = acc[j] + coeffs[i] * x
                if all(x.is_ghost0() for x in acc):
                    return DepWitness(tuple(coeffs), support, target)
    return None


def check_saturated(w, S, v=None):
    """No same-support grid witness is strictly larger in any single
    coefficient."""
    S = list(S)
    k = len(S)
    n = S[0].dim
    if k > _MAX_DEP or n > _MAX_DEP:
        raise InvalidInputError(f"saturation check capped at {_MAX_DEP}")
    if v is None:
        v = w.target
    rows = _value_rows(S)
    tvals = None
    if v is not None:
        tvals = [None if x.is_zero() else x.value for x in v]
    support = w.support
    vals = set(_grid_values(rows, tvals, support))
    for i in support:
        vals.add(w.coeffs[i].value)
    vals = sorted(vals)
    own = {i: w.coeffs[i].value for i in support}
    for tup in product(vals, repeat=len(support)):
        if not any(c > own[i] for c, i in zip(tup, support)):
            continue
        acc = list(v.entries) if v is not None else [ZERO] * n
        for c, i in zip(tup, support):
            t = tangible(c)
            for j, x in enumerate(S[i]):
                acc[j] = acc[j] + t * x
        if all(x.is_ghost0() for x in acc):
            return False
    return True
