"""Reference evaluator for the supertropical semifield.

Works on plain pairs and never on the library's ``Scalar``: a nonzero
element is a pair ``(q, is_ghost)`` with ``q`` an exact rational (``int``
or ``fractions.Fraction``), and zero is ``None``.  A vector is a tuple of
such elements and a matrix a tuple of row tuples.  Everything here follows
the definitions, not the library's algorithms, so an agreement between
the two is independent evidence.
"""

from __future__ import annotations

from itertools import combinations, permutations

ZERO = None
ONE = (0, False)

# Above this size the permanent switches from the literal permutation sum
# to the subset DP; both are definitions, the DP is just affordable.
_PERMUTATION_SUM_MAX = 6


def add(a, b):
    """Supertropical sum: the value-larger argument, ghost on a tie."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return (a[0], True)


def mul(a, b):
    """Supertropical product: values add, a ghost factor makes a ghost."""
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] or b[1])


def div(a, b):
    """``a`` times the inverse of the tangible ``b``."""
    if b is None or b[1]:
        raise ValueError("only a nonzero tangible has an inverse")
    if a is None:
        return None
    return (a[0] - b[0], a[1])


def total(xs):
    acc = None
    for x in xs:
        acc = add(acc, x)
    return acc


def is_ghost0(a):
    return a is None or a[1]


def is_tangible(a):
    return a is not None and not a[1]


def lift(a):
    """Tangible of the same value (zero stays zero)."""
    return None if a is None else (a[0], False)


def surpasses(a, b):
    """``a == b + (ghost or zero)``."""
    if a == b:
        return True
    if a is None or not a[1]:
        return False
    return b is None or a[0] >= b[0]


def dot(x, y):
    return total(mul(a, b) for a, b in zip(x, y))


def scale(c, v):
    return tuple(mul(c, x) for x in v)


def vec_add(x, y):
    return tuple(add(a, b) for a, b in zip(x, y))


def combination(coeffs, vectors, target=None):
    """``target + sum_i coeffs[i] * vectors[i]`` (target may be None)."""
    n = len(vectors[0]) if vectors else len(target)
    acc = tuple(target) if target is not None else (None,) * n
    for c, v in zip(coeffs, vectors):
        if c is not None:
            acc = vec_add(acc, scale(c, v))
    return acc


def ghost_combination(coeffs, vectors, target=None):
    """Whether target plus the combination is ghost or zero everywhere."""
    return all(is_ghost0(x) for x in combination(coeffs, vectors, target))


def transpose(A):
    return tuple(zip(*A))


def matmul(A, B):
    Bt = transpose(B)
    return tuple(tuple(dot(r, c) for c in Bt) for r in A)


def apply(A, v):
    return tuple(dot(r, v) for r in A)


def permanent(A):
    """Sum over permutations of the products of the picked entries."""
    n = len(A)
    if n == 0:
        return ONE
    if n <= _PERMUTATION_SUM_MAX:
        acc = None
        for pi in permutations(range(n)):
            term = ONE
            for i in range(n):
                term = mul(term, A[i][pi[i]])
                if term is None:
                    break
            acc = add(acc, term)
        return acc
    # dp[mask]: permanent of the first popcount(mask) rows on the columns
    # in mask
    dp = [None] * (1 << n)
    dp[0] = ONE
    for mask in range(1, 1 << n):
        row = A[bin(mask).count("1") - 1]
        acc = None
        for j in range(n):
            if mask >> j & 1:
                prev = dp[mask ^ (1 << j)]
                if prev is not None and row[j] is not None:
                    acc = add(acc, mul(row[j], prev))
        dp[mask] = acc
    return dp[-1]


def minor(A, rows, cols):
    return tuple(tuple(A[i][j] for j in cols) for i in rows)


def adjoint(A):
    """Entry (i, j) is the permanent of A without row j and column i."""
    n = len(A)
    if n == 1:
        return ((ONE,),)
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        kept = [r for r in range(n) if r != j]
        for i in range(n):
            out[i][j] = permanent(minor(A, kept, [c for c in range(n) if c != i]))
    return tuple(tuple(r) for r in out)


def nabla(A):
    p = permanent(A)
    return tuple(tuple(div(x, p) for x in r) for r in adjoint(A))


def independent(rows):
    """Some square column minor of full family size has a tangible
    permanent."""
    k = len(rows)
    if k == 0:
        return True
    n = len(rows[0])
    if k > n:
        return False
    return any(
        is_tangible(permanent(minor(rows, range(k), cols)))
        for cols in combinations(range(n), k)
    )


def rank(A):
    """Size of the largest square minor with a tangible permanent."""
    m, n = len(A), len(A[0])
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                if is_tangible(permanent(minor(A, ri, ci))):
                    return k
    return 0


def ratio(w, u):
    """The tangible c with ``w == c * u``, or None."""
    c = None
    for a, b in zip(w, u):
        if (a is None) != (b is None):
            return None
        if a is None:
            continue
        if a[1] != b[1]:
            return None
        d = a[0] - b[0]
        if c is None:
            c = d
        elif c != d:
            return None
    return None if c is None else (c, False)
