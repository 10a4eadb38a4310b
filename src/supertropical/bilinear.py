"""Bilinear forms through Gram matrices: orthogonality, radicals,
degeneracy, and the two symmetry notions.

A form is stored strictly, as the Gram matrix of a generator list, and
evaluated on coefficient vectors by x' G y.  The ghost-orthogonality
relation is directional, so the complement predicate takes a side.

Symmetry verdicts are grid-bounded by design.  The search normalizes
the first coordinate of both arguments to the unit (scaling either
argument by a tangible scalar scales both evaluation orders alike, so
ghostness and value comparisons are unaffected), draws the remaining
coordinates from the entry-difference grid of the Gram matrix with a
sentinel below everything, and optionally adds seeded random tangible
samples.  A verdict therefore certifies violations absolutely, and
certifies consistency relative to the searched set, which the verdict
records.

The radical check behind ``gram_dependence`` looks for a combination of
the family outside the ghost layer whose row of evaluations against
the family is ghost.  That row is the same combination of the Gram
rows, so ``matrices._first_annihilated`` searches the coefficient grid
(absent, or a tangible or ghost value from the Gram entry differences
with a sentinel) depth first on values and ghost flags, and only the
combination it finds is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .dependence import is_dependent
from .exceptions import DegenerateSpaceError, InvalidInputError, ShapeError
from .matrices import (
    Mat,
    Vec,
    _combine,
    _dot_value_ghost,
    _family,
    _first_annihilated,
    is_nonsingular,
    permanent,
)
from .scalars import ONE, tangible

__all__ = [
    "GramForm",
    "SymmetryVerdict",
    "gram_of_dot",
    "gram_of_form",
    "evaluate",
    "is_g_orthogonal",
    "orthogonal_complement_pred",
    "radical_and_nondegenerate",
    "gram_dependence",
    "is_orthogonal_symmetric",
    "is_supertropically_symmetric",
    "isotropy",
]


@dataclass(frozen=True)
class GramForm:
    """A strict bilinear form, fixed by its Gram matrix."""

    G: Mat

    def __post_init__(self):
        if not isinstance(self.G, Mat):
            raise TypeError(f"expected a Mat, got {type(self.G).__name__}")
        if not self.G.is_square():
            raise ShapeError("Gram matrix must be square")

    @property
    def arity(self):
        return self.G.rows


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of a symmetry search.

    ``witness`` is a violating argument pair when ``consistent`` is
    False.  ``grid_complete`` records that the deterministic grid was
    enumerated in full; ``samples`` counts the extra random pairs tried.
    """

    consistent: bool
    witness: tuple | None
    grid_complete: bool
    samples: int


def gram_of_dot(W):
    """Gram matrix of a family under the tropical dot product."""
    W = _family(W)
    return GramForm(Mat([[v.dot(w) for w in W] for v in W]))


def gram_of_form(F, W):
    """Gram matrix of a family of coefficient vectors under an ambient
    form."""
    return GramForm(
        Mat([[evaluate(F, v, w) for w in W] for v in W])
    )


def evaluate(F, x, y):
    """x' G y."""
    G = F.G
    if x.dim != G.rows or y.dim != G.cols:
        raise ShapeError("coefficient vectors do not match the form")
    return x.dot(G.apply(y))


def is_g_orthogonal(F, x, y):
    """Whether the evaluation lands in the ghost-or-zero layer.  The
    relation is directional: check both orders if you need both."""
    return evaluate(F, x, y).is_ghost0()


def orthogonal_complement_pred(F, S, side="left"):
    """Predicate for the ghost-orthogonal complement of a family.

    With ``side="left"`` the tested vector is the left argument against
    every member of S; ``side="right"`` puts it on the right.
    """
    S = list(S)
    if side not in ("left", "right"):
        raise InvalidInputError("side must be 'left' or 'right'")

    def in_complement(v):
        if side == "left":
            return all(is_g_orthogonal(F, v, s) for s in S)
        return all(is_g_orthogonal(F, s, v) for s in S)

    return in_complement


def radical_and_nondegenerate(F):
    """Membership predicate for the radical together with the
    nondegeneracy verdict.

    A vector is in the radical exactly when its row of evaluations is
    ghost everywhere, i.e. when the transposed Gram matrix annihilates
    it.  Nondegeneracy for a strict form is the tangibility of the Gram
    permanent.
    """
    G = F.G
    Gt = G.transpose()

    def in_radical(x):
        return Gt.apply(x).is_ghost()

    return in_radical, is_nonsingular(G)


def _grid_radical_witness(W, gram):
    """A combination of W outside the ghost layer that the form
    annihilates against every member, read off its Gram matrix ``gram``
    on W: the first in grid order, searched on the Gram rows (module
    docstring), or None when the grid holds none."""
    nz = [x.value for r in gram.row_tuples for x in r if not x.is_zero()]
    vals = {0} | {a - b for a in nz for b in nz}
    vals.add(min(vals) - 1)
    tags = _first_annihilated(sorted(vals), W, gram.row_tuples)
    return None if tags is None else _combine(tags, W)


def gram_dependence(W, F, strict=False):
    """Dependence of a family read off its Gram permanent.

    A tangible Gram permanent means independence: returns None.  A ghost
    permanent should force a dependence witness when the spanned
    subspace is nondegenerate; the witness is searched for and returned.
    When no witness exists the precondition is checked on the
    coefficient grid, and a degenerate span raises DegenerateSpaceError
    (that is the only way the implication can fail).  With ``strict``
    the precondition is checked up front.
    """
    W = _family(W)
    gram = gram_of_form(F, W).G
    if strict:
        bad = _grid_radical_witness(W, gram)
        if bad is not None:
            raise DegenerateSpaceError(
                f"span has a non-ghost radical element {bad}"
            )
    if permanent(gram).is_tangible():
        return None
    witness = is_dependent(W)
    if witness is not None:
        return witness
    bad = _grid_radical_witness(W, gram)
    if bad is not None:
        raise DegenerateSpaceError(
            "ghost Gram permanent without dependence: span is degenerate, "
            f"radical element {bad}"
        )
    raise AssertionError(
        "ghost Gram permanent, independent family, nondegenerate span: "
        "this should be impossible"
    )


# -- symmetry searches -------------------------------------------------


def _entry_diff_values(G):
    vals = set()
    entries = [
        G.entry(i, j)
        for i in range(G.rows)
        for j in range(G.cols)
        if not G.entry(i, j).is_zero()
    ]
    for x in entries:
        vals.add(x.value)
        for y in entries:
            vals.add(x.value - y.value)
    if not vals:
        vals.add(0)
    vals.add(min(vals) - 1)
    return sorted(vals)


def _candidate_args(G, rng, budget):
    """Deterministic grid of tangible arguments with unit first
    coordinate, then seeded random tangible arguments."""
    n = G.rows
    vals = _entry_diff_values(G)
    args = [
        Vec([ONE] + [tangible(v) for v in rest])
        for rest in product(vals, repeat=n - 1)
    ]
    return args, _random_args(n, vals, rng, budget)


def _random_args(n, vals, rng, budget):
    """``budget`` seeded random tangible arguments with unit first
    coordinate, drawn two beyond the ends of the value grid ``vals``."""
    lo = int(vals[0] - 2)
    hi = int(vals[-1] + 2)
    return [
        Vec([ONE] + [tangible(rng.randint(lo, hi)) for _ in range(n - 1)])
        for _ in range(budget)
    ]


def _symmetry_scan(F, budget, rng, require_nu_match):
    if budget < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget}")
    G = F.G
    n = G.rows
    # entry-level fast path: one-sided ghostness between opposite
    # entries is already a violation on unit vectors
    for i in range(n):
        for j in range(n):
            a, b = G.entry(i, j), G.entry(j, i)
            if a.is_ghost0() != b.is_ghost0() or (
                require_nu_match and not a.is_ghost0() and a.value != b.value
            ):
                unit = Mat.identity(n)
                return SymmetryVerdict(False, (unit.row(i), unit.row(j)), True, 0)
    if budget and rng is None:
        rng = random.Random(0)
    Gt = G.transpose()
    if G == Gt:
        # x'Gy and y'Gx are the same sum of terms, so no pair can differ
        # and the grid is never built; the samples are still drawn, so
        # the caller's rng ends the same
        extra = _random_args(n, _entry_diff_values(G), rng, budget) if budget else []
        return SymmetryVerdict(True, None, True, len(extra))
    grid, extra = _candidate_args(G, rng, budget)
    allargs = grid + extra
    # each argument x with its row x'G, so that both evaluation orders of
    # a pair reduce to one dot product each; the pair loop reads tuples
    args = [x.entries for x in allargs]
    left = [Gt.apply(x).entries for x in allargs]
    m = len(args)
    for ai in range(m):
        la = left[ai]
        xa = args[ai]
        for bi in range(ai, m):
            v1, g1 = _dot_value_ghost(la, args[bi])
            v2, g2 = _dot_value_ghost(left[bi], xa)
            if (
                (v1 is None) != (v2 is None)
                or g1 != g2
                or (require_nu_match and not g1 and v1 != v2)
            ):
                return SymmetryVerdict(
                    False, (allargs[ai], allargs[bi]), bi < len(grid), len(extra)
                )
    return SymmetryVerdict(True, None, True, len(extra))


def is_orthogonal_symmetric(F, budget=0, rng=None):
    """Search for arguments whose two evaluation orders disagree about
    ghostness.  Consistency is relative to the searched grid plus the
    random budget; a negative budget is an ``InvalidInputError``."""
    return _symmetry_scan(F, budget, rng, require_nu_match=False)


def is_supertropically_symmetric(F, budget=0, rng=None):
    """Orthogonal symmetry plus value agreement on tangible pairs."""
    return _symmetry_scan(F, budget, rng, require_nu_match=True)


def isotropy(F, x):
    """Classify the self-evaluation: ``"nonisotropic"`` for a tangible
    value, ``"isotropic"`` for nonzero ghost, ``"strictly_isotropic"``
    for zero."""
    v = evaluate(F, x, x)
    if v.is_zero():
        return "strictly_isotropic"
    if v.is_tangible():
        return "nonisotropic"
    return "isotropic"
