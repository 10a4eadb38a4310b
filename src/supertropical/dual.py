"""Closed bases, dual functionals, ghost kernels, and the double dual.

A base given as matrix rows is closed when multiplying by its own
quasi-identity changes nothing.  Closing a base replaces A by I_A A.
The dual base consists of row functionals read off the twisted inverse
nabla(A) A nabla(A); evaluating them against the columns of A produces
the unit on the diagonal and ghost-or-zero off it, which is exactly the
entry pattern of the second quasi-identity nabla(A) A.

The reconstruction identity A (nabla(A) A nabla(A)) v = v holds for
every fixed point v of the quasi-identity, and membership in the closed
span is tested through that fixed-point equation.

Ghost monicity asks for a combination of the samples outside the ghost
layer that the map sends into it.  The map distributes over sums, so
the image of a combination is the same combination of the samples'
images, and ``matrices._first_annihilated`` searches the coefficient
grid depth first on those images instead of applying the map to every
combination.

``close_base``, ``dual_base`` and ``reconstruct`` all need nabla of a
base's row matrix, and a closed base usually goes through all three:
``close_base`` returns its rows, and ``dual_base`` and ``reconstruct``
take them back.  A matrix keeps its nabla, but only on that object, so
the row matrix of a base is looked up in a small bounded cache keyed by
the base's row tuples (``_row_matrix``), and ``close_base`` passes its
product through the same cache.  Scalar values are canonical (an int
whenever the denominator is 1), so equal rows make identical matrices
and identical results, and each distinct base solves its assignment
once while it stays among the most recently used.  Errors are raised
before anything is kept, on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dependence import max_rank
from .exceptions import (
    InvalidInputError,
    NotInClosedSpanError,
    ShapeError,
)
from .matrices import Mat, Vec, _entries, _first_annihilated, _mat, nabla

__all__ = [
    "Functional",
    "MapByMatrix",
    "close_base",
    "dual_base",
    "reconstruct",
    "ghost_kernel",
    "is_ghost_monic",
    "is_tropically_onto",
    "is_iso",
    "double_dual",
]


@dataclass(frozen=True)
class Functional:
    """A linear functional represented strictly by its covector row."""

    covector: Vec

    def __call__(self, v):
        """The functional at a Vec or a sequence of Scalars."""
        return self.covector.dot(v)

    def __str__(self):
        return str(self.covector)


@dataclass(frozen=True)
class MapByMatrix:
    """The map v -> M v for a fixed matrix M."""

    matrix: Mat

    def __call__(self, v):
        return self.matrix.apply(v)

    @property
    def source_dim(self):
        return self.matrix.cols

    @property
    def target_dim(self):
        return self.matrix.rows


def _as_mat(M):
    return M.matrix if isinstance(M, MapByMatrix) else M


def _row_matrix(B):
    """The square row matrix of the base B, shared by equal bases."""
    B = list(B)
    if not B:
        raise InvalidInputError("empty base")
    A = Mat([v.entries for v in B])
    if not A.is_square():
        raise InvalidInputError(
            "a base of the full space must be square as a row matrix"
        )
    return _shared(A.row_tuples)


@lru_cache(maxsize=8)
def _shared(rows):
    """The one matrix of the checked square ``rows`` among the recently
    used, which keeps its nabla for the next call on equal rows."""
    return _mat(rows)


def close_base(B):
    """Close a d-base: multiply its row matrix by the quasi-identity.

    Returns the closed row matrix together with its rows.  Raises
    SingularMatrixError when the base is not independent enough to have
    a tangible permanent.
    """
    A = _row_matrix(B)
    A_B = _shared((A @ nabla(A) @ A).row_tuples)
    if A_B @ nabla(A_B) @ A_B != A_B:
        raise AssertionError("closure is not a fixed point of its own quasi-identity")
    return A_B, A_B.row_list()


def dual_base(B):
    """Dual functionals of a closed base.

    The i-th functional is the i-th row of nabla(A) A nabla(A).  Against
    the columns of A these rows evaluate to the unit on the diagonal and
    ghost or zero elsewhere; both facts are asserted here.
    """
    A = _row_matrix(B)
    nb = nabla(A)
    # P = nabla(A) A serves both the closedness test, A P = A, and E.
    P = nb @ A
    if A @ P != A:
        raise InvalidInputError("base is not closed; run close_base first")
    E = P @ nb
    # Functional i evaluated on column j of A is entry (i, j) of E A.
    for i, evals in enumerate((E @ A).row_tuples):
        for j, val in enumerate(evals):
            if i == j:
                if not val.is_tangible0():
                    raise AssertionError(
                        f"functional {i} does not evaluate to the unit on its own vector"
                    )
            elif not val.is_ghost0():
                raise AssertionError(
                    f"functional {i} is tangible on foreign vector {j}"
                )
    return [Functional(row) for row in E.row_list()]


def reconstruct(B, v):
    """Rebuild a member of the closed span, given as a Vec or a sequence
    of Scalars, from its dual evaluations.

    Checks membership through the fixed-point equation of the
    quasi-identity and raises NotInClosedSpanError otherwise; a fixed
    point is its own reconstruction.  The factors are applied to v one
    at a time, which gives the same vectors as the matrix products by
    associativity.
    """
    A = _row_matrix(B)
    ve = _entries(v)
    if len(ve) != A.cols:
        raise ShapeError("vector dimension does not match the base")
    w = A.apply(nabla(A).apply(ve))
    if w.entries != ve:
        raise NotInClosedSpanError(
            "vector is not a fixed point of the quasi-identity"
        )
    return w


def ghost_kernel(M):
    """Predicate for vectors whose image lies entirely in the ghost or
    zero layer."""
    mat = _as_mat(M)

    def in_kernel(v):
        return mat.apply(v).is_ghost()

    return in_kernel


def _combination_grid(generators, extra_rows):
    """Coefficient value grid for combinations of the generators:
    column-wise entry differences across all supplied rows, closed once
    under chaining, with a sentinel strictly below everything."""
    vals = {0}
    rows = [list(g) for g in generators] + [list(r) for r in extra_rows]
    diffs = set()
    for j in range(len(rows[0])):
        col = [r[j].value for r in rows if not r[j].is_zero()]
        for a in col:
            for b in col:
                diffs.add(a - b)
    vals |= diffs
    for d in list(diffs):
        vals |= {v + d for v in list(vals)}
    vals.add(min(vals) - 1)
    return sorted(vals)


def is_ghost_monic(M, sample_space):
    """Whether the ghost kernel meets the span of the samples only in
    the ghost submodule.

    Decided on a finite coefficient grid (entry differences, one round
    of chaining, a sentinel, tangible and ghost layers per generator),
    so the verdict is exact on that grid and conservative beyond it.
    The grid is searched on the images of the generators (module
    docstring).
    """
    mat = _as_mat(M)
    gens = list(sample_space)
    if not gens:
        raise InvalidInputError("need at least one sample generator")
    for g in gens:
        if g.dim != mat.cols:
            raise ShapeError("sample dimension does not match the map")
    values = _combination_grid(gens, mat.row_list())
    return _first_annihilated(values, gens, [mat.apply(g) for g in gens]) is None


def is_tropically_onto(M, target_rank, generators=None):
    """Whether the images of the source generators reach the stated
    rank.  Defaults to the standard base of the source."""
    mat = _as_mat(M)
    if generators is None:
        cols = [mat.col(j) for j in range(mat.cols)]
    else:
        cols = [mat.apply(g) for g in generators]
    return max_rank(cols) == target_rank


def is_iso(M, sample_space=None, target_rank=None):
    """Ghost monic and tropically onto together."""
    mat = _as_mat(M)
    if sample_space is None:
        sample_space = Mat.identity(mat.cols).row_list()
    if target_rank is None:
        target_rank = mat.rows
    return is_ghost_monic(mat, sample_space) and is_tropically_onto(
        mat, target_rank
    )


def double_dual(B, v):
    """Evaluation vector of v, a Vec or a sequence of Scalars, against
    the dual base: component i is the i-th dual functional applied to v."""
    eps = dual_base(B)
    return Vec([e(v) for e in eps])
