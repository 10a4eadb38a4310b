"""Vectors, matrices and the permanent-based determinant theory.

Everything here is dense and exact.  A matrix is a grid of
:class:`~supertropical.scalars.Scalar`; the determinant of this theory is the
permanent (no signs exist in a semiring), and a square matrix counts as
nonsingular exactly when its permanent is tangible.  From the permanent we
get the adjoint (transposed grid of minors), the scaled adjoint ``nabla``,
and the pair of quasi-identities ``A @ nabla(A)`` and ``nabla(A) @ A`` that
stand in for the identity matrix in cancellation arguments.

The permanent has one route per size.  Sizes 2 to 4 work on the values
and ghost flags of the entries, like the product kernel below, and
build one Scalar: sizes 2 and 3 loop over unrolled lists of their terms,
and size 4 walks a table of its 24 permutations built at import.  From
size 5 on, an exact optimal-assignment solver, ``_assign``, finds the
value in ``O(n^3)``; at size 5 a table walk of 120 terms gained little
on integer entries and was about three times slower with halves.  The
solver follows Jonker and Volgenant, in int and Fraction arithmetic:
column reduction matches most rows at once, and each row left free
gets one Dijkstra for its shortest augmenting path, after which only
the columns that search settled move their potential.  Its callers
read one invariant of the row potentials u and column potentials v:
``u[r] + v[c] <= cost[r][c]`` for every entry, with equality on the
optimal permutation.  The layer comes from the same run: the result is
tangible exactly when the optimal permutation uses only tangible
entries and is the only optimal one.  Every optimal permutation uses
only tight edges, where the potentials sum to the weight, under every
such pair of potentials, so a second one exists exactly when the tight
edges off the optimal permutation close a cycle.

Products go through one kernel, ``_dot_value_ghost``, which works on the
values and ghost flags of the entries and builds no Scalar: the result
is the largest sum of two values, ghost when a ghost term reaches it or
two terms tie at it, and zero when no term is finite.  ``_dot`` makes
the one Scalar of an output entry from it, with a Fraction of
denominator 1 turned into an int as in Scalar multiplication.
``Mat @ Mat``, ``Mat.apply`` and ``Vec.dot`` use ``_dot``, and the
symmetry scan of :mod:`supertropical.bilinear` uses the kernel itself.
Results the library built itself become a Mat or Vec through ``_mat``
and ``_vec``, which skip the entry checks of the public constructors.

``_first_annihilated`` is the coefficient-grid search behind the
radical check of :mod:`supertropical.bilinear` and
:func:`supertropical.dual.is_ghost_monic`: the first tag tuple, in
``product`` order, whose combination of one family lies outside the
ghost layer while the same combination of a second family (the images
of the first) lies inside it.  It walks the members depth first and
keeps both sums as value and ghost-flag lists, folded in by ``_fold``
as the chain-grid search of :mod:`supertropical.dependence` does, and
drops a prefix whose second sum has a tangible coordinate that no later
member can reach.  Only the caller's one hit becomes Scalars.

``adjoint``, ``nabla`` and ``quasi_identity`` get the permanent and the
adjoint from one helper, ``_perm_adjoint``.  From size 5 on it solves
one assignment: every minor and, for nabla, the permanent's cycle test
come from it, and nabla's entries are built already divided by the
permanent.  The cycle test peels the tight graph over rows, and its
order, relabelled to columns, is the one the minors' layers need, so
nabla peels that graph once.  ``adjoint`` does not read the permanent,
so it skips the permanent's cycle test and peels the graph itself.  A
cycle there means a tied whole optimum, which only ``adjoint`` meets
(``nabla`` stops at the ghost permanent): each minor is then a
permanent of its own, as below size 5, so from size 6 on a tied
adjoint solves n^2 assignments of size n - 1.

``adjoint`` and ``nabla`` are computed once per matrix: the first call
that succeeds keeps its result on the matrix, in the slots ``_adj`` and
``_nb``, so that later calls on the same object solve no assignment
again, and neither do ``quasi_identity``, ``solve_raw`` and
``solve_max``, which read nabla.  A ``nabla`` call that finds a kept
adjoint solves none either: the permanent is the Laplace expansion of
the matrix along row 0 against column 0 of the adjoint, as for the
sizes below 5, and nabla is the adjoint divided by it.  A singular
matrix raises on every ``nabla`` call and keeps no nabla, matrices built
by ``_mat`` start with neither slot set, and nothing here is keyed by
content: an equal matrix built apart computes its own.  Only
:mod:`supertropical.dual` shares one matrix among equal bases.

The minor without row j and column i flips a shortest path that starts
at the row matched to column i and ends at the column s matched to row
j, so one Dijkstra per column i gives every minor's value.  Its layer
comes from the same pass, since the whole optimum is unique: a second
optimum of the minor differs from the flipped matching by one
alternating path plus cycles, and every cycle costs more, so the minor
is tied exactly when two shortest paths reach s.  The Dijkstra counts
the paths as it settles the columns, capped at 2, and sums the change in
ghost and zero entries along the path down the shortest-path tree.  Its
unsettled columns stay in a topological order of the zero-cost edges,
which can join columns at equal distance, so a column is settled after
every column on a shortest path to it, and its count is final by then.
"""

from __future__ import annotations

from itertools import permutations

from .exceptions import InvalidInputError, ShapeError, SingularMatrixError
from .scalars import ONE, ZERO, Scalar, _made

_new = object.__new__

__all__ = [
    "Vec",
    "Mat",
    "permanent",
    "is_nonsingular",
    "adjoint",
    "nabla",
    "quasi_identity",
    "g_annihilates",
    "ann_membership",
    "solve_max",
    "solve_raw",
    "surpasses_vec",
    "geq_nu_vec",
]


def _dot_value_ghost(row, col):
    """Value and ghost flag of the max-plus dot product of two scalar
    sequences, without building a Scalar: the largest ``a + b`` of the
    values, ghost when a ghost term reaches it or two terms tie at it;
    ``(None, False)`` when no term is finite."""
    best = None
    ghost = False
    for a, b in zip(row, col):
        av = a._v
        bv = b._v
        if av is None or bv is None:
            continue
        v = av + bv
        if best is None or v > best:
            best = v
            ghost = a._g or b._g
        elif v == best:
            ghost = True
    return best, ghost


def _dot(row, col):
    """The max-plus dot product of two scalar sequences of equal length."""
    v, g = _dot_value_ghost(row, col)
    return ZERO if v is None else _made(v, g)


def _as_scalar_tuple(entries):
    t = tuple(entries)
    for x in t:
        if not isinstance(x, Scalar):
            raise TypeError(f"expected Scalar entries, got {type(x).__name__}")
    return t


def _entries(v):
    """The entries of a Vec, or of a sequence of Scalars, checked."""
    return v._e if isinstance(v, Vec) else _as_scalar_tuple(v)


def _vec(entries):
    """A Vec of a nonempty scalar tuple the library built itself, unchecked."""
    w = _new(Vec)
    w._e = entries
    return w


def _mat(rows):
    """A Mat of nonempty, equally long scalar row tuples the library built
    itself, unchecked."""
    m = _new(Mat)
    m._r = rows
    m._shape = (len(rows), len(rows[0]))
    return m


class Vec:
    """An immutable dense vector of scalars."""

    __slots__ = ("_e",)

    def __init__(self, entries):
        self._e = _as_scalar_tuple(entries)
        if not self._e:
            raise ShapeError("vectors must have at least one entry")

    @property
    def dim(self):
        return len(self._e)

    @property
    def entries(self):
        return self._e

    def __len__(self):
        return len(self._e)

    def __iter__(self):
        return iter(self._e)

    def __getitem__(self, i):
        return self._e[i]

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        if len(self._e) != len(other._e):
            raise ShapeError("vector dimensions differ")
        return Vec(a + b for a, b in zip(self._e, other._e))

    def __rmul__(self, alpha):
        if not isinstance(alpha, Scalar):
            return NotImplemented
        return self.scale(alpha)

    def scale(self, alpha):
        return _vec(tuple([alpha * x for x in self._e]))

    def _matched(self, other):
        """The entries of ``other``, a Vec or a sequence of Scalars,
        checked to be as many as this vector's."""
        oe = _entries(other)
        if len(self._e) != len(oe):
            raise ShapeError("vector dimensions differ")
        return oe

    def dot(self, other):
        """Max-plus dot product with a Vec or a sequence of Scalars."""
        return _dot(self._e, self._matched(other))

    def nu(self):
        return Vec(x.nu() for x in self._e)

    def nu_hat(self):
        return Vec(x.nu_hat() for x in self._e)

    def is_zero(self):
        return all(x.is_zero() for x in self._e)

    def is_tangible(self):
        """Every entry tangible or zero."""
        return all(x.is_tangible0() for x in self._e)

    def is_ghost(self):
        """Every entry ghost or zero, i.e. the vector is zero-like."""
        return all(x.is_ghost0() for x in self._e)

    def support(self):
        """Indices of the nonzero entries."""
        return tuple(i for i, x in enumerate(self._e) if not x.is_zero())

    def surpasses(self, other):
        """Componentwise ghost surpassing of a Vec or a sequence of Scalars."""
        return all(a.ghost_surpasses(b) for a, b in zip(self._e, self._matched(other)))

    def nu_ge(self, other):
        return all(a.nu_ge(b) for a, b in zip(self._e, self._matched(other)))

    def nu_le(self, other):
        return all(a.nu_le(b) for a, b in zip(self._e, self._matched(other)))

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __str__(self):
        return " ".join(str(x) for x in self._e)

    def __repr__(self):
        return f"Vec({self})"


class Mat:
    """An immutable dense matrix of scalars, stored as row tuples.

    ``_adj`` and ``_nb`` hold ``adjoint`` and ``nabla`` of the matrix once
    they have been computed; each stays unset until then, and ``_nb`` for
    a singular matrix."""

    __slots__ = ("_r", "_shape", "_adj", "_nb")

    def __init__(self, rows):
        grid = []
        for r in rows:
            if isinstance(r, Vec):
                grid.append(r.entries)
            else:
                grid.append(_as_scalar_tuple(r))
        if not grid:
            raise ShapeError("matrices must have at least one row")
        width = len(grid[0])
        if width == 0:
            raise ShapeError("matrices must have at least one column")
        for r in grid:
            if len(r) != width:
                raise ShapeError("ragged rows")
        self._r = tuple(grid)
        self._shape = (len(grid), width)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls.diagonal([ONE] * n)

    @classmethod
    def diagonal(cls, scalars):
        scalars = list(scalars)
        n = len(scalars)
        return cls(
            [[scalars[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_cols(cls, cols):
        cols = [c.entries if isinstance(c, Vec) else _as_scalar_tuple(c) for c in cols]
        if not cols:
            raise ShapeError("need at least one column")
        if len({len(c) for c in cols}) > 1:
            raise ShapeError("ragged columns")
        return cls(list(zip(*cols)))

    # -- shape and access ----------------------------------------------

    @property
    def rows(self):
        return self._shape[0]

    @property
    def cols(self):
        return self._shape[1]

    @property
    def shape(self):
        return self._shape

    @property
    def row_tuples(self):
        return self._r

    def entry(self, i, j):
        return self._r[i][j]

    def row(self, i):
        return _vec(self._r[i])

    def col(self, j):
        return _vec(tuple([r[j] for r in self._r]))

    def row_list(self):
        return [_vec(r) for r in self._r]

    def col_list(self):
        return [self.col(j) for j in range(self.cols)]

    def is_square(self):
        return self._shape[0] == self._shape[1]

    def submatrix(self, row_idx, col_idx):
        return Mat([[self._r[i][j] for j in col_idx] for i in row_idx])

    def transpose(self):
        return _mat(tuple(zip(*self._r)))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self._shape != other._shape:
            raise ShapeError("matrix shapes differ")
        return Mat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._r, other._r)
            ]
        )

    def __matmul__(self, other):
        if isinstance(other, Vec):
            return self.apply(other)
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self._shape} by {other._shape}"
            )
        bt = tuple(zip(*other._r))
        return _mat(tuple([tuple([_dot(ra, cb) for cb in bt]) for ra in self._r]))

    def __rmul__(self, alpha):
        if not isinstance(alpha, Scalar):
            return NotImplemented
        return self.scale(alpha)

    def scale(self, alpha):
        return _mat(tuple([tuple([alpha * x for x in r]) for r in self._r]))

    def apply(self, v):
        """Matrix times column vector: a Vec or a sequence of Scalars."""
        ve = _entries(v)
        if self.cols != len(ve):
            raise ShapeError(f"cannot apply {self._shape} to a {len(ve)}-vector")
        return _vec(tuple([_dot(r, ve) for r in self._r]))

    def nu(self):
        return Mat([[x.nu() for x in r] for r in self._r])

    def nu_hat(self):
        return Mat([[x.nu_hat() for x in r] for r in self._r])

    def is_ghost(self):
        return all(x.is_ghost0() for r in self._r for x in r)

    def surpasses(self, other):
        """Entrywise ghost surpassing of another Mat."""
        if not isinstance(other, Mat):
            raise TypeError(f"expected a Mat, got {type(other).__name__}")
        if self._shape != other._shape:
            raise ShapeError("matrix shapes differ")
        return all(
            a.ghost_surpasses(b)
            for ra, rb in zip(self._r, other._r)
            for a, b in zip(ra, rb)
        )

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._r == other._r

    def __hash__(self):
        return hash(self._r)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self._r)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self._r)
        return f"Mat[{body}]"


# -- families and combinations -----------------------------------------


def _family(S, *targets):
    """``list(S)``, checked to be nonempty and of one dimension, which
    every target other than ``None`` must share."""
    S = list(S)
    if not S:
        raise InvalidInputError("empty family")
    n = len(S[0]._e)
    for w in (*S, *targets):
        if w is not None and len(w._e) != n:
            raise ShapeError("mixed dimensions")
    return S


def _combine(coeffs, vectors, start=None):
    """``start`` (zero by default) plus the sum of ``coeffs[i] * vectors[i]``.

    ``None`` and zero coefficients leave their vector out.  Only ``start``
    is checked against the first vector's dimension.
    """
    if len(coeffs) != len(vectors):
        raise ShapeError("coefficient count does not match the family")
    n = len(vectors[0]._e)
    acc = [ZERO] * n if start is None else list(start)
    if len(acc) != n:
        raise ShapeError("start vector dimension does not match the family")
    for c, w in zip(coeffs, vectors):
        if c is None or c.is_zero():
            continue
        for j, x in enumerate(w.entries):
            acc[j] = acc[j] + c * x
    return Vec(acc)


def _fold(row, grow, c, mx, gh):
    """New lists of the sum ``mx``/``gh`` (values and ghost flags) with a
    member's terms at value c added: its entry values ``row`` raised by
    c, ghost where ``grow`` says so."""
    mx, gh = mx[:], gh[:]
    for j, x in enumerate(row):
        if x is not None:
            x += c
            if mx[j] is None or x >= mx[j]:
                gh[j] = x == mx[j] or grow[j]
                mx[j] = x
    return mx, gh


def _first_annihilated(values, xs, ys):
    """The first tag tuple that combines ``xs`` into a vector outside the
    ghost layer and ``ys`` into one inside it, or None.

    Tags run in the order of ``product(*options)`` with the options
    ``[None] + [tangible(c) for c in values] + [ghost(c) for c in
    values]`` per member (``values`` sorted; None leaves the member
    out), and a tuple's two combinations are the sums of its tags times
    ``xs[i]`` and times ``ys[i]``.  The all-absent tuple sums to zero,
    which is ghost, so a hit uses at least one member.  The search is
    depth first over the members, in that order, keeping both sums as
    value and ghost-flag lists, so its first hit is the grid's.  A
    prefix is dropped when its y-sum has a tangible coordinate above the
    reach of every later member there (its entry plus the largest
    value): that coordinate stays tangible."""
    k = len(ys)
    top = values[-1]
    xrows = [[x._v for x in w] for w in xs]
    xflags = [[x._g for x in w] for w in xs]
    yrows = [[y._v for y in w] for w in ys]
    yflags = [[y._g for y in w] for w in ys]
    # reach[i][j]: the largest term members i.. can put at y coordinate j
    reach = [[None] * len(yrows[0])]
    for row in reversed(yrows):
        reach.append([r if a is None else a + top if r is None else max(r, a + top)
                      for a, r in zip(row, reach[-1])])
    reach.reverse()
    options = [(c, False) for c in values] + [(c, True) for c in values]

    def walk(i, xm, xg, ym, yg):
        # xm/xg and ym/yg: the sums of the members before i
        if i == k:
            for m, g in zip(xm, xg):
                if m is not None and not g:
                    return []
            return None
        after = reach[i + 1]
        found = walk(i + 1, xm, xg, ym, yg) if _open(ym, yg, after) else None
        if found is not None:
            return [None, *found]
        xrow, yrow = xrows[i], yrows[i]
        xall, yall = [True] * len(xrow), [True] * len(yrow)
        for c, g in options:
            pym, pyg = _fold(yrow, yall if g else yflags[i], c, ym, yg)
            if not _open(pym, pyg, after):
                continue
            pxm, pxg = _fold(xrow, xall if g else xflags[i], c, xm, xg)
            found = walk(i + 1, pxm, pxg, pym, pyg)
            if found is not None:
                return [Scalar(c, g), *found]
        return None

    return walk(0, [None] * len(xrows[0]), [False] * len(xrows[0]),
                [None] * len(yrows[0]), [False] * len(yrows[0]))


def _open(mx, gh, reach):
    """Whether the sum ``mx``/``gh`` can still end ghost or zero: no
    tangible coordinate lies above what later terms can reach there."""
    for m, g, r in zip(mx, gh, reach):
        if m is not None and not g and (r is None or m > r):
            return False
    return True


# -- permanents ---------------------------------------------------------


def _perm2(r0, r1):
    """The 2x2 permanent on values and ghost flags, term by term as in
    ``_dot_value_ghost``: a term through a zero entry is skipped, the
    best term is ghost when one of its entries is, and a tie at the
    maximum is ghost."""
    (a, b), (c, d) = r0, r1
    best = None
    ghost = False
    for x, y in ((a, d), (b, c)):
        xv, yv = x._v, y._v
        if xv is None or yv is None:
            continue
        v = xv + yv
        if best is None or v > best:
            best = v
            ghost = x._g or y._g
        elif v == best:
            ghost = True
    return ZERO if best is None else _made(best, ghost)


def _perm3(r0, r1, r2):
    """The 3x3 permanent, as ``_perm2`` over its six terms."""
    (a, b, c), (d, e, f), (g, h, i) = r0, r1, r2
    best = None
    ghost = False
    for x, y, z in ((a, e, i), (a, f, h), (b, d, i), (b, f, g), (c, d, h), (c, e, g)):
        xv, yv, zv = x._v, y._v, z._v
        if xv is None or yv is None or zv is None:
            continue
        v = xv + yv + zv
        if best is None or v > best:
            best = v
            ghost = x._g or y._g or z._g
        elif v == best:
            ghost = True
    return ZERO if best is None else _made(best, ghost)


# The 24 permutations of size 4 as positions in the row-major entries.
_PERMS4 = tuple(
    tuple(4 * r + c for r, c in enumerate(p)) for p in permutations(range(4))
)


def _perm4(r0, r1, r2, r3):
    """The 4x4 permanent, as ``_perm3`` but over the table ``_PERMS4``."""
    flat = r0 + r1 + r2 + r3
    vals = [x._v for x in flat]
    best = None
    ghost = False
    for i, j, k, l in _PERMS4:
        a, b, c, d = vals[i], vals[j], vals[k], vals[l]
        if a is None or b is None or c is None or d is None:
            continue
        v = a + b + c + d
        if best is None or v > best:
            best = v
            ghost = flat[i]._g or flat[j]._g or flat[k]._g or flat[l]._g
        elif v == best:
            ghost = True
    return ZERO if best is None else _made(best, ghost)


def _assign(rows):
    """``(hi, big, cost, u, v, p)`` for an optimal assignment of ``rows``,
    0-based, or None when no entry is finite: ``cost = hi - weight``, and
    ``big`` for a zero entry; potentials with ``u[r] + v[c] <= cost[r][c]``
    everywhere, equal on the matching; p[c], the row matched to column c.

    The scheme is Jonker and Volgenant's: column reduction matches most
    rows, and one Dijkstra per row left free finds its shortest
    augmenting path, after which only the columns it settled move their
    potential."""
    n = len(rows)
    finite = [x._v for r in rows for x in r if x._v is not None]
    if not finite:
        return None
    # A zero entry costs more than any permutation of finite entries, so
    # an optimum uses one only when it must.
    hi = max(finite)
    big = n * (hi - min(finite)) + 1
    cost = [[big if x._v is None else hi - x._v for x in r] for r in rows]

    # Column reduction: v[c] is the least cost in column c, and the first
    # row that reaches it takes c if that row is still free.  From here
    # on the column x[r] of a matched row r has the least reduced cost
    # cost[r][c] - v[c] of the row, so u[r] below is feasible and tight.
    v = []
    x = [-1] * n  # x[r]: the column matched to row r, -1 while free
    p = [-1] * n
    for c, col in enumerate(zip(*cost)):
        w = min(col)
        v.append(w)
        r = col.index(w)
        if x[r] < 0:
            x[r] = c
            p[c] = r
    for f in range(n):
        if x[f] >= 0:
            continue
        # Dijkstra from row f over the columns: d[c] is the length of a
        # path to column c, whose last edge leaves row pred[c]; an edge
        # from row r, matched to column x[r], to column k costs
        # (cost[r][k] - v[k]) - (cost[r][x[r]] - v[x[r]]) >= 0.  Each
        # step settles the nearest column, a free one first among ties,
        # and the search stops at the first free column it settles.
        d = [w - vc for w, vc in zip(cost[f], v)]
        pred = [f] * n
        todo = list(range(n))
        done = []
        while True:
            low = min([d[k] for k in todo])
            for k in todo:
                if d[k] == low:
                    c = k
                    if p[k] < 0:
                        break
            r = p[c]
            if r < 0:
                break
            todo.remove(c)
            done.append(c)
            cr = cost[r]
            h = low - cr[c] + v[c]
            for k in todo:
                t = h + cr[k] - v[k]
                if t < d[k]:
                    d[k] = t
                    pred[k] = r
        # Lower the settled columns' potentials by how much nearer than
        # the free column they lie: every edge on the path becomes tight
        # and none turns negative.  Then flip the path.
        for k in done:
            v[k] += d[k] - low
        while r != f:
            r = pred[c]
            p[c] = r
            x[r], c = c, x[r]
    u = [cost[r][c] - v[c] for r, c in enumerate(x)]
    return hi, big, cost, u, v, p


def _peel(succ):
    """A topological order of the digraph with successor lists ``succ``,
    or None when it has a cycle: peel off nodes of in-degree zero until
    none is left."""
    indeg = [0] * len(succ)
    for out in succ:
        for k in out:
            indeg[k] += 1
    free = [i for i, d in enumerate(indeg) if not d]
    order = []
    while free:
        node = free.pop()
        order.append(node)
        for k in succ[node]:
            indeg[k] -= 1
            if not indeg[k]:
                free.append(k)
    return order if len(order) == len(succ) else None


def _perm_order(rows, sol):
    """``(per, order)``: the permanent of ``rows`` from their optimal
    assignment ``sol = _assign(rows)``, with a uniqueness test, and the
    topological order of the tight graph that the test peels, or None
    when the test did not run or found a cycle."""
    if sol is None:
        return ZERO, None
    _, _, cost, u, v, p = sol
    # The optimal term: zero when it needs a zero entry, ghost when it
    # uses a ghost one.
    best = ONE
    for c, r in enumerate(p):
        best = best * rows[r][c]
    if not best.is_tangible():
        return best, None
    # Every optimal permutation uses tight edges only, so a second one
    # exists iff the tight edges (r, c) off the matching, read as
    # r -> p[c], close a cycle.  No cycle passes through a zero entry:
    # it would give an optimal permutation through one.
    succ = [[] for _ in p]
    for r, cr in enumerate(cost):
        for c, k in enumerate(p):
            if k != r and cr[c] == u[r] + v[c]:
                succ[r].append(k)
    order = _peel(succ)
    return (best.nu() if order is None else best), order


def _adjoint_assign(rows, sol, shift, row_order=None):
    """All minors from one optimal assignment ``sol = _assign(rows)``,
    each less ``shift``: ``out[i][j]`` is the permanent without row j and
    column i, or None when the whole optimum is tied.  Its optimum flips
    the shortest path, in reduced costs ``rc``, from the row r0 matched
    to column i to the column s matched to row j, and costs
    ``C* - u[j] - v[i] + d(s)``; one Dijkstra from r0 per column i gives
    d for every j, and the layer of every minor of column i from the
    shortest paths it counts (module docstring).  ``row_order``, the
    order that ``_perm_order`` returned for a tangible permanent, saves
    peeling the tight graph again."""
    n = len(rows)
    if sol is None:
        return ((ZERO,) * n,) * n
    hi, big, cost, u, v, p = sol
    col = sorted(range(n), key=p.__getitem__)  # col[r]: column matched to r
    rc = [[x - ur - vc for x, vc in zip(cr, v)] for cr, ur in zip(cost, u)]
    # The tight graph: column c' -> c when rc[p[c']][c] == 0, c != c'.
    # It is the row graph of _perm_order relabelled through p, so a row
    # order becomes a column order through col.  A cycle in it is a
    # second whole optimum, whose minors the count below cannot decide.
    if row_order is not None:
        order = [col[r] for r in row_order]
    else:
        order = _peel([[c for c, x in enumerate(rc[r]) if not x and c != k]
                       for k, r in enumerate(p)])
        if order is None:
            return None
    # off: the entry is ghost or zero; off_p counts them on p.
    off = [[not x.is_tangible() for x in r] for r in rows]
    off_p = sum(off[r][c] for c, r in enumerate(p))
    base = sum(u) + sum(v)
    top = (n - 1) * hi - shift
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        # dist[c]: shortest path from r0 to column c, which leads on to
        # row p[c]; dist[i] = 0 is r0's own label.  delta[c]: the change
        # in off entries when the path to c is flipped.  tied[c]: whether
        # two shortest paths reach c, which ties the minor with s = c.
        # left keeps the topological order, so min settles a column after
        # every column that reaches it at the same distance by a
        # zero-cost edge: each settled column has its final tied and
        # delta.
        r0 = p[i]
        dist = list(rc[r0])
        o0 = off[r0][i]
        delta = [x - o0 for x in off[r0]]
        tied = [False] * n
        left = [c for c in order if c != i]
        while left:
            c = min(left, key=dist.__getitem__)
            left.remove(c)
            d, r = dist[c], p[c]
            rr, orr = rc[r], off[r]
            dc, tc = delta[c] - orr[c], tied[c]
            for c2 in left:
                t = d + rr[c2]
                if t < dist[c2]:
                    dist[c2] = t
                    delta[c2] = dc + orr[c2]
                    tied[c2] = tc
                elif t == dist[c2]:
                    tied[c2] = True
        for j in range(n):
            s = col[j]
            m = base - u[j] - v[i] + dist[s]
            if m >= big:
                out[i][j] = ZERO
            else:
                out[i][j] = _made(top - m, tied[s] or off_p - off[j][s] + delta[s] > 0)
    return tuple(map(tuple, out))


def _perm_rows(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return _perm2(*rows)
    if n == 3:
        return _perm3(*rows)
    if n == 4:
        return _perm4(*rows)
    return _perm_order(rows, _assign(rows))[0]


def _perm_adjoint(rows, divide=False):
    """``(per, adj)`` for square ``rows``: the permanent, and the adjoint
    as row tuples.  With ``divide`` every adjoint entry comes divided by
    the permanent, which gives nabla, and ``adj`` is None when the
    permanent is not tangible.  Without ``divide`` the permanent, which
    nothing then reads, is None.

    From size 5 on both come from one optimal assignment, unless the
    whole optimum is tied, which only the adjoint meets.  Below that,
    and for a tied adjoint, each minor is a permanent of its own from
    ``_perm_rows``; below size 5 ``_divided`` takes the permanent from
    them."""
    n = len(rows)
    if n > 4:
        sol = _assign(rows)
        if divide:
            per, order = _perm_order(rows, sol)
            if not per.is_tangible():
                return per, None
            return per, _adjoint_assign(rows, sol, per._v, order)
        adj = _adjoint_assign(rows, sol, 0)
        if adj is not None:
            return None, adj
    if n == 1:
        adj = ((ONE,),)
    else:
        out = []
        for i in range(n):
            cut = [r[:i] + r[i + 1:] for r in rows]  # without column i
            out.append(tuple([_perm_rows(cut[:j] + cut[j + 1:]) for j in range(n)]))
        adj = tuple(out)
    return _divided(rows, adj) if divide else (None, adj)


def _divided(rows, adj):
    """``(per, nabla)`` from the adjoint ``adj`` of square ``rows``: the
    permanent as their Laplace expansion along row 0, and the adjoint
    divided by it, or None when it is not tangible."""
    per = _dot(rows[0], [r[0] for r in adj])
    if not per.is_tangible():
        return per, None
    return per, tuple(tuple([x / per for x in r]) for r in adj)


def permanent(A):
    """The permanent determinant: max over permutations of the entry sums,
    with ties and ghost entries making the result ghost."""
    if not A.is_square():
        raise ShapeError("permanent requires a square matrix")
    return _perm_rows(A.row_tuples)


def is_nonsingular(A):
    return permanent(A).is_tangible()


def adjoint(A):
    """Transposed grid of minors: entry (i, j) is the permanent of A with
    row j and column i removed.  For a 1x1 matrix this is [[one]].  The
    result is kept on the matrix, for later calls and for ``nabla``."""
    try:
        return A._adj
    except AttributeError:
        pass
    if not A.is_square():
        raise ShapeError("adjoint requires a square matrix")
    A._adj = adj = _mat(_perm_adjoint(A.row_tuples)[1])
    return adj


def nabla(A):
    """The adjoint divided by the permanent.

    Only defined when the permanent is tangible (the matrix is
    nonsingular); otherwise raises SingularMatrixError, on every call.
    The result is kept on the matrix, so ``quasi_identity``,
    ``solve_raw``, ``solve_max`` and later calls on the same object
    solve no assignment again; with an adjoint kept on the matrix, this
    call solves none either (module docstring).
    """
    try:
        return A._nb
    except AttributeError:
        pass
    if not A.is_square():
        raise ShapeError("nabla requires a square matrix")
    try:
        adj = A._adj
    except AttributeError:
        p, nb = _perm_adjoint(A.row_tuples, divide=True)
    else:
        p, nb = _divided(A.row_tuples, adj._r)
    if nb is None:
        raise SingularMatrixError(f"permanent is {p}, not tangible")
    A._nb = nb = _mat(nb)
    return nb


def quasi_identity(A):
    """The pair (A @ nabla(A), nabla(A) @ A).

    Both are multiplicatively idempotent, nonsingular, and surpass the
    identity entrywise: tangible one on the diagonal, ghost or zero off it.
    """
    an = nabla(A)
    return A @ an, an @ A


def g_annihilates(A, v):
    """True when A applied to the column vector v lands entirely in the
    ghost-or-zero layer."""
    return A.apply(v).is_ghost()


def ann_membership(A, v):
    """Alias of :func:`g_annihilates`: membership of v in the set of
    columns annihilating A."""
    return g_annihilates(A, v)


def solve_raw(A, v):
    """nabla(A) applied to v, ghosts kept as they come."""
    return nabla(A).apply(v)


def solve_max(A, v):
    """The tangible lift of ``nabla(A) @ v``.

    This is the value-largest tangible vector x whose image A @ x covers v
    in the ghost sense: every component of ``v + A @ x`` is ghost or zero.
    That covering property is checked before returning.
    """
    x = nabla(A).apply(v).nu_hat()
    image = A.apply(x)
    for a, b in zip(v, image):
        if not (a + b).is_ghost0():
            raise AssertionError(
                "solver postcondition failed: component "
                f"{a} + {b} is tangible"
            )
    return x


def surpasses_vec(v, w):
    return v.surpasses(w)


def geq_nu_vec(v, w):
    return v.nu_ge(w)
