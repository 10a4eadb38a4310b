"""Tropical dependence, rank, greedy bases and saturation.

A family of vectors is *tropically dependent* when some combination with
tangible coefficients over a nonempty support lands entirely in the ghost
layer.  With a target vector v in front the same condition, v plus the
combination being ghost, says v depends on the family.  Witnesses carry
their coefficients and support and can always be re-verified.  The
support and coefficient rules live in one record, ``_Witness``, that
``DepWitness`` (with its target) and ``span.SpanWitness`` (with its
ghost surplus) share, and the library builds its own witnesses
unchecked through its ``_of``.

Deciding dependence is cheap: k vectors in dimension n are independent
exactly when some k by k column submatrix of their row matrix is
nonsingular, and more than n vectors are always dependent.  Producing a
witness is the interesting part.  The search enumerates supports (smallest
first, then lexicographic) and, per support, a finite candidate grid of
coefficient values.  Without a target, one member alone is a dependence
exactly when it is ghost or zero everywhere, with the unit as its only
candidate, so the one-member supports are read off the ghost flags and
the grid search starts at two members.

The criterion also decides, before any walk, which supports can hold a
witness.  A witness on support T is a dependence of T together with the
target (without one: of T alone), so when those vectors are independent
the walk on T could only fail, on any grid, and T is skipped.  The first
support left in the search order is the support of the witness.
Without a target, its proper subsets came first and are independent, so
every dependence of it has all of it as support.  With a target, an
independent family and a target that is not ghost or zero everywhere
(and so no dependence on its own), every dependence of T with the
target holds the target and a nonempty part of T, and a smaller part
would have come first.  A successful search walks one support.

The candidate grid deserves a comment, because the obvious one is too
small.  In any ghost-producing combination each essential term ties some
other term (or the target) at some component; writing the tie out gives a
difference equation between the two coefficients.  Chasing such equations
along a path of ties expresses every coefficient as a chain of entry
differences anchored either at the target (whose coefficient is the unit)
or at a unit-normalized member of the support.  Ties can chain: there are
families where a valid coefficient is reachable only through two or more
linked ties, so single entry differences do not suffice.  The grid used
here is therefore closed under difference chains up to length k-1, which
is enough because a witness can always be normalized so that its tie graph
is a forest of depth at most k-1 hanging off the anchors.

The grid is walked depth first, one support member per level, in
lexicographic tuple order, and the walk stops at its first solution.
Each node carries the prefix sum (the target plus the members chosen so
far) per coordinate as a value and a ghost flag, so a child costs one
pass over the coordinates.  In a max-plus sum the maximum only grows
along a prefix, so a coordinate whose prefix is tangible can still turn
ghost only if a later member reaches its value.
A child is dropped when some tangible coordinate lies above the largest
value the remaining members can put there with their largest candidates.
The last two members are not tried candidate by candidate.  With m the
prefix value and x the last member's entry at a coordinate, a tangible
prefix forces the last value c = m - x under a tangible entry and needs
c >= m - x under a ghost one, a ghost prefix needs c <= m - x under a
tangible entry, and a tangible prefix with no entry or a zero prefix
under a tangible entry leaves nothing; so for a fixed prefix the valid
last values are one slice of the sorted candidates.  The member before
it, with entry a and value b, changes the prefix at a coordinate only
where a + b ties m (the coordinate turns ghost) or passes it (a + b
leads, and the bounds above become b plus a constant).  So its
candidates fall into runs between the breakpoints m - a, each
breakpoint a run of its own, on which every bound is a constant or b
plus a constant; the valid b of a run are one ``bisect`` range, and
for each of them the least of the last member's candidates at or above
its lower bound completes the sum or none does.  Only values without a
valid completion are skipped, so the solution found is the first of the
full grid, and only grid values are ever produced.  A one-member
support is the pair of a member with no entries and itself.

The greatest valid grid assignment c* takes no walk: a descent finds
it (``_descend``).  Every member starts at its largest candidate.
While some coordinate of the sum is tangible, its unique maximum is a
tangible term.  When that is the target's term, no valid assignment
exists.  When it is a member's, with entry a, the member drops to its
largest candidate at or below the largest other term there less a, and
when it has none, no valid assignment exists.  The invariant is that
every valid grid assignment lies at or below the current point: one
that kept the member's current value would leave its term the unique
tangible maximum of that coordinate.  Each step lowers one member, so
the descent ends, and the first valid point it meets is c*, the
supertropical form of the max-plus principal solution (Butkovic,
"Max-linear systems").  c* is valid, so it lies at or below the
supertropical Cramer bound of every nonsingular minor of the members
(Izhakian-Rowen, "Supertropical matrix algebra II: solving tropical
equations"; ``solve_max``).  With a target and three or more members,
each member's candidates are cut at c* before the walk, and there is no
walk when the descent finds none; two members go straight to the pair
step above.  The cut drops only values that no valid assignment takes,
so the first solution is that of the uncut grid.

From four members on, the cut lists are raised further to a fixpoint of
the demand floor, the walk's forward check applied once before it
starts.  A tangible target value, and a member's tangible term at its
smallest candidate where that lies above the target's value, must be
reached by another member's term; when only one member can reach it,
that member's candidates start where its term does.  c* survives every
floor and meets every demand, so no list empties, and the floors drop
only values that no valid assignment takes: the first solution stays
as it is.  Three members keep the cut lists, where the floors were
measured to cost more than they save.

Saturation raises the coefficients of a dependence as far as validity
allows on its support.  Valid assignments on one support are closed
under the coordinatewise join (``sup_witness``), and the coordinatewise
maximum of grid values is a grid value, so the supremum of every valid
grid assignment is itself one: the unique greatest, c*.  Saturation is
the descent alone and walks no grid.  ``saturate`` also requires the
support to be irredundant.  A subset of an independent family is
independent, so when every sub-support one member short is independent
together with the target, no proper sub-support carries a witness,
which takes that many minor tests and no walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations

from .exceptions import InvalidInputError, ShapeError
from .matrices import (
    Mat,
    Vec,
    _combine,
    _dot_value_ghost,
    _family,
    _perm_rows,
)
from .scalars import ONE, ZERO, Scalar

# unbound accessors, so that whole vectors are read with map()
_value = Scalar.value.fget
_tangible = Scalar.is_tangible
_ghost = Scalar.is_ghost

__all__ = [
    "DepWitness",
    "BaseReport",
    "is_dependent",
    "depends_on",
    "rank",
    "max_rank",
    "d_base",
    "extend_with_tangible",
    "saturate",
    "saturate_by_sup",
    "sup_witness",
    "sum_saturated",
    "annihilator_set",
    "projective_normalize",
]


@dataclass(frozen=True)
class _Witness:
    """Tangible coefficients on a support, the record that dependence and
    spanning witnesses share: ``coeffs[i]`` is tangible for i in
    ``support`` and zero elsewhere.  The public constructors check it;
    the library builds its own witnesses unchecked, with :meth:`_of`."""

    coeffs: tuple
    support: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        support = tuple(sorted(self.support))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support", support)
        if not support:
            raise InvalidInputError("witness support must be nonempty")
        if support[0] < 0 or support[-1] >= len(coeffs):
            raise InvalidInputError("support index outside the coefficients")
        sset = set(support)
        if len(sset) != len(support):
            raise InvalidInputError("witness support has duplicates")
        for i, c in enumerate(coeffs):
            if not isinstance(c, Scalar):
                raise TypeError("witness coefficients must be scalars")
            if i in sset:
                if not c.is_tangible():
                    raise InvalidInputError(
                        f"coefficient {i} on the support must be tangible"
                    )
            elif not c.is_zero():
                raise InvalidInputError(
                    f"coefficient {i} off the support must be zero"
                )

    @classmethod
    def _of(cls, k, support, cs, last):
        """A witness the library built itself, unchecked: the tangible
        ``cs`` on the sorted, duplicate-free support tuple of k members,
        zero elsewhere, and ``last`` as the subclass's own field, the
        third of its ``__match_args__``."""
        coeffs = [ZERO] * k
        for i, c in zip(support, cs):
            coeffs[i] = c
        w = object.__new__(cls)
        w.__dict__.update(coeffs=tuple(coeffs), support=support)
        w.__dict__[cls.__match_args__[2]] = last
        return w

    def _check_count(self, vectors):
        if len(self.coeffs) != len(vectors):
            raise ShapeError("coefficient count does not match the family length")


@dataclass(frozen=True)
class DepWitness(_Witness):
    """Coefficients proving a dependence.

    ``coeffs[i]`` is tangible for i in ``support`` and zero elsewhere.
    ``target`` is the vector being expressed (with unit coefficient), or
    None for a dependence among the family itself.
    """

    target: Vec | None = None

    def combination(self, vectors):
        """The combination this witness asserts to be ghost: the target
        (if any) plus the coefficient-weighted family members."""
        return _combine(self.coeffs, _family(vectors, self.target), self.target)

    def is_valid(self, vectors):
        """Whether :meth:`combination` is ghost or zero in every
        coordinate, read off entry values and ghost flags: the target
        enters as a term with unit coefficient."""
        S = _family(vectors, self.target)
        self._check_count(S)
        coeffs = self.coeffs
        if self.target is not None:
            coeffs = (ONE, *coeffs)
            S = [self.target, *S]
        for col in zip(*[w.entries for w in S]):
            v, g = _dot_value_ghost(coeffs, col)
            if v is not None and not g:
                return False
        return True


@dataclass(frozen=True)
class BaseReport:
    """Result of a base computation: which inputs were kept and their
    projectively normalized representatives."""

    kind: str
    indices: tuple
    rank: int
    normalized: tuple = field(default=())


def projective_normalize(v):
    """Scale so the first nonzero coordinate has value zero (the unit
    value).  Ghost coordinates keep their ghostness."""
    for x in v:
        if not x.is_zero():
            return v.scale(ONE / x.nu_hat())
    return v


# -- decision ----------------------------------------------------------


def _has_nonsingular_minor(rows, k):
    """The first k by k submatrix of the row tuples with a tangible
    permanent, trying row sets and then column sets in lexicographic
    order, as the pair (row indices, column indices); None when there is
    none.  ``_independent`` and ``rank`` ask only whether it exists; the
    minor is returned so that a caller can read its rows and columns.

    A row or column with no tangible entry makes every permanent through
    it ghost or zero, so such rows go first, then such columns of the
    rows that are left.  A kept row's first tangible entry is a
    nonsingular 1 by 1 minor.  Two rows, the test the witness search
    runs most, are read off values and ghost flags: a 2 by 2 permanent
    is tangible when one of its two terms lies above the other and has
    no ghost entry."""
    if len(rows[0]) < k:
        return None
    live = [i for i, r in enumerate(rows) if any(map(_tangible, r))]
    if len(live) < k:
        return None
    if k == 1:
        r = live[0]
        return (r,), (next(j for j, x in enumerate(rows[r]) if x.is_tangible()),)
    if k == 2:
        for p, q in combinations(live, 2):
            r0, r1 = rows[p], rows[q]
            for i, j in combinations(range(len(r0)), 2):
                a, b, c, d = r0[i], r0[j], r1[i], r1[j]
                x = None if a._v is None or d._v is None else a._v + d._v
                y = None if b._v is None or c._v is None else b._v + c._v
                if x is not None and (y is None or x > y):
                    if not (a._g or d._g):
                        return (p, q), (i, j)
                elif y is not None and (x is None or y > x) and not (b._g or c._g):
                    return (p, q), (i, j)
        return None
    cols = [
        j for j, col in enumerate(zip(*(rows[i] for i in live)))
        if any(map(_tangible, col))
    ]
    if len(cols) < k:
        return None
    for picked in combinations(live, k):
        sub = [rows[i] for i in picked]
        for ci in combinations(cols, k):
            if _perm_rows([tuple(r[j] for j in ci) for r in sub]).is_tangible():
                return picked, ci
    return None


def _independent(vectors):
    """True when the family admits a nonsingular square column submatrix
    of full family size; more members than coordinates never do."""
    rows = [v.entries for v in vectors]
    return not rows or _has_nonsingular_minor(rows, len(rows)) is not None


def rank(A):
    """Size of the largest nonsingular square submatrix (0 for a matrix
    with no tangible structure at all)."""
    for k in range(min(A.shape), 0, -1):
        if _has_nonsingular_minor(A.row_tuples, k) is not None:
            return k
    return 0


def max_rank(S):
    """Rank of the row matrix of the family: the size of its largest
    tropically independent subset."""
    return rank(Mat(_family(S)))


# -- witness search ----------------------------------------------------


def _value_rows(vectors, idx):
    return {i: tuple(map(_value, vectors[i])) for i in idx}


def _chain_candidates(rows, target_vals, support):
    """Per-index candidate coefficient values for one support.

    Seeds are the unit value (a member may be normalized to the unit) and,
    with a target, the differences that tie a member directly to the
    target.  Propagation then closes the seeds under tie equations between
    members, to chain depth len(support) - 1.
    """
    cand = {i: {0} for i in support}
    frontier = {i: set(cand[i]) for i in support}
    if target_vals is not None:
        for i in support:
            row = rows[i]
            extra = set()
            for j, tv in enumerate(target_vals):
                if tv is not None and row[j] is not None:
                    extra.add(tv - row[j])
            frontier[i] |= extra - cand[i]
            cand[i] |= extra
    pairs = []
    for a in support:
        for b in support:
            if a == b:
                continue
            ds = {x - y for x, y in zip(rows[a], rows[b])
                  if x is not None and y is not None}
            if ds:
                pairs.append((a, b, ds))
    for _ in range(max(0, len(support) - 1)):
        moved = False
        new_frontier = {i: set() for i in support}
        for a, b, ds in pairs:
            fa = frontier[a]
            if not fa:
                continue
            fresh = {x + d for x in fa for d in ds} - cand[b]
            if fresh:
                new_frontier[b] |= fresh
                cand[b] |= fresh
                moved = True
        if not moved:
            break
        frontier = new_frontier
    return {i: sorted(cand[i]) for i in support}


def _iter_supports(k, smallest=1):
    for size in range(smallest, k + 1):
        yield from combinations(range(k), size)


def _pair_first(first, last, mx, gh):
    """The first completion of the prefix sum (values ``mx``, ghost flags
    ``gh``) to a ghost or zero sum by the last two members, as the pair
    ``(c, t)`` of a candidate of each, least c first and then least t;
    None when there is none.  ``first`` and ``last`` are a member's
    sorted candidates, entry values and ghost flags.

    Per coordinate, with m the prefix value and x the last member's entry:
    a tangible prefix and a tangible entry force the last value to be
    m - x, a tangible prefix and a ghost entry need at least m - x, a
    ghost prefix and a tangible entry need at most m - x, and a tangible
    prefix with no entry or a zero prefix with a tangible entry allow
    nothing.  The first member's entry a, raised by c, changes the prefix
    only where it ties or passes m, so the breakpoints m - a cut its
    candidates into runs (each breakpoint a run of its own) on which every
    coordinate keeps one case: with the prefix as it is, turned ghost by
    the tie, or led by a + c, where the bounds are c plus a constant.
    Over a run the last value thus lies between max(lo, c + klo) and
    min(hi, c + khi), which leaves the c of one ``bisect`` range, and
    for each c the least candidate at or above the lower bound is the
    only one to try."""
    dom, row, grow = first
    ldom, lrow, lgrow = last
    ts = sorted({m - a for a, m in zip(row, mx) if a is not None and m is not None})
    i, size = 0, len(dom)
    while i < size:
        c = dom[i]
        k = bisect_left(ts, c)
        if k == len(ts):
            end = size
        elif ts[k] == c:
            end = i + 1
        else:
            end = bisect_left(dom, ts[k], i)
        # the last value's bounds over the run: constants (the ends of
        # its candidates at first) and offsets from c (None: no bound)
        lo, hi, klo, khi = ldom[0], ldom[-1], None, None
        for a, ga, x, g, m, mg in zip(row, grow, lrow, lgrow, mx, gh):
            if a is not None:
                if m is None or a + c > m:
                    if x is None:
                        if not ga:
                            break
                    else:
                        d = a - x
                        if not g and (khi is None or d < khi):
                            khi = d
                        if not ga and (klo is None or d > klo):
                            klo = d
                    continue
                if a + c == m:
                    mg = True
            if x is None:
                if m is not None and not mg:
                    break
            elif not g:
                if m is None:
                    break
                t = m - x
                if t < hi:
                    hi = t
                if not mg and t > lo:
                    lo = t
            elif m is not None and not mg and m - x > lo:
                lo = m - x
        else:
            if lo <= hi and (klo is None or khi is None or klo <= khi):
                # c + khi >= lo and c + klo <= hi
                start = i if khi is None else bisect_left(dom, lo - khi, i, end)
                stop = end if klo is None else bisect_right(dom, hi - klo, i, end)
                for c in dom[start:stop]:
                    low = lo if klo is None or c + klo < lo else c + klo
                    high = hi if khi is None or c + khi > hi else c + khi
                    k = bisect_left(ldom, low)
                    if k < len(ldom) and ldom[k] <= high:
                        return c, ldom[k]
        i = end
    return None


def _levels(vectors, target, support):
    """The walk's set-up for one support: per member its sorted chain
    candidates, entry values and ghost flags, then the start sum's
    values and ghost flags (the target's, or a zero vector's)."""
    rows = _value_rows(vectors, support)
    if target is None:
        n = len(rows[support[0]])
        tvals, start = None, ([None] * n, [False] * n)
    else:
        tvals = list(map(_value, target))
        start = tvals, list(map(_ghost, target))
    cand = _chain_candidates(rows, tvals, support)
    levels = [(cand[i], rows[i], tuple(map(_ghost, vectors[i]))) for i in support]
    return levels, *start


def _first_solution(vectors, target, support):
    """The first valid coefficient list for one support in candidate-grid
    (lexicographic tuple) order, or None.  One and two members go
    straight to ``_pair_first``, and more to ``_walk_first``.  With a
    target and three or more members, each member's candidates are
    first cut at the greatest valid assignment found by ``_descend``,
    and from four members on ``_tighten`` raises their floors; neither
    changes the first solution."""
    levels, *start = _levels(vectors, target, support)
    n = len(start[0])
    if target is not None and len(levels) > 2:
        top = _descend(levels, *start)
        if top is None:
            return None
        levels = [(dom[:bisect_right(dom, c)], row, grow)
                  for (dom, row, grow), c in zip(levels, top)]
        if len(levels) > 3:
            levels = _tighten(levels, *start)
    if len(levels) == 1:
        # a member alone completes the start sum as the second of a pair
        # whose first member has no entries and only the unit
        found = _pair_first(([0], [None] * n, [False] * n), levels[0], *start)
        found = found and found[1:]
    elif len(levels) == 2:
        found = _pair_first(*levels, *start)
    else:
        found = _walk_first(levels, *start)
    return None if found is None else [Scalar(c) for c in found]


def _walk_first(levels, mx, gh):
    """The first valid values on three or more members' ``levels`` from
    the start sum ``mx``/``gh``, or None: depth first over the members
    before the last two, dropping a prefix with a tangible coordinate
    above what the members after it can reach there (rule (a)), and
    ``_pair_first`` on the last two."""
    n, last = len(mx), len(levels) - 2
    pair = levels[last:]
    # reach[d][j]: the largest value the members after depth d can give
    # coordinate j with their largest candidates (None: no entry there)
    reach = [[None] * n]
    for dom, row, _ in reversed(levels[1:]):
        here = reach[-1][:]
        for j, x in enumerate(row):
            if x is not None and (here[j] is None or x + dom[-1] > here[j]):
                here[j] = x + dom[-1]
        reach.append(here)
    reach.reverse()

    def walk(d, pmx, pgh):
        if d == last:
            return _pair_first(*pair, pmx, pgh)
        dom, row, grow = levels[d]
        nxt = reach[d]
        for c in dom:
            mx, gh = pmx[:], pgh[:]
            for j in range(n):
                x = row[j]
                if x is not None:
                    x += c
                    m = mx[j]
                    if m is None or x > m:
                        mx[j] = m = x
                        gh[j] = grow[j]
                    elif x == m:
                        gh[j] = True
                else:
                    m = mx[j]
                if m is not None and not gh[j] and (nxt[j] is None or nxt[j] < m):
                    break
            else:
                rest = walk(d + 1, mx, gh)
                if rest is not None:
                    return (c, *rest)
        return None

    return walk(0, mx, gh)


def _descend(levels, tvals, tghosts):
    """The greatest valid assignment on the candidate lists of
    ``levels`` (per member: sorted candidates, entry values and ghost
    flags) with the start sum ``tvals``/``tghosts``, as one value per
    member, or None when there is no valid one.

    Every member starts at its largest candidate.  While some coordinate
    of the sum is tangible, its unique maximum is a tangible term: the
    target's ends the search, and member r's, with entry a, drops r to
    its largest candidate at or below the largest other term less a.  No
    valid assignment lies above the current point, since one that kept
    r's value would leave r's term the unique tangible maximum; so the
    first valid point is the greatest (module docstring)."""
    doms = [dom for dom, _, _ in levels]
    cols = list(zip(*(row for _, row, _ in levels)))
    flags = list(zip(*(grow for _, _, grow in levels)))
    cur = [dom[-1] for dom in doms]
    moved = True
    while moved:
        moved = False
        for col, gcol, t, tg in zip(cols, flags, tvals, tghosts):
            # the largest term, who holds it (None: the target), whether
            # it is a ghost or tied, and the largest other term
            best, who, tie, rest = t, None, tg, None
            for r, a in enumerate(col):
                if a is None:
                    continue
                x = a + cur[r]
                if best is None or x > best:
                    best, who, tie, rest = x, r, gcol[r], best
                elif x == best:
                    tie = True
                elif rest is None or x > rest:
                    rest = x
            if best is None or tie:
                continue
            if who is None or rest is None:
                return None
            dom = doms[who]
            k = bisect_right(dom, rest - col[who])
            if not k:
                return None
            cur[who] = dom[k - 1]
            moved = True
    return cur


def _tighten(levels, tvals, tghosts):
    """The walk's ``levels``, cut at the greatest valid assignment, with
    each member's candidates raised to the fixpoint of the demand floor
    (module docstring).  Per coordinate, with lo and hi a member's
    smallest and largest candidates: a demand w (a tangible target
    value, or r's tangible term at its lo where that lies above the
    target's value) that only one other member q can reach, with entry
    x, gives c_q >= w - x.  A valid assignment meets every demand, so
    the floors drop no valid one and the walk finds the same first
    solution; the greatest meets them too, so no list empties."""
    doms = [dom for dom, _, _ in levels]
    cols = list(zip(*(row for _, row, _ in levels)))
    flags = list(zip(*(grow for _, _, grow in levels)))
    members = range(len(doms))
    hi = [dom[-1] for dom in doms]
    tops = [[None if a is None else a + h for a, h in zip(col, hi)] for col in cols]
    while True:
        lo = [dom[0] for dom in doms]
        floor = lo[:]
        for col, gcol, t, tg, top in zip(cols, flags, tvals, tghosts, tops):
            demands = [] if t is None or tg else [(t, None)]
            for r in members:
                a = col[r]
                if a is not None and not gcol[r] and (t is None or a + lo[r] > t):
                    demands.append((a + lo[r], r))
            for w, r in demands:
                reach = [q for q in members
                         if q != r and top[q] is not None and top[q] >= w]
                if len(reach) == 1:
                    q = reach[0]
                    if w - col[q] > floor[q]:
                        floor[q] = w - col[q]
        if floor == lo:
            return [(dom, row, grow) for dom, (_, row, grow) in zip(doms, levels)]
        doms = [dom[bisect_left(dom, f):] for dom, f in zip(doms, floor)]


def _search_witness(vectors, target):
    """First valid witness in (support size, support, coefficient tuple)
    order, or None.  Enumerating small supports first means the returned
    support is always irredundant: every proper sub-support was already
    tried and failed.

    Without a target, the one-member supports are read off ghost flags:
    a member alone is a dependence exactly when it is ghost or zero
    everywhere, and then with the unit, its only candidate.  The walk
    starts at two members.

    A support whose members are independent together with the target
    is skipped without a walk.  On an independent family the first
    support left carries the witness (module docstring), so a failed
    walk there is an error unless the target is ghost or zero
    everywhere; the family is tested only once one fails.  The minor
    test runs before each walk, so a search whose supports are all
    skipped reads no grid, and a walk stops at its first solution."""
    k = len(vectors)
    if target is None:
        for i, w in enumerate(vectors):
            if w.is_ghost():
                return DepWitness._of(k, (i,), (ONE,), None)
    extra = [] if target is None else [target]
    check = True
    for support in _iter_supports(k, 2 if target is None else 1):
        if _independent([vectors[i] for i in support] + extra):
            continue
        cs = _first_solution(vectors, target, support)
        if cs is not None:
            return DepWitness._of(k, support, cs, target)
        if check:
            check = False
            if (target is None or not target.is_ghost()) and _independent(vectors):
                raise AssertionError(
                    "minor criterion says a witness exists on a support "
                    "whose grid walk found none"
                )
    return None


def is_dependent(S):
    """A verified witness if the family is tropically dependent, else None.

    The decision goes through square submatrix permanents; the witness
    then comes from the candidate grid search.  The two must agree, which
    is itself a useful internal crosscheck.

    A dependence without a target is scale invariant, so the returned
    witness is normalized to have the unit at its first support index.
    """
    S = _family(S)
    if _independent(S):
        return None
    w = _search_witness(S, None)
    if w is None:
        raise AssertionError(
            "submatrix decision says dependent but no grid witness exists"
        )
    lead = w.coeffs[w.support[0]]
    if lead != ONE:
        inv = ONE / lead
        cs = [w.coeffs[i] * inv for i in w.support]
        w = DepWitness._of(len(S), w.support, cs, None)
    if not w.is_valid(S):
        raise AssertionError("witness failed re-verification")
    return w


def depends_on(v, S):
    """A verified witness expressing v over the family in the ghost sense
    (v plus the combination is ghost), or None."""
    S = _family(S, v)
    w = _search_witness(S, v)
    if w is not None and not w.is_valid(S):
        raise AssertionError("witness failed re-verification")
    return w


# -- bases -------------------------------------------------------------


def d_base(S, order=None):
    """Greedy maximal independent subset, scanning in the given order.

    Different orders can genuinely return different sizes; the visit order
    is explicit so results are reproducible.
    """
    S = _family(S)
    if order is None:
        order = range(len(S))
    order = list(order)
    if sorted(order) != list(range(len(S))):
        raise InvalidInputError("order must be a permutation of the indices")
    kept = []
    kept_idx = []
    for idx in order:
        if _independent(kept + [S[idx]]):
            kept.append(S[idx])
            kept_idx.append(idx)
    return BaseReport(
        kind="d-base",
        indices=tuple(kept_idx),
        rank=len(kept_idx),
        normalized=tuple(projective_normalize(v) for v in kept),
    )


def extend_with_tangible(S, v):
    """Indices of members that stay independent together with the tangible
    vector v: all of them if possible, otherwise the first (lowest index)
    subset of size one less.  The family may be empty."""
    S = _family([*S, v])[:-1]
    if not _independent(S):
        raise InvalidInputError("the family must be independent")
    if not v.is_tangible() or v.is_zero():
        raise InvalidInputError("the new vector must be tangible and nonzero")
    k = len(S)
    if _independent(S + [v]):
        return tuple(range(k))
    for subset in combinations(range(k), k - 1):
        if _independent([S[i] for i in subset] + [v]):
            return subset
    raise AssertionError(
        "no size k-1 subset stays independent with the new vector, "
        "which a tangible nonzero vector should always allow"
    )


# -- saturation --------------------------------------------------------


def _check_saturate_inputs(v, S, w):
    if w.target is None or w.target != v:
        raise InvalidInputError("witness target must be the given vector")
    w._check_count(S)
    if not _independent(S):
        raise InvalidInputError("the family must be independent")
    if not w.is_valid(S):
        raise InvalidInputError("not a valid dependence witness")


def _is_irredundant(v, S, support):
    """Whether no proper sub-support carries a witness.  A sub-support
    whose members are independent together with v carries none on any
    grid, and neither does any of its own sub-supports, since a subset
    of an independent family is independent.  So when every sub-support
    one member short is independent with v, the support is irredundant
    after as many minor tests and no walk; otherwise each proper
    sub-support that is dependent with v is walked to its first
    solution."""
    if all(
        _independent([S[i] for i in sub] + [v])
        for sub in combinations(support, len(support) - 1)
    ):
        return True
    return all(
        _first_solution(S, v, sub) is None
        for size in range(1, len(support))
        for sub in combinations(support, size)
        if not _independent([S[i] for i in sub] + [v])
    )


def _greatest(v, S, w):
    """The greatest valid assignment on the support of w, found by
    ``_descend`` on the chain candidates with no walk, re-verified."""
    sup = _descend(*_levels(S, v, w.support))
    if sup is None:
        raise AssertionError("a valid witness must exist on the grid")
    out = DepWitness._of(len(S), w.support, [Scalar(c) for c in sup], v)
    if not out.is_valid(S):
        raise AssertionError("saturated witness failed re-verification")
    return out


def saturate(v, S, w):
    """The unique coefficientwise largest witness with the same support.

    Requires an independent family and a valid, support-irredundant
    witness.  The answer is the greatest valid assignment on the
    witness's support, as for :func:`saturate_by_sup`.
    """
    S = _family(S, v)
    _check_saturate_inputs(v, S, w)
    if not _is_irredundant(v, S, w.support):
        raise InvalidInputError("witness support is reducible")
    return _greatest(v, S, w)


def saturate_by_sup(v, S, w):
    """The greatest valid same-support assignment on the candidate grid,
    for any valid witness over an independent family.

    Valid assignments are closed under the coordinatewise join, so the
    pointwise supremum of all of them is valid and is the greatest one;
    a descent from the largest candidates reaches it without listing any
    other assignment.  Unlike :func:`saturate`, the support need not be
    irredundant."""
    S = _family(S, v)
    _check_saturate_inputs(v, S, w)
    return _greatest(v, S, w)


def _join(w1, w2):
    """Coefficients and support of the join of two witnesses: the
    tangible lifts of the coefficient sums on the union of the supports."""
    if len(w1.coeffs) != len(w2.coeffs):
        raise ShapeError("witness lengths differ")
    coeffs = tuple((a + b).nu_hat() for a, b in zip(w1.coeffs, w2.coeffs))
    return coeffs, tuple(sorted(set(w1.support) | set(w2.support)))


def sup_witness(w1, w2, S=None):
    """Coefficientwise join of two witnesses for the same target: the
    tangible lift of the coefficient sums.  Joining valid witnesses keeps
    validity, which is re-checked when the family is supplied."""
    if w1.target != w2.target:
        raise InvalidInputError("witnesses must share a target")
    out = DepWitness(*_join(w1, w2), w1.target)
    if S is not None and not out.is_valid(S):
        raise AssertionError("joined witness failed re-verification")
    return out


def sum_saturated(w1, w2, S=None):
    """Witness for the sum of two targets from saturated witnesses for
    each: coefficients are the tangible lifts of the sums.

    Saturated here means maximal among all coefficient assignments over
    the whole family, not just those sharing the witness's support.  For
    an independent family that forces every coefficient to be finite: a
    zero coefficient can always be raised to some small finite value
    without disturbing any component, so a witness that skips a member
    is never maximal.  When the family is supplied, both inputs are
    checked against that stronger condition; without it the caller
    vouches for the inputs, and a merely support-maximal witness can
    produce a sum that is valid but short of saturated."""
    if w1.target is None or w2.target is None:
        raise InvalidInputError("both witnesses need targets")
    coeffs, support = _join(w1, w2)
    if S is not None:
        S = _family(S)
        for w in (w1, w2):
            again = saturate_by_sup(w.target, S, w)
            if again.coeffs != w.coeffs:
                raise InvalidInputError("input witness is not saturated")
            if len(w.support) != len(S):
                raise InvalidInputError(
                    "input witness is not saturated: it has no "
                    "coefficient on some family member"
                )
    return DepWitness(coeffs, support, w1.target + w2.target)


# -- annihilators ------------------------------------------------------


def annihilator_set(A):
    """Tangible, independent column vectors sent into the ghost layer by
    the matrix: one per column outside a maximal independent column set.

    Each vector has unit value at its own column, support inside the
    chosen column base elsewhere, and zero at the remaining columns, so
    the family is independent by its identity pattern.
    """
    cols = A.col_list()
    n = A.cols
    base_idx = d_base(cols).indices
    base = [cols[j] for j in base_idx]
    out = []
    for j in range(n):
        if j in base_idx:
            continue
        w = _search_witness(base + [cols[j]], None)
        if w is None:
            raise AssertionError(
                "a column outside a maximal independent set must be dependent"
            )
        last = len(base)
        if last not in w.support:
            raise AssertionError(
                "dependence among an independent base alone is impossible"
            )
        unit = w.coeffs[last]
        entries = [ZERO] * n
        for pos, c in zip(base_idx, w.coeffs[:last]):
            entries[pos] = c / unit
        entries[j] = ONE
        u = Vec(entries)
        if not A.apply(u).is_ghost():
            raise AssertionError("constructed annihilator failed its check")
        out.append(u)
    return out
