"""Spanning, critical elements, minimal spanning sets, change of base.

Two spanning notions live here, and the difference is load bearing.

``spans`` asks whether a vector ghost-surpasses a tangible combination
of the family, with the surplus allowed to be any ambient ghost vector.
That is the right reading for the solved examples it reproduces, and
it is decided exactly: per support, each coefficient is capped by the
componentwise residual of the target against the member, candidates
come from entry differences plus a sentinel strictly below them all,
and tuples are tried largest first so the reported witness carries the
greatest workable coefficients on the least support.  Its
``SpanWitness`` is the dependence witness's record, with the same
support and coefficient checks, and the ghost surplus in place of a
target.

Criticality, in contrast, asks whether a member can be rebuilt from the
family with the surplus ghost drawn from the spanned module itself.
The distinction matters: with an ambient surplus, the tangible vector
(1,1) would span both of its one-sided ghost variants, and the
three-element family {(1,1), (1^v,1), (1,1^v)} would collapse to a
single generator, which is wrong for the space those three generate.
Every ghost element of the module is a ghost-or-zero coefficient
combination of the generators (scaling coefficients by the ghost unit
fixes the layer without moving values), so the internal test reduces to
exact module representations.  In an exact representation each useful
coefficient must sit exactly at its residual (anything larger overshoots
somewhere, anything smaller that still touches the maximum would have to
tie a component value, hence equals a residual of the touched component,
and a term below the maximum everywhere can be dropped).  So a three-way
tag per member, tangible residual, ghost residual, or absent, decides
internal spanning completely.

Both searches walk bitmasks over the coordinates, not vectors.  Every
coefficient sits at or below its member's residual, so no term exceeds
the target anywhere, and a sum matches the target at a coordinate
exactly when some term reaches the target's value there.  The sum is
then ghost when two terms reach it or one ghost term does.  A choice of
coefficient is therefore summed up by two masks, the coordinates its
term reaches and those it reaches as a ghost, and ``_mask_walk`` chooses
one option per member depth first, carrying the coordinates reached
once and those reached twice or as a ghost.  Both sets only grow, so a
prefix is dropped when a coordinate that must end tangible is already
ghost, when a coordinate still to be reached is out of reach of the
remaining members, or when no tangible coefficient is left to choose;
a prefix state that failed once is not walked again.  Internal spanning
needs every nonzero coordinate of the target reached, and ghost exactly
on its ghost ones.  ``spans`` needs only the target's tangible
coordinates reached, each by one tangible term, since a ghost
coordinate of the target surpasses whatever reaches it; the walk takes
each member's candidates largest first, so its first hit is the first
tuple of the full grid, and that one combination is rebuilt and checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exceptions import InvalidInputError, NoChangeOfBaseError
from .dependence import BaseReport, _Witness, max_rank, projective_normalize
from .matrices import Mat, Vec, _combine, _family, _tagged_combinations
from .scalars import ONE, ZERO, Scalar, ghost, tangible

__all__ = [
    "SpanWitness",
    "spans",
    "spans_set",
    "is_critical",
    "s_base",
    "is_thick",
    "is_generalized_permutation",
    "change_of_base",
    "is_almost_tangible",
]


@dataclass(frozen=True)
class SpanWitness(_Witness):
    """Tangible coefficients and the ghost surplus certifying that a
    vector surpasses a combination of the family.  The coefficients are
    checked as for :class:`DepWitness`; ``ghost_part`` is ghost or zero."""

    ghost_part: Vec

    def __post_init__(self):
        super().__post_init__()
        for j, g in enumerate(self.ghost_part):
            if not g.is_ghost0():
                raise InvalidInputError(
                    f"ghost part has a tangible entry at {j}"
                )

    def combination(self, vectors):
        return _combine(self.coeffs, vectors)

    def is_valid(self, vectors, v):
        """The reconstruction identity: the combination plus the ghost
        part reproduces v exactly."""
        vectors = _family(vectors, v, self.ghost_part)
        self._check_count(vectors)
        return self.combination(vectors) + self.ghost_part == v


def _residual(v, w):
    """Largest coefficient value keeping the scaled member under the
    target in every component, or None when the member is unusable
    (zero, or sticking out of the target's support)."""
    best = None
    for j, x in enumerate(w):
        if x.is_zero():
            continue
        vj = v[j]
        if vj.is_zero():
            return None
        d = vj.value - x.value
        if best is None or d < best:
            best = d
    return best


def _span_candidates(S, v, i):
    """Member i's descending candidate values: entry differences against
    the target and against every family member, and a sentinel below
    them all, filtered through the residual cap, which keeps the
    sentinel; None when the member is unusable."""
    w = S[i]
    cap = _residual(v, w)
    if cap is None:
        return None
    cand = set()
    for j, x in enumerate(w):
        if x.is_zero():
            continue
        if not v[j].is_zero():
            cand.add(v[j].value - x.value)
        for u in S:
            if u is not w and not u[j].is_zero():
                cand.add(u[j].value - x.value)
    cand.add(min(cand) - 1)
    return sorted((c for c in cand if c <= cap), reverse=True)


def _ghost_surplus(v, comb):
    """The canonical ghost part for a surpassed combination, or None if
    v does not surpass it."""
    parts = []
    for vj, cj in zip(v, comb):
        if not vj.ghost_surpasses(cj):
            return None
        parts.append(vj if vj.is_ghost() else ZERO)
    return Vec(parts)


def _reach(v, w, c, keep):
    """Bitmasks of the coordinates in the mask ``keep`` where the term
    c * w reaches the value of v: all of them, and those under a ghost
    entry of w."""
    hit = ghost_hit = 0
    for j, (vj, x) in enumerate(zip(v, w)):
        if x._v is not None and c + x._v == vj._v:
            hit |= 1 << j
            if x._g:
                ghost_hit |= 1 << j
    return hit & keep, ghost_hit & keep


def _mask_walk(levels, full, ghosts):
    """The first choice of one option per level, in level and option
    order, whose terms reach every coordinate of the mask ``full`` and
    are ghost at it exactly on ``ghosts``, with at least one tangible
    option; None when there is none.

    An option is ``(hit, ghost_hit, is_tangible, payload)``: the masks
    of the coordinates its term reaches and reaches as a ghost.  The
    result is the list of the chosen payloads."""
    k = len(levels)
    reach, tangible_left = [0] * (k + 1), [False] * (k + 1)
    for d in range(k - 1, -1, -1):
        reach[d], tangible_left[d] = reach[d + 1], tangible_left[d + 1]
        for hit, _, tg, _ in levels[d]:
            reach[d] |= hit
            tangible_left[d] = tangible_left[d] or tg
    exact = full & ~ghosts
    failed = set()
    chosen = []

    def walk(d, once, twice, used):
        if d == k:
            return once == full and twice == ghosts and used
        key = (d, once, twice, used)
        if key in failed:
            return False
        rest, rest_tangible = reach[d + 1], tangible_left[d + 1]
        for hit, ghost_hit, tg, payload in levels[d]:
            o, t, u = once | hit, twice | (once & hit) | ghost_hit, used or tg
            if t & exact or full & ~(o | rest) or not (u or rest_tangible):
                continue
            chosen.append(payload)
            if walk(d + 1, o, t, u):
                return True
            chosen.pop()
        failed.add(key)
        return False

    return chosen if walk(0, 0, 0, False) else None


def _mask(v, keep):
    """The bitmask of the coordinates of v whose entries pass ``keep``."""
    return sum(1 << j for j, x in enumerate(v) if keep(x))


def spans(S, v):
    """First witness that v surpasses a tangible combination of S, with
    supports in lexicographic order and greatest coefficients first, or
    None when no support works."""
    S = _family(S, v)
    k = len(S)
    if v.is_zero():
        for i, w in enumerate(S):
            if w.is_zero():
                return SpanWitness._of(k, (i,), (ONE,), v)
        return None
    full = _mask(v, Scalar.is_tangible)
    options = {}

    def member_options(i):
        """Member i's candidates as walk options, built when a support
        first needs them: the tangible coordinates of v that the term
        reaches, and those it reaches as a ghost, which no later term
        can repair; None for an unusable member."""
        if i not in options:
            cands = _span_candidates(S, v, i)
            if cands is not None:
                cands = [(*_reach(v, S[i], c, full), True, c) for c in cands]
            options[i] = cands
        return options[i]

    supports = sorted(
        (s for size in range(1, k + 1) for s in combinations(range(k), size))
    )
    for support in supports:
        levels = [member_options(i) for i in support]
        if None in levels:
            continue
        found = _mask_walk(levels, full, 0)
        if found is None:
            continue
        cs = [tangible(x) for x in found]
        g = _ghost_surplus(v, _combine(cs, [S[i] for i in support]))
        if g is None:
            raise AssertionError(
                "span walk accepted a combination that v does not surpass"
            )
        return SpanWitness._of(k, support, cs, g)
    return None


def spans_set(S, others):
    """Every vector of the second family surpassed by a combination of
    the first."""
    return all(spans(S, v) is not None for v in others)


def _tangible_ratio(w, u):
    """The tangible scalar with w = scalar * u, or None."""
    if w.dim != u.dim or w.is_zero() or u.is_zero():
        return None
    ratio = None
    for a, b in zip(w, u):
        if a.is_zero() != b.is_zero():
            return None
        if a.is_zero():
            continue
        if a.is_ghost() != b.is_ghost():
            return None
        d = a.value - b.value
        if ratio is None:
            ratio = d
        elif ratio != d:
            return None
    return tangible(ratio) if ratio is not None else None


def _class_indices(S, i):
    return tuple(
        j for j, w in enumerate(S)
        if j == i or _tangible_ratio(w, S[i]) is not None
    )


def _residual_tags(v, S, ghost_only=()):
    """Tag options per member for an exact representation of v: absent,
    or the member's residual against v as a ghost coefficient and, for
    indices outside ``ghost_only``, as a tangible one."""
    return [
        [None] if r is None
        else [None, ghost(r)] if i in ghost_only
        else [None, ghost(r), tangible(r)]
        for i, r in enumerate(_residual(v, w) for w in S)
    ]


def _internal_spanned(v, S, excluded):
    """Spanning with the ghost surplus restricted to the module the
    family generates.

    Reduces to exact representations v = sum of tagged members, where
    members in the excluded index set may only carry ghost (or no)
    coefficients.  A representation needs a tangible coefficient outside
    the excluded set; a fully ghost target instead only needs one
    non-excluded member inside its support to carry an arbitrarily small
    tangible coefficient underneath itself.
    """
    k = len(S)
    excluded = set(excluded)
    full = _mask(v, bool)
    levels = []
    for i, w in enumerate(S):
        r = _residual(v, w)
        options = [(0, 0, False, None)]
        if r is not None:
            hit, ghost_hit = _reach(v, w, r, full)
            options.append((hit, hit, False, None))
            if i not in excluded:
                options.append((hit, ghost_hit, True, None))
        levels.append(options)
    if _mask_walk(levels, full, _mask(v, Scalar.is_ghost)) is not None:
        return True
    if v.is_ghost():
        # the target itself is the surplus; any small tangible multiple
        # of a usable outside member hides underneath it
        return any(
            i not in excluded and _residual(v, S[i]) is not None
            for i in range(k)
        )
    return False


def is_critical(i, S):
    """Whether the i-th member cannot be rebuilt from the family once
    its whole projective class is set aside."""
    S = _family(S)
    if not 0 <= i < len(S):
        raise IndexError("member index out of range")
    if S[i].is_zero():
        return False
    return not _internal_spanned(S[i], S, _class_indices(S, i))


def s_base(S):
    """The minimal spanning subset: one representative per projective
    class, kept only when critical.  Reported indices refer to the
    input; normalized representatives have their first nonzero
    coordinate scaled to the unit."""
    S = _family(S)
    reps = []
    for idx, w in enumerate(S):
        if w.is_zero():
            continue
        if any(_tangible_ratio(w, S[r]) is not None for r in reps):
            continue
        reps.append(idx)
    kept = [idx for idx in reps if is_critical(idx, S)]
    return BaseReport(
        kind="s-base",
        indices=tuple(kept),
        rank=len(kept),
        normalized=tuple(projective_normalize(S[idx]) for idx in kept),
    )


def is_thick(W_gens, V_gens):
    """Whether the first family reaches the full rank of the second."""
    W_gens = _family(W_gens)
    return max_rank(W_gens) == max_rank(_family(V_gens, W_gens[0]))


def is_generalized_permutation(P):
    """Exactly one tangible entry in every row and every column, all
    other entries zero.  These are precisely the invertible matrices."""
    m, n = P.shape
    if m != n:
        return False
    col_hits = [0] * n
    for i in range(m):
        row_hits = 0
        for j in range(n):
            x = P.entry(i, j)
            if x.is_zero():
                continue
            if not x.is_tangible():
                return False
            row_hits += 1
            col_hits[j] += 1
        if row_hits != 1:
            return False
    return all(c == 1 for c in col_hits)


def change_of_base(A, Aprime):
    """The generalized permutation matrix P with Aprime = P A, matching
    each row of Aprime to a tangible multiple of a row of A (lowest
    index on ties).  Raises when no full matching exists, which means
    the two inputs were not bases of one space."""
    if A.shape != Aprime.shape:
        raise NoChangeOfBaseError("row matrices have different shapes")
    m = A.rows
    used = set()
    rows = []
    for i in range(m):
        target = Aprime.row(i)
        match = None
        for j in range(m):
            if j in used:
                continue
            alpha = _tangible_ratio(target, A.row(j))
            if alpha is not None:
                match = (j, alpha)
                break
        if match is None:
            raise NoChangeOfBaseError(
                f"row {i} is not a tangible multiple of any unused row"
            )
        used.add(match[0])
        rows.append(
            [match[1] if j == match[0] else ZERO for j in range(m)]
        )
    P = Mat(rows)
    if P @ A != Aprime:
        raise AssertionError("change of base failed its defining identity")
    return P


def is_almost_tangible(v, S):
    """Whether the only module elements surpassed by v (with a surplus
    ghost from the module) are its own tangible multiples.

    Tangible vectors qualify outright; nonzero ghost vectors never do.
    Mixed vectors are checked by the residual-tag grid over the family:
    a combination w other than a tangible multiple of v disqualifies v
    when w plus a ghost-tagged combination equals v.  The family may be
    empty.
    """
    S = _family([v, *S])[1:]
    if v.is_zero() or v.is_tangible():
        return True
    if v.is_ghost():
        return False
    ghost_options = _residual_tags(v, S, range(len(S)))
    surpluses = [g for _, g in _tagged_combinations(ghost_options, S)]
    for _, w in _tagged_combinations(_residual_tags(v, S), S):
        if w == v or _tangible_ratio(w, v) is not None:
            continue
        # surpassing w is necessary and much cheaper than the surplus scan
        if v.surpasses(w) and any(w + g == v for g in surpluses):
            return False
    return True
