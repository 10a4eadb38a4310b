"""Shared constructors and random generators for the test suite.

The string-based builders (``sc``, ``vec``, ``mat``) go through the text
format on purpose: the format has its own round-trip tests, and literal
matrices read much better as strings than as nested constructor calls.
"""

import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product

from supertropical import (
    Mat,
    ParseError,
    Scalar,
    Vec,
    ZERO,
    ghost,
    is_nonsingular,
    parse_matrix,
    parse_scalar,
    parse_vector,
    solve_max,
    tangible,
)
from supertropical.dependence import (
    DepWitness,
    _chain_candidates,
    _independent,
    _iter_supports,
)
from supertropical import matrices
from supertropical.dual import _as_mat, _combination_grid
from supertropical.matrices import _combine, _family, _made
from supertropical.oracles import check_saturated
from supertropical.span import (
    SpanWitness,
    _ghost_surplus,
    _residual,
    _span_candidates,
    _tangible_ratio,
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


def count_perm_adjoint(monkeypatch):
    """Patch ``matrices._perm_adjoint`` to count its calls."""
    calls = []
    inner = matrices._perm_adjoint

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(matrices, "_perm_adjoint", counted)
    return calls


# -- slow-path references ----------------------------------------------

def spans_reference(S, v):
    """Reference for ``span.spans``: every support in lexicographic order,
    and on each the whole candidate grid in product order, each tuple
    combined with scalar arithmetic."""
    S = _family(S, v)
    k = len(S)
    if v.is_zero():
        for i, w in enumerate(S):
            if w.is_zero():
                coeffs = [ZERO] * k
                coeffs[i] = tangible(0)
                return SpanWitness(tuple(coeffs), (i,), v)
        return None
    supports = sorted(
        (s for size in range(1, k + 1) for s in combinations(range(k), size))
    )
    for support in supports:
        if any(S[i].is_zero() for i in support):
            continue
        cands = [_span_candidates(S, v, i) for i in support]
        if None in cands:
            continue
        members = [S[i] for i in support]
        for tup in product(*cands):
            cs = [tangible(x) for x in tup]
            g = _ghost_surplus(v, _combine(cs, members))
            if g is not None:
                coeffs = [ZERO] * k
                for c, i in zip(cs, support):
                    coeffs[i] = c
                return SpanWitness(tuple(coeffs), support, g)
    return None


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


def _tagged_combinations(options, vectors):
    """``(tags, combination)`` for every tag tuple of ``product(*options)``
    that uses at least one vector, in product order; a ``None`` tag
    leaves its vector out."""
    for tags in product(*options):
        if any(t is not None for t in tags):
            yield tags, _combine(tags, vectors)


def internal_spanned_reference(v, S, excluded):
    """Reference for ``span._internal_spanned``: the whole residual-tag
    grid in product order, each tuple combined with scalar arithmetic."""
    k = len(S)
    excluded = set(excluded)
    for tags in product(*_residual_tags(v, S, excluded)):
        if not any(
            t is not None and t.is_tangible() and i not in excluded
            for i, t in enumerate(tags)
        ):
            continue
        if _combine(tags, S) == v:
            return True
    if v.is_ghost():
        return any(
            i not in excluded
            and not S[i].is_zero()
            and _residual(v, S[i]) is not None
            for i in range(k)
        )
    return False


def is_almost_tangible_reference(v, S):
    """Reference for ``span.is_almost_tangible``: the residual-tag grid
    over the family, each combination w other than a tangible multiple
    of v tested against every ghost-tagged surplus g for w + g == v."""
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


def _tag_grid(values, k):
    """Every tag tuple of k members over ``values`` in product order:
    absent, then tangible values ascending, then ghost values ascending;
    the all-absent tuple left out."""
    options = [None] + [tangible(c) for c in values] + [ghost(c) for c in values]
    for tags in product(options, repeat=k):
        if any(t is not None for t in tags):
            yield tags


def grid_radical_witness_reference(W, gram):
    """Reference for ``bilinear._grid_radical_witness``: the whole tag grid
    in product order, each tuple combined with scalar arithmetic and its
    coefficient vector applied to the transposed Gram matrix."""
    nz = [x.value for r in gram.row_tuples for x in r if not x.is_zero()]
    vals = {0} | {a - b for a in nz for b in nz}
    vals.add(min(vals) - 1)
    Gt = gram.transpose()
    for tags in _tag_grid(sorted(vals), len(W)):
        v = _combine(tags, W)
        coeff = Vec([t if t is not None else ZERO for t in tags])
        if not v.is_ghost() and Gt.apply(coeff).is_ghost():
            return v
    return None


def is_ghost_monic_reference(M, sample_space):
    """Reference for ``dual.is_ghost_monic``: the whole tag grid in product
    order, each combination of the generators applied to the matrix."""
    mat = _as_mat(M)
    gens = list(sample_space)
    values = _combination_grid(gens, mat.row_list())
    return not any(
        not v.is_ghost() and mat.apply(v).is_ghost()
        for v in (_combine(tags, gens) for tags in _tag_grid(values, len(gens)))
    )


def search_witness_reference(vectors, target, supports=None):
    """Reference for ``dependence._search_witness``: every support from
    one member up, one-member supports included, each walked by
    ``grid_solutions_reference`` to its first solution."""
    k = len(vectors)
    for support in supports if supports is not None else _iter_supports(k):
        cs = next(grid_solutions_reference(vectors, target, support), None)
        if cs is not None:
            return DepWitness._of(k, support, cs, target)
    return None


def is_irredundant_reference(v, S, support):
    """Reference for ``dependence._is_irredundant``: the unfiltered search
    over every proper sub-support whose members are dependent together
    with v, with no shortcut through the sub-supports one member short."""
    subs = (
        sub for size in range(1, len(support))
        for sub in combinations(support, size)
        if not _independent([S[i] for i in sub] + [v])
    )
    return search_witness_reference(S, v, subs) is None


def _last_values_reference(dom, row, grow, mx, gh):
    """The slice of the sorted candidates ``dom`` that completes the prefix
    sum (values ``mx``, ghost flags ``gh``) to a ghost or zero sum, for a
    last member with entry values ``row`` and ghost flags ``grow``.

    Per coordinate, with m the prefix value and x the entry: a tangible
    prefix and a tangible entry force c = m - x, a tangible prefix and a
    ghost entry need c >= m - x, a ghost prefix and a tangible entry need
    c <= m - x, and a tangible prefix with no entry or a zero prefix with a
    tangible entry allow nothing."""
    lo = hi = None
    for x, g, m, mg in zip(row, grow, mx, gh):
        if x is None:
            if m is not None and not mg:
                return []
        elif not g:
            if m is None:
                return []
            t = m - x
            if hi is None or t < hi:
                hi = t
            if not mg and (lo is None or t > lo):
                lo = t
        elif m is not None and not mg and (lo is None or m - x > lo):
            lo = m - x
    return dom[
        0 if lo is None else bisect_left(dom, lo):
        len(dom) if hi is None else bisect_right(dom, hi)
    ]


def sup_assignment(assignments):
    """Coefficientwise supremum of support-aligned assignments, lifted to
    the tangible layer."""
    return [max(col, key=lambda c: c.value).nu_hat() for col in zip(*assignments)]


def saturation_crosschecks(v, S, s):
    """Check the saturated witness ``s`` of v over the family S by the
    routes that apply besides the grid walk, and say which ran: on a
    square family with full support and a tangible nonzero target its
    coefficients are ``solve_max`` of the transposed system; on a
    support of at most two members, in a family within the brute
    search's cap of four members and four coordinates, the brute grid
    search of ``check_saturated`` finds nothing larger."""
    solved = (
        len(S) == v.dim and s.support == tuple(range(len(S)))
        and v.is_tangible() and not v.is_zero()
    )
    if solved:
        assert s.coeffs == tuple(solve_max(Mat(S).transpose(), v).entries), (v, S, s)
    brute = len(s.support) <= 2 and len(S) <= 4 and v.dim <= 4
    if brute:
        assert check_saturated(s, S), (v, S, s)
    return solved, brute


def grid_solutions_reference(vectors, target, support):
    """Every valid coefficient list of one support in candidate-grid
    order, whose first entry is ``dependence._first_solution``'s: the
    same pruned prefix-sum walk (rule (a) at every depth), but with no
    cut or floors, every member before the last on a stack, the
    second-to-last tried candidate by candidate, and the last member's
    values read off each prefix sum by ``_last_values_reference``."""
    rows = {i: [x.value for x in vectors[i]] for i in support}
    last, n = len(support) - 1, len(rows[support[0]])
    if target is None:
        tvals, start = None, ([None] * n, [False] * n)
    else:
        tvals = [x.value for x in target]
        start = tvals, [x.is_ghost() for x in target]
    cand = _chain_candidates(rows, tvals, support)
    # per depth: the member's candidates, entry values and ghost flags
    levels = [(cand[i], rows[i], [x.is_ghost() for x in vectors[i]]) for i in support]
    if not last:
        for c in _last_values_reference(*levels[0], *start):
            yield [Scalar(c)]
        return
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
    # the stack over the members before the last, per depth: the prefix
    # sum before the member (values and ghost flags), the iterator over
    # its candidates and the one chosen
    maxes, ghosts, its, chosen = [[None] * last for _ in range(4)]
    maxes[0], ghosts[0] = start
    its[0] = iter(levels[0][0])
    d = 0
    while d >= 0:
        _, row, grow = levels[d]
        pmx, pgh, nxt = maxes[d], ghosts[d], reach[d]
        for c in its[d]:
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
                chosen[d] = c
                if d + 1 < last:
                    d += 1
                    maxes[d], ghosts[d], its[d] = mx, gh, iter(levels[d][0])
                    break
                head = [Scalar(v) for v in chosen]
                for t in _last_values_reference(*levels[last], mx, gh):
                    yield head + [Scalar(t)]
        else:
            d -= 1


def assign_reference(rows):
    """Reference for ``matrices._assign``: the shortest-augmenting-path
    loop it replaced, which starts from an empty matching and moves the
    potential and slack of every column after each Dijkstra step.  The
    same ``(hi, big, cost, u, v, p)``, with ``0 <= u <= big`` and
    ``-big <= v <= 0``."""
    n = len(rows)
    vals = [[x.value for x in r] for r in rows]
    finite = [w for r in vals for w in r if w is not None]
    if not finite:
        return None
    # A zero entry costs more than any permutation of finite entries, so
    # an optimum uses one only when it must.
    hi = max(finite)
    big = n * (hi - min(finite)) + 1
    cost = [[big if w is None else hi - w for w in r] for r in vals]

    # Shortest augmenting paths, 1-based, column 0 rooting each search.
    # 0 <= u <= big and -big <= v <= 0 throughout, so every reduced cost
    # is below inf.
    inf = 2 * big + 1
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    cols = range(1, n + 1)
    for i in cols:
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            ci = cost[i0 - 1]
            ui = u[i0]
            delta = inf
            j1 = 0
            for j in cols:
                if not used[j]:
                    cur = ci[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return hi, big, cost, u[1:], v[1:], [r - 1 for r in p[1:]]


def adjoint_assign_reference(rows, sol, shift):
    """Reference for the adjoint from an assignment: for
    ``matrices._adjoint_assign`` on a unique whole optimum, and for
    ``adjoint`` on every input.  The same Dijkstra per deleted column i,
    then for each minor the flipped path and, when it uses only tangible
    entries, a cycle test on the minor's own tight edges, whether or not
    the whole optimum is unique."""
    n = len(rows)
    if sol is None:
        return ((ZERO,) * n,) * n
    hi, big, cost, u, v, p = sol
    col = sorted(range(n), key=p.__getitem__)
    rc = [[x - ur - vc for x, vc in zip(cr, v)] for cr, ur in zip(cost, u)]
    zeros = [(r, c) for r, rr in enumerate(rc) for c, x in enumerate(rr) if x == 0]
    off = [[not x.is_tangible() for x in r] for r in rows]
    off_p = sum(off[r][c] for c, r in enumerate(p))
    base = sum(u) + sum(v)
    top = (n - 1) * hi - shift
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        r0 = p[i]
        dist = list(rc[r0])
        pre = [r0] * n
        others = [c for c in range(n) if c != i]
        left = list(others)
        while left:
            c = min(left, key=dist.__getitem__)
            left.remove(c)
            d, r = dist[c], p[c]
            for c2 in left:
                if d + rc[r][c2] < dist[c2]:
                    dist[c2] = d + rc[r][c2]
                    pre[c2] = r
        # edge (r, c) is tight in the minor when rc == 0 and D <= dist[c]
        # (flat), or it lies on a shortest path and D >= dist[c] (path)
        flat = [(dist[c], r, c) for r, c in zeros if c != i]
        path = []
        for r, rr in enumerate(rc):
            a = dist[col[r]]
            path += [(dist[c], r, c) for c in others if rr[c] + a == dist[c]]
        for j in range(n):
            s = col[j]
            D = dist[s]
            m = base - u[j] - v[i] + D
            if m >= big:
                out[i][j] = ZERO
                continue
            q = list(p)
            bad = off_p - off[j][s]
            c = s
            while c != i:
                r = pre[c]
                q[c] = r
                bad += off[r][c] - off[r][col[r]]
                c = col[r]
            ghosted = bad > 0
            if not ghosted:
                succ = [[] for _ in q]
                for b, r, c in flat:
                    if D <= b and q[c] != r:
                        succ[r].append(q[c])
                for b, r, c in path:
                    if D >= b and q[c] != r:
                        succ[r].append(q[c])
                ghosted = _has_cycle_reference(succ)
            out[i][j] = _made(top - m, ghosted)
    return tuple(map(tuple, out))


def _has_cycle_reference(succ):
    """Whether the digraph with successor lists ``succ`` has a cycle, by
    depth-first search with the nodes on the current path marked."""
    state = [0] * len(succ)  # 0 new, 1 on the path, 2 done

    def visit(k):
        state[k] = 1
        for t in succ[k]:
            if state[t] == 1 or (not state[t] and visit(t)):
                return True
        state[k] = 2
        return False

    return any(not state[k] and visit(k) for k in range(len(succ)))


_RAT_REFERENCE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def scalar_from_token_reference(token, line=None, column=None):
    """Reference for ``textio._scalar_from_token``: every rational read
    with ``Fraction`` and built with the validating ``Scalar``."""
    ghost = False
    body = token
    if body.endswith("v"):
        ghost = True
        body = body[:-1]
    if body in ("-inf", "-Inf", "-INF"):
        return ZERO
    if not _RAT_REFERENCE.match(body):
        raise ParseError(f"bad scalar token {token!r}", line, column)
    try:
        q = Fraction(body)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", line, column)
    return Scalar(q, ghost)


def parse_matrix_reference(text):
    """Reference for ``textio.parse_matrix``: every token located with a
    regex scan and the matrix built with the validating ``Mat``."""
    grid = []
    first_width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for m in re.finditer(r"\S+", line):
            row.append(scalar_from_token_reference(m.group(), ln, m.start() + 1))
        if first_width is None:
            first_width = len(row)
        elif len(row) != first_width:
            raise ParseError(
                f"row has {len(row)} entries, expected {first_width}", ln, 1
            )
        grid.append(row)
    if not grid:
        raise ParseError("no rows found")
    return Mat(grid)
