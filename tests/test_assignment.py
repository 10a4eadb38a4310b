"""The assignment permanent against the oracles, and its ghost layer on
pinned cases.

From size 5 on, ``permanent`` solves an optimal assignment and decides
the layer by a cycle test on the tight edges (sizes 2 to 4 walk their
permutations on values and ghost flags), and ``adjoint`` takes every
minor from one assignment of the whole matrix when its optimum is
unique.  The solver, ``matrices._assign``, is Jonker and Volgenant's:
column reduction, then one Dijkstra per row left free.
``tests/helpers.assign_reference`` is the loop it replaced, which
starts from an empty matching; both must give feasible potentials,
tight on a permutation of the same optimal cost, and the same permanent
and minors from either solution.

When the whole optimum is unique, a minor is tied exactly when two
shortest alternating paths reach it, so one count per deleted column
decides every minor's layer.  On a tied whole optimum
``matrices._adjoint_assign`` returns None, and ``adjoint`` takes every
minor as a permanent of its own, as below size 5.
``tests/helpers.adjoint_assign_reference`` decides every minor of every
input by a cycle test on the minor's own tight edges, and
``oracles.dp_permanent`` (the memoized row expansion) and
``oracles.brute_permanent`` (the literal permutation sum) share no code
with either.
"""

import time
from fractions import Fraction

import pytest

from supertropical import ZERO, Mat, adjoint, nabla, permanent, quasi_identity
from supertropical import matrices
from supertropical.exceptions import InvalidInputError, ShapeError
from supertropical.matrices import (
    _adjoint_assign,
    _assign,
    _perm_order,
)
from supertropical.oracles import brute_permanent, dp_permanent

from helpers import (
    POPULATIONS,
    G,
    T,
    adjoint_assign_reference,
    assign_reference,
    mat,
    rand_mat,
    rand_nonsingular,
    rand_scalar,
    seeded,
)


def _draw(rng, n, population):
    lo, hi, zero_p, ghost_p, denom = population
    return rand_mat(rng, n, n, lo=lo, hi=hi, zero_p=zero_p, ghost_p=ghost_p, denom=denom)


def _mixed_denominators(rng, n):
    # Every row has its own denominator, so the potentials are Fractions.
    return Mat([
        [rand_scalar(rng, lo=-6, hi=6, zero_p=0.1, denom=d) for _ in range(n)]
        for d in (rng.choice([1, 2, 3, 4, 6]) for _ in range(n))
    ])


def _minor(A, j, i):
    keep_r = [r for r in range(A.rows) if r != j]
    keep_c = [c for c in range(A.cols) if c != i]
    return A.submatrix(keep_r, keep_c)


def test_matches_dp_oracle():
    rng = seeded(7)
    layers = set()
    for n in range(4, 13):
        draws = 40 if n <= 8 else 6
        for k in range(draws):
            population = POPULATIONS[k % len(POPULATIONS)]
            A = _mixed_denominators(rng, n) if k % 8 == 7 else _draw(rng, n, population)
            p = permanent(A)
            assert p == dp_permanent(A), A
            layers.add("zero" if p.is_zero() else "ghost" if p.is_ghost() else "tangible")
    assert layers == {"zero", "ghost", "tangible"}


def test_matches_brute_oracle():
    rng = seeded(8)
    for n in range(1, 9):
        for k in range(30 if n <= 6 else 3):
            A = _draw(rng, n, POPULATIONS[k % len(POPULATIONS)])
            assert permanent(A) == brute_permanent(A), A


def _checked_adjoint(A):
    """``adjoint(A)``, checked entry by entry against the DP oracle."""
    adj = adjoint(A)
    n = A.rows
    for i in range(n):
        for j in range(n):
            assert adj.entry(i, j) == dp_permanent(_minor(A, j, i)), (A, i, j)
    return adj


def test_adjoint_matches_dp_minors():
    rng = seeded(9)
    for n in range(2, 13):
        for k in range(6 if n <= 4 else 10):
            _checked_adjoint(_draw(rng, n, POPULATIONS[k % len(POPULATIONS)]))


def _diagonal_heavy(n, off=0):
    """Diagonal 10, off-diagonal ``off``: the identity is the unique
    optimum, worth 10n."""
    return [[T(10) if i == j else T(off) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [4, 5, 6, 9])
class TestLayer:
    def test_unique_tangible_optimum(self, n):
        assert permanent(Mat(_diagonal_heavy(n))) == T(10 * n)

    def test_two_optimal_permutations_give_a_ghost(self, n):
        rows = _diagonal_heavy(n)
        rows[0][1] = rows[1][0] = T(10)
        assert permanent(Mat(rows)) == G(10 * n)

    def test_two_optimal_permutations_through_a_longer_cycle(self, n):
        rows = _diagonal_heavy(n)
        rows[0][1] = rows[1][2] = rows[2][0] = T(10)
        assert permanent(Mat(rows)) == G(10 * n)

    def test_unique_optimum_through_a_ghost_entry(self, n):
        rows = _diagonal_heavy(n)
        rows[n - 1][n - 1] = G(10)
        assert permanent(Mat(rows)) == G(10 * n)

    def test_tie_among_non_optimal_permutations_only(self, n):
        # Every permutation off the identity ties with many others.
        rows = _diagonal_heavy(n, off=9)
        assert permanent(Mat(rows)) == T(10 * n)

    def test_tight_edges_without_a_cycle(self, n):
        # Upper triangular: the identity is the only finite permutation,
        # while tight edges off it may go from lower to higher rows.
        rows = [[T(0) if j >= i else ZERO for j in range(n)] for i in range(n)]
        assert permanent(Mat(rows)) == T(0)

    def test_zero_row(self, n):
        rows = _diagonal_heavy(n)
        rows[n // 2] = [ZERO] * n
        assert permanent(Mat(rows)) == ZERO

    def test_no_finite_permutation(self, n):
        # Finite entries only in the first two columns.
        rows = [[T(i + j) if j < 2 else ZERO for j in range(n)] for i in range(n)]
        assert permanent(Mat(rows)) == ZERO

    def test_optimum_avoids_the_zero_entries(self, n):
        rows = _diagonal_heavy(n, off=-50)
        rows[0][1] = ZERO
        assert permanent(Mat(rows)) == T(10 * n)

    def test_all_zero(self, n):
        assert permanent(Mat.zeros(n, n)) == ZERO


@pytest.mark.parametrize("n", [5, 6])
class TestAdjointFromOneAssignment:
    """From size 5 on, every minor of the adjoint comes from one optimal
    assignment of the whole matrix and a shortest path per minor, unless
    that optimum is tied.  Entry (i, j) is the minor without row j and
    column i."""

    def test_unique_minor_inside_a_ghost_permanent(self, n, monkeypatch):
        # The identity and the swap of rows 0 and 1 are both optimal, so
        # the whole assignment's tight graph has a cycle and the minors
        # are decided minor by minor: each is a permanent of its own, an
        # assignment of its own from size 5 on.
        rows = _diagonal_heavy(n)
        rows[0][1] = rows[1][0] = T(10)
        A = Mat(rows)
        assert permanent(A) == G(10 * n)
        assert _adjoint_assign(A.row_tuples, _assign(A.row_tuples), 0) is None
        calls = _counting(monkeypatch, "_assign")
        adj = _checked_adjoint(A)
        assert len(calls) == 1 + (n * n if n > 5 else 0)
        assert adj.entry(0, 0) == T(10 * (n - 1))
        assert adj.entry(1, 0) == T(10 * (n - 1))
        assert adj.entry(n - 1, n - 1) == G(10 * (n - 1))

    def test_tied_paths_inside_a_minor_give_a_ghost(self, n):
        # The identity is the unique optimum, but without row 0 and
        # column 1, row 1 reaches column 0 directly or through row 2 at
        # the same cost.
        rows = _diagonal_heavy(n)
        rows[1][0] = rows[1][2] = T(5)
        rows[2][0] = T(10)
        A = Mat(rows)
        assert permanent(A) == T(10 * n)
        adj = _checked_adjoint(A)
        assert adj.entry(1, 0) == G(10 * n - 15)

    def test_minor_without_a_matched_pair(self, n):
        # Row j and the column matched to it: the minor keeps the rest of
        # the optimal permutation and the full potentials.  Rows 0 and
        # n - 1 keep the diagonal in every optimum.
        rows = _diagonal_heavy(n)
        rows[1][2] = rows[2][1] = T(10)
        adj = _checked_adjoint(Mat(rows))
        assert adj.entry(0, 0) == G(10 * (n - 1))
        assert adj.entry(n - 1, n - 1) == G(10 * (n - 1))
        rows = _diagonal_heavy(n)
        rows[n - 1][n - 1] = G(10)
        adj = _checked_adjoint(Mat(rows))
        assert adj.entry(0, 0) == G(10 * (n - 1))
        assert adj.entry(n - 1, n - 1) == T(10 * (n - 1))

    def test_minor_that_needs_a_zero_entry(self, n):
        # Upper triangular: the identity is the only finite permutation.
        # Without row 0 and column 1, column 0 has no finite entry left.
        rows = [[T(i + j) if j >= i else ZERO for j in range(n)] for i in range(n)]
        adj = _checked_adjoint(Mat(rows))
        assert adj.entry(1, 0) == ZERO
        assert adj.entry(0, 1) == T(sum(2 * k for k in range(2, n)) + 1)
        assert adj.entry(2, 2) == T(sum(2 * k for k in range(n)) - 4)

    def test_zero_permanent_with_finite_minors(self, n):
        rows = _diagonal_heavy(n, off=1)
        rows[2] = [ZERO] * n
        A = Mat(rows)
        assert permanent(A) == ZERO
        adj = _checked_adjoint(A)
        assert adj.entry(2, 2) == T(10 * (n - 1))
        assert adj.entry(0, 2) == T(10 * (n - 2) + 1)
        assert adj.entry(2, 0) == ZERO

    def test_all_zero(self, n):
        assert adjoint(Mat.zeros(n, n)) == Mat.zeros(n, n)


class TestAdjointTightEdges:
    """Pinned minors, through ``adjoint``.  With a unique whole optimum,
    the minor without row j and column i is tied exactly when two
    shortest paths lead from the row matched to column i to the column s
    matched to row j.  A tied whole optimum sends ``adjoint`` minor by
    minor; ``tests/helpers.adjoint_assign_reference`` still decides such
    a minor from the whole matrix's assignment: the minor's potentials
    are the whole matrix's shifted by pi = min(dist, D), where dist holds
    the shortest paths from that row and D = dist[s]; an edge with
    reduced cost rc, from a row at distance a to a column at distance b,
    is then tight exactly when rc == 0 and D <= b, or rc + a == b and
    D >= b, and a cycle of those edges off the minor's matching is its
    second optimum.  Of the first two tests, the first has a unique
    optimum (its permanent is 13) and the second a tied one (6v), whose
    minors the reference must give too; the third pins the order in
    which the count visits columns at equal distance."""

    def test_zero_reduced_cost_edge_cut_by_the_cap(self):
        # Entry (1, 4): D = 1, and the zero-cost edges out of rows 3 and 4
        # into columns at distance 0 are slack in the minor.  Counting
        # them closes a cycle that no second optimum has.
        A = mat("0 0 1 3 3\n2 1 3 3 1\n1 3 3 2 0\n0 0 2 2 3\n1 0 1 0 2")
        adj = _checked_adjoint(A)
        assert adj.entry(1, 4) == T(11)
        assert adj.entry(2, 4) == T(11)

    def test_shortest_path_edge_tight_only_from_its_distance(self):
        # Entry (0, 0): D = 1, and the edges of reduced cost 1 out of row
        # 3 reach columns 2 and 3 at distance b = 1 = D, so they are tight
        # and close the cycle of the minor's second optimum.  Entry (0, 3)
        # has D = 0, where they are slack, and the cycle of its second
        # optimum needs the zero-cost edges.
        A = mat("0 -inf 1 1 0\n1 0 1 0 0\n0 -inf 0 1 1\n2 -inf 1 1 -inf\n-inf 1 1 2 0")
        adj = _checked_adjoint(A)
        assert adj.entry(0, 0) == G(4)
        assert adj.entry(0, 3) == G(4)
        assert adj.entry(4, 2) == G(5)
        rows = A.row_tuples
        assert _typed(adj.row_tuples) == _typed(adjoint_assign_reference(rows, _assign(rows), 0))


    def test_equal_distance_columns_joined_by_zero_cost_edges(self):
        # Entry (2, 0): from row 1, every column is at distance 0, and
        # the zero-cost edges 1 -> 0 -> 3 join them, so column 3 is
        # reached directly and through columns 1 and 0: rows 1, 2, 4
        # take columns 3, 0, 1 or 1, 3, 0.  Visiting equal distances in
        # column order, or in the reverse, counts one path.
        A = mat("-inf -inf -inf 1 0\n-inf 1 1 1 -inf\n0 -inf -inf 0 -inf\n"
                "-inf -inf -inf -inf 1\n1 1 -inf 0 1")
        assert permanent(A) == T(4)
        adj = _checked_adjoint(A)
        assert adj.entry(2, 0) == G(3)


def _counting(monkeypatch, name):
    """Count the calls of ``matrices.<name>``, recording the size of
    each call's one argument."""
    calls = []
    wrapped = getattr(matrices, name)

    def counted(arg):
        calls.append(len(arg))
        return wrapped(arg)

    monkeypatch.setattr(matrices, name, counted)
    return calls


def _tie_heavy(rng, n, hi):
    return rand_mat(rng, n, n, lo=0, hi=hi, zero_p=0.2, ghost_p=0.3)


def _typed(adj):
    """The values, value types and ghost flags of adjoint row tuples, or
    None for None."""
    if adj is None:
        return None
    return [[(x.value, type(x.value), x.is_ghost()) for x in r] for r in adj]


def _tied(sol):
    """Whether two permutations reach the optimal cost of the solution
    ``sol = _assign(rows)``, by the DP oracle on its tangible costs."""
    return dp_permanent(Mat([[T(-w) for w in cr] for cr in sol[2]])).is_ghost()


def test_count_route_matches_the_per_minor_reference():
    """The public ``adjoint`` (and ``nabla``, on nonsingular draws)
    against the per-minor cycle test, in values, value types and ghost
    flags, on nonsingular, tie-heavy and mixed-denominator draws of
    sizes 5 to 9.  The count route takes every draw whose whole optimum
    is unique and returns None on every tied one, which ``adjoint`` then
    decides minor by minor."""
    rng = seeded(18)
    optima = {"tied": 0, "unique": 0}
    for n in range(5, 10):
        draws = [rand_nonsingular(rng, n, ghost_p=0.2) for _ in range(12)]
        draws += [_tie_heavy(rng, n, hi) for hi in (1, 3) for _ in range(12)]
        draws += [_mixed_denominators(rng, n) for _ in range(8)]
        for A in draws:
            rows = A.row_tuples
            sol = _assign(rows)
            tied = sol is not None and _tied(sol)
            optima["tied" if tied else "unique"] += 1
            want = _typed(adjoint_assign_reference(rows, sol, 0))
            got = _typed(_adjoint_assign(rows, sol, 0))
            assert got == (None if tied else want), A
            assert _typed(adjoint(A).row_tuples) == want, A
            per, order = _perm_order(rows, sol)
            if per.is_tangible():
                want = _typed(adjoint_assign_reference(rows, sol, per._v))
                # nabla's own route, on a matrix with no adjoint kept
                assert _typed(nabla(Mat(rows)).row_tuples) == want, A
                assert _typed(_adjoint_assign(rows, sol, per._v, order)) == want, A
    assert min(optima.values()) >= 100, optima


def test_zero_cost_edges_at_equal_distance_match_the_per_minor_reference():
    """Nonsingular draws of values 0 and 1, sizes 5 to 9, where many
    columns lie at equal distance joined by zero-cost edges, against the
    per-minor cycle test in values, value types and ghost flags.  Each
    has a unique whole optimum, so a ghost minor comes either from two
    shortest paths or from a ghost or zero entry on its one path; the
    tangible-made minor's permanent tells the two apart."""
    rng = seeded(28)
    by_paths = by_entries = 0
    for n in range(5, 10):
        for _ in range(12):
            A = rand_nonsingular(rng, n, lo=0, hi=1, zero_p=0.3, ghost_p=0.1)
            rows = A.row_tuples
            sol = _assign(rows)
            per, order = _perm_order(rows, sol)
            assert order is not None
            for shift, row_order in ((0, None), (per._v, order)):
                got = _adjoint_assign(rows, sol, shift, row_order)
                assert _typed(got) == _typed(adjoint_assign_reference(rows, sol, shift)), (A, shift)
            for i in range(n):
                for j in range(n):
                    if got[i][j].is_ghost():
                        if permanent(_minor(A, j, i).nu_hat()).is_ghost():
                            by_paths += 1
                        else:
                            by_entries += 1
    assert by_paths >= 1000 and by_entries >= 100, (by_paths, by_entries)


def _contract_draws(rng, n):
    """The inputs of the solver's contract test at size n."""
    draws = [_draw(rng, n, population) for population in POPULATIONS]
    draws.append(rand_mat(rng, n, n, lo=-10**6, hi=10**6, zero_p=0.1, ghost_p=0.2))
    draws.append(_mixed_denominators(rng, n))
    for cut in ("row", "column"):
        rows = [list(r) for r in _draw(rng, n, POPULATIONS[2]).row_tuples]
        k = rng.randrange(n)
        for i in range(n):
            if cut == "row":
                rows[k][i] = ZERO
            else:
                rows[i][k] = ZERO
        draws.append(Mat(rows))
    draws.append(Mat.zeros(n, n))
    rows = [[ZERO] * n for _ in range(n)]
    rows[rng.randrange(n)][rng.randrange(n)] = T(rng.randint(-3, 5))
    draws.append(Mat(rows))
    return draws


def _reduction(cost):
    """The column reduction's matching, column to row, and whether two
    columns reached their least cost first in the same row."""
    taken = {}
    collided = False
    for c, col in enumerate(zip(*cost)):
        r = col.index(min(col))
        if r in taken.values():
            collided = True
        else:
            taken[c] = r
    return taken, collided


def test_solver_meets_its_contract_against_the_loop_it_replaced():
    """``_assign`` against ``helpers.assign_reference``, the loop it
    replaced: a permutation, feasible potentials tight on it, the same
    ``hi``, ``big``, ``cost`` and optimal cost, and, from either solution,
    the same permanent and minors in values, value types and ghost flags.
    The potentials and even the matching may differ, since every optimal
    permutation is tight under every optimal dual."""
    rng = seeded(32)
    collided = through_matched = other_matching = tied = 0
    for n in list(range(1, 15)) + [24]:
        for A in _contract_draws(rng, n):
            rows = A.row_tuples
            sol, ref = _assign(rows), assign_reference(rows)
            if ref is None:
                assert sol is None, A
                continue
            hi, big, cost, u, v, p = sol
            assert (hi, big, cost) == ref[:3], A
            assert sorted(p) == list(range(n)), A
            assert all(type(x) in (int, Fraction) for x in u + v), A
            for r, cr in enumerate(cost):
                assert all(u[r] + v[c] <= w for c, w in enumerate(cr)), (A, r)
            assert all(u[r] + v[c] == cost[r][c] for c, r in enumerate(p)), A
            optimum = sum(cost[r][c] for c, r in enumerate(p))
            assert optimum == sum(cost[r][c] for c, r in enumerate(ref[5])), A
            outs = []
            for s in (sol, ref):
                per, order = _perm_order(rows, s)
                shifts = [0] + ([per._v] if per.is_tangible() else [])
                outs.append((_typed([[per]]), [
                    _typed(_adjoint_assign(rows, s, shift, order)) for shift in shifts]))
            assert outs[0] == outs[1], A
            # None only on a tied whole optimum, whose minors adjoint
            # decides one by one without either solution; the DP oracle
            # stops at 14
            tied += outs[0][1][0] is None
            if n <= 14:
                assert (outs[0][1][0] is None) == _tied(sol), A
            # a row that the reduction matched and that ends in another
            # column moved when a search passed through its column
            taken, hit = _reduction(cost)
            collided += hit
            through_matched += any(p[c] != r for c, r in taken.items())
            other_matching += p != ref[5]
    # the seeded draws give 162, 124, 59 and 90 of 195
    assert collided >= 120 and through_matched >= 90 and other_matching >= 40 and tied >= 60, (
        collided, through_matched, other_matching, tied)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_unique_optimum_runs_no_cycle_test_per_minor(monkeypatch, n):
    # Nonsingular inputs like the benchmark's: adjoint peels the tight
    # graph once for its order, and nabla once for the permanent, whose
    # order it passes on to the minors.  nabla of an equal matrix built
    # apart takes its own route; on A it divides the kept adjoint and
    # peels nothing.
    calls = _counting(monkeypatch, "_peel")
    rng = seeded(180 + n)
    for _ in range(10):
        A = rand_nonsingular(rng, n, ghost_p=0.2)
        del calls[:]
        adjoint(A)
        assert calls == [n]
        del calls[:]
        nabla(Mat(A.row_tuples))
        assert calls == [n]
        del calls[:]
        nabla(A)
        assert calls == []


def _known_optimum_50():
    rng = seeded(50)
    return [
        [T(10) if i == j else T(rng.randint(0, 5)) for j in range(50)]
        for i in range(50)
    ]


def test_50x50_unique_optimum_is_tangible_and_fast():
    A = Mat(_known_optimum_50())
    start = time.perf_counter()
    p = permanent(A)
    assert time.perf_counter() - start < 0.5
    assert p == T(500)


def test_50x50_tight_two_cycle_is_ghost():
    rows = _known_optimum_50()
    rows[17][33] = rows[33][17] = T(10)
    assert permanent(Mat(rows)) == G(500)


def test_nabla_and_quasi_identity_beyond_the_old_reach():
    # n = 16 was out of reach of the n * 2^n expansion inside adjoint.
    A = Mat(_diagonal_heavy(16, off=3))
    left, right = quasi_identity(A)
    assert nabla(A).entry(0, 0) == T(150 - 160)
    for Q in (left, right):
        assert all(Q.entry(i, i) == T(0) for i in range(16))
        assert all(Q.entry(i, j).is_ghost0() for i in range(16) for j in range(16) if i != j)


class TestDpOracle:
    def test_examples(self):
        assert dp_permanent(Mat([[T(5), T(5)], [T(5), T(5)]])) == G(10)
        assert dp_permanent(Mat.diagonal([T(3), G(-1)])) == G(2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            dp_permanent(Mat([[T(0), T(1)]]))

    def test_size_cap(self):
        with pytest.raises(InvalidInputError):
            dp_permanent(Mat.identity(15))
