"""Tropical dependence, ranks, d-bases, and saturation."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from supertropical import (
    DepWitness,
    InvalidInputError,
    Mat,
    ShapeError,
    SpanWitness,
    Vec,
    ZERO,
    annihilator_set,
    d_base,
    depends_on,
    extend_with_tangible,
    g_annihilates,
    is_dependent,
    max_rank,
    projective_normalize,
    rank,
    saturate,
    saturate_by_sup,
    spans,
    sum_saturated,
    sup_witness,
)
from supertropical import dependence
from supertropical.dependence import (
    _chain_candidates,
    _descend,
    _first_solution,
    _has_nonsingular_minor,
    _is_irredundant,
    _iter_supports,
    _last_first,
    _search_witness,
    _tighten,
    _value_rows,
)
from supertropical.matrices import _perm_rows, solve_max
from supertropical.oracles import brute_permanent
from supertropical.scalars import Scalar
from helpers import (
    G,
    T,
    Z,
    _last_values_reference,
    grid_solutions_reference,
    is_irredundant_reference,
    mat,
    rand_mat,
    rand_nonsingular,
    rand_scalar,
    rand_tangible,
    rand_tangible_vec,
    rand_vec,
    rows,
    search_witness_reference,
    saturation_crosschecks,
    seeded,
    sup_assignment,
    vec,
)

V1, V2, V3, V4 = rows("5 5 0\n5 5 4\n0 1 4\n0 2 4")
SUM10 = [V1, V2, V3, V4]
E1, E2 = rows("0 -inf\n-inf 0")


# -- witnesses as values -----------------------------------------------

def test_library_witnesses_equal_their_public_reconstruction():
    # the library builds its witnesses unchecked; each must still be one
    # the public constructor accepts and leaves as it is
    rng = seeded(1515)
    built = spanned = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        S = [rand_vec(rng, n, lo=-2, hi=2) for _ in range(rng.randint(1, 3))]
        v = rand_vec(rng, n, lo=-2, hi=2)
        found = [is_dependent(S), depends_on(v, S)]
        if found[1] is not None and dependence._independent(S):
            found += [saturate(v, S, found[1]), saturate_by_sup(v, S, found[1])]
        for w in filter(None, found):
            built += 1
            assert DepWitness(w.coeffs, w.support, w.target) == w, w
        w = spans(S, v)
        if w is not None:
            spanned += 1
            assert SpanWitness(w.coeffs, w.support, w.ghost_part) == w, w
    assert built > 300, built
    assert spanned > 100, spanned


def test_witness_combination_includes_target():
    w = DepWitness(coeffs=(T(0),), support=(0,), target=vec("1 2"))
    assert w.combination([vec("1 2")]) == vec("1v 2v")
    assert w.is_valid([vec("1 2")])


@pytest.mark.parametrize(
    "coeffs,members,target,valid",
    [
        # a ghost target is ghost where no term passes it tangibly
        ((T(0),), "0 1", "3v 1", True),
        ((T(0),), "5 1", "3v 1", False),
        # a tie at the maximum ghosts the sum, a tie below it does not
        ((T(0), T(1)), "2 0\n1 -1", None, True),
        ((T(0), T(0), T(0)), "1\n1\n2", None, False),
        # a coordinate no term reaches stays zero, which is ghost enough
        ((T(0), T(0)), "1 -inf\n1 -inf", None, True),
        ((T(0), Z), "1 -inf\n4 4", "1v -inf", True),
        ((T(0), Z), "1 -inf\n4 4", "-inf 2", False),
    ],
)
def test_is_valid_pinned(coeffs, members, target, valid):
    S = rows(members)
    t = None if target is None else vec(target)
    support = tuple(i for i, c in enumerate(coeffs) if not c.is_zero())
    w = DepWitness(coeffs=coeffs, support=support, target=t)
    assert w.is_valid(S) is valid
    assert w.combination(S).is_ghost() is valid


def test_is_valid_rejects_bad_families():
    w = DepWitness(coeffs=(T(0), Z), support=(0,), target=vec("1 2"))
    with pytest.raises(ShapeError, match="mixed dimensions"):
        w.is_valid(rows("1 2 3\n4 5 6"))
    with pytest.raises(ShapeError, match="mixed dimensions"):
        w.is_valid([vec("1 2"), vec("1")])
    with pytest.raises(ShapeError, match="coefficient count"):
        w.is_valid([vec("1 2")])
    with pytest.raises(InvalidInputError, match="empty family"):
        w.is_valid([])


def test_is_valid_matches_the_scalar_combination():
    rng = seeded(1401)
    for _ in range(2000):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        S = [rand_vec(rng, n, lo=-2, hi=2) for _ in range(k)]
        support = tuple(i for i in range(k) if rng.random() < 0.6) or (0,)
        coeffs = tuple(rand_tangible(rng, -2, 2) if i in support else Z
                       for i in range(k))
        target = rand_vec(rng, n, lo=-2, hi=2) if rng.random() < 0.6 else None
        w = DepWitness(coeffs=coeffs, support=support, target=target)
        assert w.is_valid(S) == w.combination(S).is_ghost()


# -- dependence decision -----------------------------------------------

def test_dependent_triple():
    w = is_dependent([V1, V2, V3])
    assert w is not None
    assert w.support == (0, 1, 2)
    assert w.coeffs == (T(0), T(0), T(0))
    assert w.combination([V1, V2, V3]) == vec("5v 5v 4v")


def test_independent_triple():
    assert is_dependent([V2, V3, V4]) is None


def test_plane_triple_dependent():
    S = rows("0 -inf\n-inf 0\n0 0")
    w = is_dependent(S)
    assert w is not None
    assert w.coeffs == (T(0), T(0), T(0))
    assert w.is_valid(S)


def test_more_vectors_than_dim_always_dependent(rng):
    for _ in range(30):
        S = [rand_vec(rng, 2) for _ in range(3)]
        w = is_dependent(S)
        assert w is not None and w.is_valid(S)


def test_pure_witness_unit_leading_coefficient(rng):
    # Dependences among a family are scale-normalized: the first
    # coefficient on the support is the unit.
    for _ in range(40):
        S = [rand_vec(rng, 3) for _ in range(rng.randint(1, 3))]
        w = is_dependent(S)
        if w is not None:
            assert w.coeffs[w.support[0]] == T(0)
            assert w.is_valid(S)


def test_depends_on_finds_small_support():
    w = depends_on(vec("4 5"), rows("1 1\n2 3"))
    assert w is not None
    assert w.support == (1,)
    assert w.coeffs[1] == T(2)
    assert w.is_valid(rows("1 1\n2 3"))


def test_depends_on_none_when_unreachable():
    assert depends_on(vec("0 -inf"), [vec("-inf 0")]) is None


# -- rank --------------------------------------------------------------

def test_rank_examples():
    assert rank(mat("4 4 0\n4 4 1\n4 4 2")) == 2
    assert rank(Mat([v.entries for v in SUM10])) == 3
    assert rank(mat("1v 2v\n3v 4v")) == 0


def test_max_rank_examples():
    assert max_rank(SUM10) == 3
    assert max_rank([vec("1 2v")]) == 1
    v = vec("1 3")
    assert max_rank([v, T(2) * v]) == 1


def test_max_rank_bounded_by_dim(rng):
    for _ in range(20):
        S = [rand_vec(rng, 2) for _ in range(rng.randint(1, 4))]
        assert max_rank(S) <= 2


def _oracle_rank(A):
    """Largest k with a k by k submatrix of tangible brute permanent."""
    for k in range(min(A.shape), 0, -1):
        for ri in itertools.combinations(range(A.rows), k):
            for ci in itertools.combinations(range(A.cols), k):
                if brute_permanent(A.submatrix(ri, ci)).is_tangible():
                    return k
    return 0


def test_rank_matches_oracle_minors():
    # ghost-heavy draws exercise the dropped rows and columns
    rng = seeded(12)
    for t in range(400):
        A = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 5),
                     zero_p=0.15, ghost_p=(0.3, 0.8)[t % 2])
        r = _oracle_rank(A)
        assert rank(A) == r, A
        assert (is_dependent(A.row_list()) is None) == (r == A.rows), A
    # two rows with values -1..1: ties at the 2 by 2 terms, which the
    # minor test reads off values and ghost flags
    for t in range(400):
        A = rand_mat(rng, 2, rng.randint(1, 4), lo=-1, hi=1,
                     zero_p=0.2, ghost_p=(0.0, 0.3)[t % 2])
        r = _oracle_rank(A)
        assert rank(A) == r, A
        assert dependence._independent(A.row_list()) == (r == 2), A


def _first_oracle_minor(A, k):
    """The first k by k index sets, row sets before column sets in
    lexicographic order, with a tangible brute permanent, or None."""
    for ri in itertools.combinations(range(A.rows), k):
        for ci in itertools.combinations(range(A.cols), k):
            if brute_permanent(A.submatrix(ri, ci)).is_tangible():
                return ri, ci
    return None


def test_minor_search_returns_its_minor():
    # the draws of test_rank_matches_oracle_minors: the search returns
    # the first nonsingular minor of each size, and None exactly above
    # the rank
    rng = seeded(12)
    draws = [
        rand_mat(rng, rng.randint(1, 4), rng.randint(1, 5),
                 zero_p=0.15, ghost_p=(0.3, 0.8)[t % 2])
        for t in range(400)
    ] + [
        rand_mat(rng, 2, rng.randint(1, 4), lo=-1, hi=1,
                 zero_p=0.2, ghost_p=(0.0, 0.3)[t % 2])
        for t in range(400)
    ]
    found = Counter()
    for A in draws:
        r = rank(A)
        for k in range(1, A.rows + 1):
            minor = _has_nonsingular_minor(A.row_tuples, k)
            assert (minor is None) == (r < k), (A, k)
            assert minor == _first_oracle_minor(A, k), (A, k)
            if minor is not None:
                ri, ci = minor
                sub = [tuple(A.entry(i, j) for j in ci) for i in ri]
                assert _perm_rows(sub).is_tangible(), (A, k)
                found[k] += 1
    assert found[1] > 300 and found[2] > 300 and found[3] > 30, found


def test_rank_of_ghost_heavy_matrices():
    ghosts = Mat([[G(i - j) for j in range(9)] for i in range(9)])
    assert rank(ghosts) == 0
    one = Mat([[T(4) if (i, j) == (3, 5) else G(i + j) for j in range(9)]
               for i in range(9)])
    assert rank(one) == 1
    # the rows left after the drop still hold ghost-only columns
    assert rank(mat("0 1v 2v\n1v 2v 3v\n-inf 0v 0")) == 2


# -- d-bases -----------------------------------------------------------

def test_d_base_order_dependent_sizes():
    r1 = d_base(SUM10, order=(0, 1, 2, 3))
    assert r1.kind == "d-base"
    assert r1.indices == (0, 1)
    assert r1.rank == 2

    r2 = d_base(SUM10, order=(1, 2, 3, 0))
    assert r2.indices == (1, 2, 3)
    assert r2.rank == 3


def test_d_base_standard_base_all_orders():
    for order in itertools.permutations(range(2)):
        r = d_base([E1, E2], order=order)
        assert r.rank == 2


def test_d_base_rank_bracket(rng):
    for _ in range(25):
        S = [rand_vec(rng, 3) for _ in range(4)]
        if all(v.is_zero() for v in S):
            continue
        m = max_rank(S)
        ranks = set()
        for order in itertools.permutations(range(4)):
            r = d_base(S, order=order)
            assert r.rank <= m
            ranks.add(r.rank)
        assert m in ranks  # some order attains the maximum


def test_greedy_through_tangible_vector_attains_max(rng):
    # For tangible families, starting the greedy scan at any kept
    # vector still reaches the maximum somewhere among the orders.
    for _ in range(10):
        S = [rand_tangible_vec(rng, 3) for _ in range(3)]
        m = max_rank(S)
        best = max(
            d_base(S, order=order).rank
            for order in itertools.permutations(range(3))
        )
        assert best == m


def test_d_base_rejects_an_order_that_is_not_a_permutation():
    with pytest.raises(InvalidInputError, match="order must be a permutation of the indices"):
        d_base([E1, E2], order=[0, 0])


@pytest.mark.parametrize("order", [[False, True], [1.0, 0.0], [0, "1"]])
def test_d_base_rejects_order_entries_that_are_not_ints(order):
    # a bool passes for an int in a sort and as an index, and a float
    # would fail as an index only after the walk starts
    with pytest.raises(InvalidInputError, match="order must be a permutation of the indices"):
        d_base([E1, E2], order=order)


# -- extension ---------------------------------------------------------

def test_extend_with_tangible_drop_one():
    idx = extend_with_tangible([E1, E2], vec("1 1"))
    assert len(idx) == 1
    kept = [[E1, E2][i] for i in idx] + [vec("1 1")]
    assert is_dependent(kept) is None


def test_extend_with_tangible_partial():
    S = [V1, V2]
    idx = extend_with_tangible(S, V3)
    assert len(idx) == 1
    kept = [S[i] for i in idx] + [V3]
    assert is_dependent(kept) is None


def test_extend_with_tangible_full():
    idx = extend_with_tangible([vec("0 -inf")], vec("1 1"))
    assert sorted(idx) == [0]
    assert is_dependent([vec("0 -inf"), vec("1 1")]) is None


def test_extend_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        extend_with_tangible([V1, V2, V3], vec("0 0 0"))  # dependent S
    with pytest.raises(InvalidInputError):
        extend_with_tangible([E1, E2], vec("0 0v"))  # ghost in v


# -- saturation --------------------------------------------------------

SAT_V = vec("0 1 3")
SAT_S = rows("1 1 2\n1 1 3")


def test_saturate_example():
    w = depends_on(SAT_V, SAT_S)
    assert w is not None
    s = saturate(SAT_V, SAT_S, w)
    assert s.support == (0, 1)
    assert s.coeffs == (T(0), T(0))
    assert s.combination(SAT_S) == vec("1v 1v 3v")


def test_saturate_idempotent():
    w = depends_on(SAT_V, SAT_S)
    s = saturate(SAT_V, SAT_S, w)
    assert saturate(SAT_V, SAT_S, s) == s


def test_saturate_standard_base():
    v = vec("4 7")
    w = depends_on(v, [E1, E2])
    s = saturate(v, [E1, E2], w)
    assert s.coeffs == (T(4), T(7))


def test_saturate_rejects_invalid_witness():
    bad = DepWitness(coeffs=(T(9), Z), support=(0,), target=SAT_V)
    with pytest.raises(InvalidInputError):
        saturate(SAT_V, SAT_S, bad)


def test_saturate_dominates_input(rng):
    for _ in range(40):
        inst = _random_dependence(rng)
        if inst is None:
            continue
        v, S, w = inst
        s = saturate(v, S, w)
        assert s.support == w.support
        for i in w.support:
            assert s.coeffs[i].nu_ge(w.coeffs[i])
        assert s.is_valid(S)


def test_saturation_routes_agree(rng):
    # saturate and saturate_by_sup both take the greatest valid grid
    # assignment from the same descent, so their agreement shows only
    # that the support checks pass; the saturated witness itself is
    # checked by routes outside the descent: the brute grid check on
    # these two-member supports, and solve_max on square tangible
    # families with free targets, where the support is often full
    hits = 0
    for _ in range(60):
        inst = _random_dependence(rng)
        if inst is None:
            continue
        v, S, w = inst
        s = saturate(v, S, w)
        assert s == saturate_by_sup(v, S, w)
        assert saturation_crosschecks(v, S, s) == (False, True)
        hits += 1
    assert hits >= 20
    rng = seeded(1616)
    solved = 0
    for _ in range(200):
        S = [rand_tangible_vec(rng, 3) for _ in range(3)]
        v = rand_tangible_vec(rng, 3)
        if is_dependent(S) is not None:
            continue
        w = depends_on(v, S)
        s = saturate(v, S, w)
        assert s == saturate_by_sup(v, S, w)
        solved += saturation_crosschecks(v, S, s)[0]
    assert solved > 80, solved


@pytest.mark.parametrize("error, match, v, S, w, by_sup", [
    (InvalidInputError, "target", SAT_V, SAT_S,
     DepWitness((T(0), T(0)), (0, 1), vec("0 1 4")), True),
    (ShapeError, "length", SAT_V, SAT_S,
     DepWitness((T(0), T(0), Z), (0, 1), SAT_V), True),
    # a dependent family, with a valid witness on it
    (InvalidInputError, "independent", vec("0 0"), rows("0 0\n1 1"),
     DepWitness((T(0), Z), (0,), vec("0 0")), True),
    # a valid witness whose first member alone already is one: only
    # saturate requires an irredundant support
    (InvalidInputError, "reducible", vec("0 0"), rows("0 0\n0 1"),
     DepWitness((T(0), T(-5)), (0, 1), vec("0 0")), False),
    # anything but a dependence witness is a type error, before any
    # attribute of it is read
    (TypeError, "DepWitness", SAT_V, SAT_S,
     SpanWitness((T(0), T(0)), (0, 1), vec("-inf -inf -inf")), True),
    (TypeError, "DepWitness", SAT_V, SAT_S, None, True),
])
def test_saturate_rejects_inputs(error, match, v, S, w, by_sup):
    with pytest.raises(error, match=match):
        saturate(v, S, w)
    if by_sup:
        with pytest.raises(error, match=match):
            saturate_by_sup(v, S, w)
    else:
        assert saturate_by_sup(v, S, w).coeffs == (T(0), T(-1))


def test_dependent_family_with_target_need_not_carry_a_witness():
    # a target that is ghost or zero everywhere is a dependence on its
    # own, so the family with it appended is dependent although no
    # witness holds a member: for such targets a dependent T with v does
    # not promise a witness on T
    v, S = vec("0v -inf"), [vec("0 0")]
    assert not dependence._independent(S + [v])
    assert depends_on(v, S) is None


def _random_dependence(rng, n=3, k=2):
    """Draw (v, S, witness) with v dependent on an independent S, or
    None when the draw fails."""
    S = [rand_tangible_vec(rng, n, lo=-2, hi=3) for _ in range(k)]
    if is_dependent(S) is not None:
        return None
    coeffs = [rand_tangible(rng, lo=-2, hi=3) for _ in range(k)]
    comb = Vec([ZERO] * n)
    for c, s in zip(coeffs, S):
        comb = comb + c * s
    v = comb.nu_hat()
    if not v.is_tangible():
        return None
    w = depends_on(v, S)
    if w is None:
        return None
    return v, S, w


# -- supremum of witnesses ---------------------------------------------

SUP_V = vec("3 20 20")
SUP_S = rows("1 4 3\n2 3 4\n0 20 20")


def test_sup_witness_example():
    w1 = DepWitness(coeffs=(Z, T(1), T(0)), support=(1, 2), target=SUP_V)
    w2 = DepWitness(coeffs=(T(2), Z, T(0)), support=(0, 2), target=SUP_V)
    assert w1.is_valid(SUP_S) and w2.is_valid(SUP_S)
    g = sup_witness(w1, w2, SUP_S)
    assert g.coeffs == (T(2), T(1), T(0))
    assert g.combination(SUP_S) == vec("3v 20v 20v")


def test_sup_witness_idempotent():
    w = DepWitness(coeffs=(Z, T(1), T(0)), support=(1, 2), target=SUP_V)
    assert sup_witness(w, w, SUP_S) == w


def test_sup_witness_disjoint_supports():
    v = vec("0 0")
    S = rows("0 0v\n0v 0")
    w1 = DepWitness(coeffs=(T(0), Z), support=(0,), target=v)
    w2 = DepWitness(coeffs=(Z, T(0)), support=(1,), target=v)
    assert w1.is_valid(S) and w2.is_valid(S)
    g = sup_witness(w1, w2, S)
    assert g.support == (0, 1)
    assert g.coeffs == (T(0), T(0))


def test_sup_witness_target_mismatch():
    w1 = DepWitness(coeffs=(T(0),), support=(0,), target=vec("1 1"))
    w2 = DepWitness(coeffs=(T(0),), support=(0,), target=vec("2 2"))
    with pytest.raises(InvalidInputError):
        sup_witness(w1, w2)


def test_sup_witness_rejects_different_lengths():
    with pytest.raises(ShapeError, match="witness lengths differ"):
        sup_witness(DepWitness((T(0),), (0,)), DepWitness((T(0), Z), (0,)))


# -- sums of saturated dependences -------------------------------------

def test_sum_saturated_same_target():
    v = vec("1 2")
    w = saturate(v, [E1, E2], depends_on(v, [E1, E2]))
    s = sum_saturated(w, w, [E1, E2])
    assert s.coeffs == w.coeffs
    assert s.target == v.nu()


def test_sum_saturated_standard_base():
    va, vb = vec("1 2"), vec("2 1")
    wa = saturate(va, [E1, E2], depends_on(va, [E1, E2]))
    wb = saturate(vb, [E1, E2], depends_on(vb, [E1, E2]))
    s = sum_saturated(wa, wb, [E1, E2])
    assert s.coeffs == (T(2), T(2))
    assert s.target == vec("2 2")
    assert s.is_valid([E1, E2])


def test_sum_saturated_sum10_pair():
    S = [V1, V2]
    w3 = saturate(V3, S, depends_on(V3, S))
    w4 = saturate(V4, S, depends_on(V4, S))
    s = sum_saturated(w3, w4, S)
    assert s.target == V3 + V4
    assert s.is_valid(S)
    for i in s.support:
        assert s.coeffs[i] == (w3.coeffs[i] + w4.coeffs[i]).nu_hat()


def test_sum_saturated_needs_two_targets():
    v = vec("1 2")
    w = saturate(v, [E1, E2], depends_on(v, [E1, E2]))
    with pytest.raises(InvalidInputError, match="both witnesses need targets"):
        sum_saturated(w, DepWitness(w.coeffs, w.support))


def test_sum_saturated_rejects_unsaturated():
    v = vec("1v 1v 3v")
    low = DepWitness(coeffs=(T(-1), T(0)), support=(0, 1), target=v)
    assert low.is_valid(SAT_S)
    with pytest.raises(InvalidInputError):
        sum_saturated(low, low, SAT_S)


def test_sum_saturated_needs_full_support():
    # A witness maximal over its own support but silent on one member
    # is not saturated: the missing coefficient could be raised from
    # zero to a finite value.  Summing such a witness undersaturates,
    # so the validated form refuses it.
    S = rows("2 2 0\n3 -1 -3\n5 -1 3")
    v1, v2 = vec("4 2 1"), vec("7 4 5")
    s1 = saturate(v1, S, depends_on(v1, S))
    s2 = saturate(v2, S, depends_on(v2, S))
    assert s1.support == (0, 1, 2)
    assert s1.coeffs == (T(0), T(1), T(-2))
    assert s2.support == (0, 2)
    assert s2.coeffs == (T(2), Z, T(2))
    with pytest.raises(InvalidInputError):
        sum_saturated(s1, s2, S)
    # without the family the caller is on their own: the sum is a
    # valid witness, but its middle coefficient stops at 1 where 4
    # still works
    loose = sum_saturated(s1, s2)
    assert loose.coeffs == (T(2), T(1), T(2))
    assert loose.is_valid(S)
    bumped = DepWitness(coeffs=(T(2), T(4), T(2)), support=(0, 1, 2),
                        target=loose.target)
    assert bumped.is_valid(S)


def test_sum_saturated_full_support_inputs():
    # the same pair with the second witness extended to its true
    # maximum over the whole family sums to the saturated witness
    S = rows("2 2 0\n3 -1 -3\n5 -1 3")
    v1, v2 = vec("4 2 1"), vec("7 4 5")
    s1 = saturate(v1, S, depends_on(v1, S))
    full = DepWitness(coeffs=(T(2), T(4), T(2)), support=(0, 1, 2),
                      target=v2)
    assert full.is_valid(S)
    assert saturate_by_sup(v2, S, full).coeffs == full.coeffs
    out = sum_saturated(s1, full, S)
    assert out.coeffs == (T(2), T(4), T(2))
    assert out.target == vec("7 4 5")
    assert out.is_valid(S)


# -- annihilators ------------------------------------------------------

def test_annihilator_set_example():
    A = mat("4 4 0\n4 4 1\n4 4 2")
    anns = annihilator_set(A)
    assert len(anns) >= 1
    for v in anns:
        assert v.is_tangible()
        assert g_annihilates(A, v)
    assert is_dependent(anns) is None
    # the instance also admits these two independent annihilators
    assert g_annihilates(A, vec("1 1 0"))
    assert g_annihilates(A, vec("1 1 1"))
    assert is_dependent([vec("1 1 0"), vec("1 1 1")]) is None


def test_annihilator_set_nonsingular_empty():
    assert annihilator_set(mat("0 -inf\n-inf 0")) == []


def test_annihilator_set_all_ghost():
    anns = annihilator_set(mat("1v 2v\n3v 4v"))
    assert len(anns) == 2
    assert is_dependent(anns) is None
    for v in anns:
        assert v.is_tangible()


def test_annihilator_set_generated(rng):
    for _ in range(20):
        A = Mat([rand_vec(rng, 3).entries for _ in range(rng.randint(1, 3))])
        m = rank(A)
        anns = annihilator_set(A)
        assert len(anns) >= 3 - m
        for v in anns:
            assert g_annihilates(A, v)
        if anns:
            assert is_dependent(anns) is None


def _witness_key(w):
    # DepWitness equality does not see an int against an equal Fraction.
    if w is None:
        return None
    return w.support, w.target, [(c, type(c.value)) for c in w.coeffs]


def _one_member_families():
    """Seeded families of 1-4 members in 1-3 coordinates, halves included,
    with zero and all-ghost members mixed in."""
    rng = seeded(1313)
    for _ in range(500):
        n, denom = rng.randint(1, 3), rng.choice([1, 2])
        S = []
        for _ in range(rng.randint(1, 4)):
            r = rng.random()
            if r < 0.1:
                S.append(Vec([ZERO] * n))
            elif r < 0.3:
                S.append(rand_vec(rng, n, lo=-2, hi=3, zero_p=0.3, ghost_p=1.0, denom=denom))
            else:
                S.append(rand_vec(rng, n, lo=-2, hi=3, zero_p=0.2, ghost_p=0.2, denom=denom))
        yield S


def test_one_member_route_matches_the_walk(monkeypatch):
    """``_search_witness`` reads one-member dependences off ghost flags;
    ``is_dependent`` and ``annihilator_set`` give what the walk over every
    support from one member up gives."""
    fams = list(_one_member_families())
    singles = 0
    for S in fams:
        w = _search_witness(S, None)
        assert _witness_key(w) == _witness_key(search_witness_reference(S, None)), S
        singles += w is not None and len(w.support) == 1
    assert singles > 100, singles

    def results():
        out = []
        for S in fams:
            anns = annihilator_set(Mat.from_cols(S))
            typed = [(v, [type(x.value) for x in v]) for v in anns]
            out.append((_witness_key(is_dependent(S)), typed))
        return out

    new = results()
    monkeypatch.setattr(dependence, "_search_witness", search_witness_reference)
    assert results() == new


# -- the minor filter --------------------------------------------------

def _digest_shaped_searches():
    """Seeded (family, target) pairs of the digest's shapes: 1-3 members
    in 1-3 coordinates with values -2..2 (zero 0.15, ghost 0.3 unless the
    family is tangible), with a free target and without one; tangible
    3x3 families with values -3..5 and a target built on all three
    members; and four tangible vectors in three coordinates."""
    rng = seeded(1717)
    for _ in range(1000):
        n = rng.randint(1, 3)
        ghost_p = 0.0 if rng.random() < 0.4 else 0.3
        S = [rand_vec(rng, n, lo=-2, hi=2, zero_p=0.15, ghost_p=ghost_p)
             for _ in range(rng.randint(1, 3))]
        yield S, None
        yield S, rand_vec(rng, n, lo=-2, hi=2, zero_p=0.15, ghost_p=0.3)
    for _ in range(60):
        S = [rand_tangible_vec(rng, 3) for _ in range(3)]
        cs = [rand_tangible(rng) for _ in range(3)]
        v = Vec([(cs[0] * S[0][j] + cs[1] * S[1][j] + cs[2] * S[2][j]).nu_hat()
                 for j in range(3)])
        yield S, v
        yield [*S, rand_tangible_vec(rng, 3)], None


def test_filtered_search_matches_the_unfiltered_one():
    """Skipping the supports that are independent together with the
    target changes no witness, on independent and dependent families."""
    kinds = Counter()
    for S, target in _digest_shaped_searches():
        got = _search_witness(S, target)
        want = search_witness_reference(S, target)
        assert _witness_key(got) == _witness_key(want), (S, target)
        kinds[target is None, dependence._independent(S), got is None] += 1
    # (no target, independent, none found), ..., one count per kind that
    # can occur: without a target a family has a witness iff dependent
    assert len(kinds) == 6, kinds
    assert min(kinds.values()) > 20, kinds


def test_a_failed_walk_on_a_dependent_support_raises(monkeypatch):
    """On an independent family, the first support that is dependent
    together with the target carries the witness; a walk that finds none
    there is an error, unless the target is ghost or zero everywhere."""
    walk = dependence._first_solution

    def gap_at_01(vectors, target, support):
        return None if support == (0, 1) else walk(vectors, target, support)

    S, v = [E1, E2], vec("0 0")
    assert _witness_key(depends_on(v, S)) == _witness_key(
        DepWitness((T(0), T(0)), (0, 1), v))
    monkeypatch.setattr(dependence, "_first_solution", gap_at_01)
    with pytest.raises(AssertionError, match="minor criterion"):
        depends_on(v, S)
    monkeypatch.setattr(dependence, "_first_solution", lambda *a: None)
    # a target that is a dependence on its own, and a dependent family
    assert depends_on(vec("0v 0v"), S) is None
    assert depends_on(v, [E1, E1, E2]) is None


def test_skipped_supports_are_not_walked(monkeypatch):
    """The search walks a support only once it survives the minor test:
    none when every support is skipped, and then only that support."""
    walked = []
    walk = dependence._first_solution

    def counted(vectors, target, support):
        walked.append(support)
        return walk(vectors, target, support)

    monkeypatch.setattr(dependence, "_first_solution", counted)
    assert _search_witness([E1, E2], None) is None
    assert depends_on(vec("0 -inf"), [E2]) is None
    assert walked == []
    w = _search_witness([E1, vec("1 -inf"), E2], None)
    assert w.support == (0, 1)
    assert walked == [(0, 1)]


def test_irredundance_matches_the_walk_over_every_sub_support():
    """Deciding irredundance by the sub-supports one member short agrees
    with walking every dependent proper sub-support, on valid witnesses
    over independent families, irredundant and reducible."""
    rng = seeded(1718)
    kinds = Counter()
    for _ in range(400):
        k = rng.randint(1, 3)
        n = rng.randint(k, 4)
        S = [rand_tangible_vec(rng, n, lo=-2, hi=3) for _ in range(k)]
        if not dependence._independent(S):
            continue
        r = rng.random()
        if r < 0.1:
            v = Vec([rand_scalar(rng, lo=-2, hi=3, zero_p=0.3, ghost_p=1.0) for _ in range(n)])
        elif r < 0.4:
            v = rand_vec(rng, n, lo=-2, hi=3, zero_p=0.2, ghost_p=0.3)
        else:
            acc = Vec([ZERO] * n)
            for s in S:
                if rng.random() < 0.8:
                    acc = acc + rand_tangible(rng, lo=-2, hi=2) * s
            v = acc.nu_hat()
        for support in _iter_supports(k):
            if _first_solution(S, v, support) is None:
                continue
            got = _is_irredundant(v, S, support)
            assert got == is_irredundant_reference(v, S, support), (v, S, support)
            kinds[v.is_ghost(), got] += 1
    assert kinds[False, True] > 200 and kinds[False, False] > 150, kinds
    assert kinds[True, True] > 30 and kinds[True, False] > 15, kinds


# -- invariance properties ---------------------------------------------

def test_scaling_invariance(rng):
    for _ in range(30):
        S = [rand_vec(rng, 3) for _ in range(3)]
        alphas = [rand_tangible(rng) for _ in range(3)]
        scaled = [a * v for a, v in zip(alphas, S)]
        assert (is_dependent(S) is None) == (is_dependent(scaled) is None)


def test_projective_normalize():
    assert projective_normalize(vec("2 5 -inf")) == vec("0 3 -inf")
    assert projective_normalize(vec("-inf 3v 1")) == vec("-inf 0v -2")
    zero = vec("-inf -inf")
    assert projective_normalize(zero) is zero


# -- the pruned grid walk ----------------------------------------------

def _flat_grid_solutions(vectors, target, support):
    """Every valid coefficient list of one support, whose first entry is
    ``_first_solution``'s: the whole candidate grid in product order,
    each tuple checked with scalar arithmetic."""
    rows_ = _value_rows(vectors, support)
    tvals = tuple(x.value for x in target) if target is not None else None
    out = []
    for tup in itertools.product(*_chain_candidates(rows_, tvals)):
        cs = [Scalar(v) for v in tup]
        for j in range(vectors[support[0]].dim):
            acc = target[j] if target is not None else ZERO
            for i, c in zip(support, cs):
                acc = acc + c * vectors[i][j]
            if not acc.is_ghost0():
                break
        else:
            out.append(cs)
    return out


def _first(solutions):
    """The first of the listed or walked solutions, or None."""
    return next(iter(solutions), None)


def _typed(cs):
    """A coefficient list as values with their types and ghost flags."""
    return cs and [(c.value, type(c.value), c.is_ghost()) for c in cs]


def _walk_matches_flat(S, target):
    for size in range(1, len(S) + 1):
        for support in itertools.combinations(range(len(S)), size):
            got = _first_solution(S, target, support)
            want = _first(_flat_grid_solutions(S, target, support))
            assert _typed(got) == _typed(want), (S, target, support)


def test_grid_walk_matches_flat_product_small():
    rng = seeded(9)
    for _ in range(3000):
        n = rng.randint(1, 3)
        S = [rand_vec(rng, n, lo=-2, hi=2, zero_p=0.15, ghost_p=0.3)
             for _ in range(rng.randint(1, 3))]
        target = rand_vec(rng, n, lo=-2, hi=2) if rng.random() < 0.5 else None
        _walk_matches_flat(S, target)


def test_grid_walk_matches_flat_product_tangible_3x3():
    # full supports here have grids of hundreds of tuples, where the
    # pruning drops most prefixes
    rng = seeded(10)
    hits = 0
    for _ in range(12):
        S = [rand_tangible_vec(rng, 3, lo=-3, hi=5) for _ in range(3)]
        target = rand_tangible_vec(rng, 3, lo=-3, hi=5) if rng.random() < 0.7 else None
        _walk_matches_flat(S, target)
        hits += _first_solution(S, target, (0, 1, 2)) is not None
    assert hits >= 3


def test_grid_walk_matches_flat_product_halves():
    rng = seeded(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        S = [rand_vec(rng, n, lo=-4, hi=4, denom=2) for _ in range(rng.randint(1, 3))]
        target = rand_vec(rng, n, lo=-4, hi=4, denom=2) if rng.random() < 0.5 else None
        _walk_matches_flat(S, target)


def test_grid_walk_matches_the_candidate_by_candidate_walk():
    # every support of families of 1-4 members: the same first solution,
    # values and value types, as the walk that tries the second-to-last
    # member's candidates one by one
    rng = seeded(1516)
    walks = 0
    for _ in range(250):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        # wider values only below four members, where the grids stay small
        lo, hi = rng.choice(((-1, 1), (-2, 2))) if k < 4 else (-1, 1)
        kw = dict(lo=lo, hi=hi, zero_p=rng.choice((0, 0.2)),
                  ghost_p=rng.choice((0, 0.2, 0.3)), denom=rng.choice((1, 2, 3)))
        S = [rand_vec(rng, n, **kw) for _ in range(k)]
        target = rand_vec(rng, n, **kw) if rng.random() < 0.5 else None
        for size in range(1, len(S) + 1):
            for support in itertools.combinations(range(len(S)), size):
                got = _first_solution(S, target, support)
                want = _first(grid_solutions_reference(S, target, support))
                assert _typed(got) == _typed(want), (S, target, support)
                walks += 1
    assert walks > 1500, walks


@pytest.mark.parametrize("members, target, want", [
    # the first member's breakpoint 3 - 1 = 2 is one of its candidates:
    # below it the last member must tie the target's tangible 3, at it
    # the tie turns the coordinate ghost and the last member need only
    # stay at or below 3
    ("1\n0", "3", [[-1, 3], [0, 3], [2, 0], [2, 1], [2, 3]]),
    # a tangible target coordinate where neither member has an entry
    ("0 -inf\n0 -inf", "1 2", []),
    # a ghost target over ghost entries bounds nothing: every pair
    ("0v\n0v", "1v", [[0, 0], [0, 1], [1, 0], [1, 1]]),
])
def test_pair_step_pinned(members, target, want):
    S, t = rows(members), vec(target)
    want = [[T(a), T(b)] for a, b in want]
    assert _first_solution(S, t, (0, 1)) == _first(want)
    assert _flat_grid_solutions(S, t, (0, 1)) == want


def test_pair_step_without_stack_levels():
    # a two-member support goes straight to the scan: the tie
    # between the members (c1 = c0 + 1 at both coordinates) is the only
    # dependence, and every candidate pair on that line is valid
    S = rows("1 2\n0 1")
    want = [[T(c), T(c + 1)] for c in (-1, 0)]
    assert _flat_grid_solutions(S, None, (0, 1)) == want
    assert _first_solution(S, None, (0, 1)) == want[0]


def test_grid_walk_prunes_a_hopeless_target():
    # the target's tangible 9 is above anything the member can reach
    S = [vec("0 0")]
    assert _first_solution(S, vec("9 -inf"), (0,)) is None
    assert _first_solution(S, vec("9v 0"), (0,)) == [T(0)]


def test_descent_reaches_the_supremum():
    # valid assignments on one support are closed under the coordinatewise
    # join, so the supremum of all of them is the greatest one; the
    # descent reaches it on the chain candidates, and finds none exactly
    # when the grid holds no solution
    rng = seeded(12)
    hits = 0
    for _ in range(600):
        n = rng.randint(1, 3)
        denom = rng.choice((1, 2))
        S = [rand_vec(rng, n, lo=-3, hi=3, denom=denom) for _ in range(rng.randint(1, 3))]
        target = rand_vec(rng, n, lo=-3, hi=3, denom=denom) if rng.random() < 0.7 else None
        for size in range(1, len(S) + 1):
            for support in itertools.combinations(range(len(S)), size):
                top = _descend(*dependence._levels(S, target, support))
                flat = _flat_grid_solutions(S, target, support)
                if not flat:
                    assert top is None, (S, target, support, top)
                    continue
                hits += 1
                assert [T(c) for c in top] == sup_assignment(flat), (S, target, support)
    assert hits > 1000, hits


def _given_levels(S, cand):
    """The walk's levels over the given candidate lists, one per member
    of S: candidates, entry values and ghost flags."""
    return [
        (dom, tuple(x.value for x in v), tuple(x.is_ghost() for x in v))
        for dom, v in zip(cand, S)
    ]


def _start(target):
    t = vec(target)
    return [x.value for x in t], [x.is_ghost() for x in t]


@pytest.mark.parametrize("members, doms, target, want", [
    # above 1 the tangible 0 + c0 is the unique maximum over the ghost
    # target 0v and the ghost member's 0v + 1, so c0 drops to the
    # largest candidate at or below 1
    ("0\n0v", [[0, 1, 2, 3], [0, 1]], "0v", [1, 1]),
    # the first member drops to 2 at coordinate 0 and then to 1 at
    # coordinate 1, which leaves the tangible target 2 alone at
    # coordinate 0: every coordinate is read again after a drop
    ("0 0\n-inf 0v", [[0, 1, 2, 3], [0, 1]], "2 -inf", None),
    # the tangible target 3 is the unique maximum
    ("0", [[0, 1]], "3", None),
    # the member's term must come down to the ghost target's 0, and it
    # has no candidate that low
    ("0", [[1, 2]], "0v", None),
    # a tangible term with no other term at its coordinate
    ("0", [[0]], "-inf", None),
    # a ghost entry's term is the unique maximum: the sum is ghost and
    # nothing moves
    ("0v\n0", [[0, 1, 2], [0]], "-inf", [2, 0]),
])
def test_descend_pinned(members, doms, target, want):
    assert _descend(_given_levels(rows(members), doms), *_start(target)) == want


@pytest.mark.parametrize("members, doms, target, want", [
    # the first member's breakpoint 3 - 1 = 2: below it the last member
    # must tie the target's tangible 3, which it cannot, and at it the
    # tie turns the coordinate ghost, so the last member need only stay
    # at or below 3
    ("1\n0", [[1, 2], [0, 1]], "3", [2, 0]),
    # a ghost target over ghost entries bounds neither the last member
    # nor a first member whose ghost term leads
    ("0v\n0v", [[0], [2]], "1v", [0, 2]),
    ("0v\n0v", [[2], [0]], "1v", [2, 0]),
], ids=["breakpoint", "ghost-last", "ghost-lead"])
def test_two_member_scan_pinned(monkeypatch, members, doms, target, want):
    # candidate lists on which the first completion rests on one rule,
    # given to the search in place of the chain candidates
    monkeypatch.setattr(dependence, "_chain_candidates",
                        lambda rows, tvals: tuple(map(tuple, doms)))
    assert _first_solution(rows(members), vec(target), (0, 1)) == [T(c) for c in want]


@pytest.mark.parametrize("member, dom, target, want", [
    # a tangible target over a tangible entry bounds the last member
    # above by the tie value 3, a tangible one over a ghost entry only
    # below by 2, and a ghost target over a tangible entry above by 2
    ("0 0", [4], "3 5v", None),
    ("0v 0v", [4], "2 4v", 4),
    ("0 0v", [3], "2v 4v", None),
], ids=["tie-only", "tie-or-more", "tie-or-less"])
def test_last_first_pinned(member, dom, target, want):
    (level,) = _given_levels(rows(member), [dom])
    assert _last_first(level, *_start(target)) == want


def test_last_first_is_the_least_of_the_reference_slice():
    # the closed form against the least value of the reference's slice
    # of valid last values, on drawn candidate lists, entries and prefix
    # sums with ghosts, zeros and halves; both answers must occur often
    rng = seeded(3301)
    found = Counter()
    for _ in range(3000):
        n, denom = rng.randint(1, 4), rng.choice((1, 2))
        kw = dict(lo=-3, hi=3, zero_p=0.2, ghost_p=0.3, denom=denom)
        dom = sorted({Fraction(rng.randint(-6, 6), denom) for _ in range(rng.randint(1, 6))})
        member, prefix = rand_vec(rng, n, **kw), rand_vec(rng, n, **kw)
        (level,) = _given_levels([member], [dom])
        start = [x.value for x in prefix], [x.is_ghost() for x in prefix]
        want = _last_values_reference(*level, *start)
        got = _last_first(level, *start)
        assert got == (want[0] if want else None), (dom, member, prefix)
        found[got is not None] += 1
    assert min(found.values()) >= 500, found


# -- the Cramer bound --------------------------------------------------

def test_cramer_bound_covers_every_grid_solution():
    # the lemma that puts the greatest valid assignment, where the walk
    # is cut, at or below every Cramer bound, with no walk: on
    # nonsingular square families every valid grid assignment lies at or
    # below the greatest tangible solution of the transposed system, for
    # ghost and zero targets too; a zero bound leaves no tangible
    # coefficient, and a finite one is a candidate of its member
    rng = seeded(2101)
    solutions = 0
    for _ in range(150):
        k = rng.randint(1, 3)
        kw = dict(lo=-2, hi=3, zero_p=0.15, ghost_p=0.2)
        S = rand_nonsingular(rng, k, **kw).row_list()
        v = rand_vec(rng, k, lo=-2, hi=3, zero_p=0.2, ghost_p=0.3)
        bound = solve_max(Mat(S).transpose(), v)
        support = tuple(range(k))
        cand = _chain_candidates(_value_rows(S, support), tuple(x.value for x in v))
        for i, b in enumerate(bound):
            assert b.is_zero() or b.value in cand[i], (S, v, bound)
        for cs in _flat_grid_solutions(S, v, support):
            solutions += 1
            for c, b in zip(cs, bound):
                assert not b.is_zero() and c.value <= b.value, (S, v, cs, bound)
    assert solutions > 1000, solutions


def test_clipped_walk_matches_the_uncut_walk():
    # three-member supports in three and four coordinates, against the
    # walk on the whole grid; the cut at the greatest valid assignment
    # must shorten some member's candidates (or find none left) on a few
    # hundred of them
    rng = seeded(2102)
    support, cut = (0, 1, 2), 0
    for _ in range(700):
        n = rng.choice((3, 4))
        kw = dict(lo=-2, hi=3, zero_p=0.15, ghost_p=0.2)
        S = [rand_vec(rng, n, **kw) for _ in range(3)]
        target = rand_vec(rng, n, **kw)
        levels, *start = dependence._levels(S, target, support)
        top = _descend(levels, *start)
        cut += top is None or any(c < dom[-1] for c, (dom, _, _) in zip(top, levels))
        got = _first_solution(S, target, support)
        want = list(grid_solutions_reference(S, target, support))
        assert _typed(got) == _typed(_first(want)), (S, target)
        # every solution lies inside the cut lists
        for cs in want:
            assert top and all(c.value <= t for c, t in zip(cs, top)), (S, target, cs)
    assert cut > 300, cut


def _cut_and_tightened(levels, tvals, tghosts):
    """The step before a walk of three or more members with a target, as
    the candidate lists cut at the greatest valid assignment and those
    lists raised by the floors; None when the descent finds no valid
    assignment.  The greatest valid assignment must survive the floors."""
    top = _descend(levels, tvals, tghosts)
    if top is None:
        return None
    cut = [(dom[:dom.index(c) + 1], row, grow) for c, (dom, row, grow) in zip(top, levels)]
    tight = [dom for dom, _, _ in _tighten(cut, tvals, tghosts)]
    assert all(c in dom for c, dom in zip(top, tight)), (levels, top, tight)
    return [dom for dom, _, _ in cut], tight


@pytest.mark.parametrize("members, doms, target, want", [
    # the cut at the greatest valid assignment (1, 1): above 1 the
    # tangible 0 + c0 is the unique maximum over the ghost target 0v and
    # the ghost member's 0v + 1
    ("0\n0v", [[0, 1, 2, 3], [0, 1]], "0v", [[0, 1], [0, 1]]),
    # target floor: only the first member reaches the tangible target 2
    ("0v\n0", [[0, 1, 2, 3], [0, 1]], "2", [[2, 3], [0, 1]]),
    # term-demand floor: the first member's term is at least 1, above the
    # target's 0v, and only the second member can reach it
    ("0\n0v\n0", [[1, 2], [0, 1, 2], [0]], "0v", [[1, 2], [1, 2], [0]]),
    # no member reaches the tangible target 3: no valid assignment
    ("0\n0", [[0, 1], [0, 2]], "3", None),
    # the first member's floor 2 (coordinate 0) lies above the largest
    # value, 1, that keeps coordinate 1 ghost: no valid assignment
    ("0 0\n-inf 0v", [[0, 1, 2, 3], [0, 1]], "2 -inf", None),
])
def test_tighten_pinned(members, doms, target, want):
    got = _cut_and_tightened(_given_levels(rows(members), doms), *_start(target))
    assert (got and got[1]) == want


def test_tightened_walk_matches_the_reference():
    # four- and five-member supports with targets: the first solution
    # against the walk with neither the cut nor the floors, whose first
    # 50 solutions must lie in the cut and floored lists (some supports
    # have over 10^5).  The step before the walk (the cut and the floors)
    # must shorten most chain lists or find no valid assignment, the
    # descent must prove some supports empty, and the floors alone must
    # still shorten some lists after the cut
    rng = seeded(2202)
    short = empty = floors = 0
    for _ in range(150):
        k = rng.choice((4, 5))
        n = rng.randint(3, 9 - k)
        kw = dict(lo=-1, hi=rng.choice((1, 2)) if k == 4 else 1,
                  zero_p=rng.choice((0.15, 0.3)), ghost_p=rng.choice((0.2, 0.3)),
                  denom=rng.choice((1, 1, 2)))
        S = [rand_vec(rng, n, **kw) for _ in range(k)]
        target = rand_vec(rng, n, **kw)
        support = tuple(range(k))
        levels, *start = dependence._levels(S, target, support)
        lists = _cut_and_tightened(levels, *start)
        empty += lists is None
        if lists is not None:
            cut, tight = lists
            short += tight != [dom for dom, _, _ in levels]
            floors += tight != cut
        got = _first_solution(S, target, support)
        want = list(itertools.islice(grid_solutions_reference(S, target, support), 50))
        assert _typed(got) == _typed(_first(want)), (S, target)
        for cs in want:
            assert lists and all(
                c.value in dom for c, dom in zip(cs, lists[1])
            ), (S, target, cs)
    assert short >= 100 and empty >= 5 and floors >= 20, (short, empty, floors)


FAULT1_S = rows(
    "2 -3 4 0 1\n-1 5 2 3 -2\n3 0 -2 5 4\n0 2 1 -3 5\n4 1 5 2 -1"
)
FAULT1_V = vec("1 3 -2 4 0")


def test_five_vector_instance_returns_its_cramer_witness():
    # a full-support grid of 1.6e9 tuples: the cut and the floors leave
    # each member one candidate, and the witness is the Cramer solution
    w = depends_on(FAULT1_V, FAULT1_S)
    assert w.coeffs == tuple(T(c) for c in (-1, -2, -1, -2, -2))
    assert w.support == (0, 1, 2, 3, 4)
    assert saturate_by_sup(FAULT1_V, FAULT1_S, w) == w
    assert saturation_crosschecks(FAULT1_V, FAULT1_S, w) == (True, False)


def test_five_vector_instance_is_tightened_to_one_candidate_each(monkeypatch):
    # the descent gives the witness itself, the cut leaves 33 or 34
    # candidates per member, and the floors one
    seen = []

    def recorded(levels, *start):
        seen.append([len(dom) for dom, _, _ in levels])
        out = _tighten(levels, *start)
        seen.append([list(dom) for dom, _, _ in out])
        return out

    monkeypatch.setattr(dependence, "_tighten", recorded)
    support = (0, 1, 2, 3, 4)
    assert _descend(*dependence._levels(FAULT1_S, FAULT1_V, support)) == [-1, -2, -1, -2, -2]
    found = _first_solution(FAULT1_S, FAULT1_V, support)
    assert seen == [[33, 34, 34, 33, 33], [[-1], [-2], [-1], [-2], [-2]]]
    assert found == [T(c) for c in (-1, -2, -1, -2, -2)]


def test_five_vector_chain_grid_is_built_once_per_support(monkeypatch):
    # depends_on builds each support's grid that it walks, and the
    # saturation of its witness reads the witness support's grid back
    walked = []
    levels = dependence._levels

    def recorded(vectors, target, support):
        walked.append(support)
        return levels(vectors, target, support)

    monkeypatch.setattr(dependence, "_levels", recorded)
    grid = dependence._chain_candidates
    grid.cache_clear()
    saturate(FAULT1_V, FAULT1_S, depends_on(FAULT1_V, FAULT1_S))
    info = grid.cache_info()
    assert walked == [(0, 1, 2, 3, 4)] * 2
    assert (info.misses, info.hits) == (len(set(walked)), len(walked) - len(set(walked)))


def test_kept_chain_grid_matches_a_fresh_build():
    # every answer of the kept closure, whether built or read back, is
    # the closure built afresh, on families with ints, halves, ghosts
    # and zeros, with and without a target, on supports of 1-4 members
    rng = seeded(3501)
    grid = dependence._chain_candidates
    grid.cache_clear()
    for _ in range(300):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        kw = dict(lo=-3, hi=3, zero_p=0.2, ghost_p=0.3, denom=rng.choice((1, 2)))
        S = [rand_vec(rng, n, **kw) for _ in range(k)]
        tvals = None if rng.random() < 0.4 else tuple(x.value for x in rand_vec(rng, n, **kw))
        support = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
        rows_ = _value_rows(S, support)
        for _ in range(2):
            got = _chain_candidates(rows_, tvals)
            assert got == grid.__wrapped__(rows_, tvals), (rows_, tvals)
            assert all(type(dom) is tuple and list(dom) == sorted(dom) for dom in got)
    info = grid.cache_info()
    assert info.hits >= 300 and info.misses >= 200, info


def test_independent_five_by_five_families_with_free_targets():
    rng = seeded(2121)
    solved = drawn = 0
    while drawn < 12:
        S = [rand_tangible_vec(rng, 5, lo=-3, hi=5) for _ in range(5)]
        v = rand_tangible_vec(rng, 5, lo=-3, hi=5)
        if not dependence._independent(S):
            continue
        drawn += 1
        w = depends_on(v, S)
        assert w is not None and w.is_valid(S), (v, S)
        s = saturate_by_sup(v, S, w)
        solved += saturation_crosschecks(v, S, s)[0]
    assert solved >= 3, solved


@pytest.mark.parametrize("member, target, want", [
    # tangible target, tangible entry: the tie value only
    ("0 0", "3 5v", [3]),
    # tangible target, ghost entry: the tie value or more
    ("0v 0v", "2 4v", [2, 4]),
    # ghost target, tangible entry: the tie value or less
    ("0 0v", "2v 4v", [0, 2]),
    # a tangible target where the member has no entry, and a zero target
    # over a tangible entry: nothing
    ("-inf 0v", "1 3v", []),
    ("0 1v", "-inf 3", []),
])
def test_last_member_values_in_closed_form(member, target, want):
    S, t = [vec(member)], vec(target)
    assert _flat_grid_solutions(S, t, (0,)) == [[T(c)] for c in want]
    assert _first_solution(S, t, (0,)) == _first([T(c)] for c in want)


# -- the greedy search -------------------------------------------------

def test_greedy_search_matches_the_reference_without_a_target():
    # whole supports of 4-6 members in 2-4 coordinates with ghost and
    # zero entries, no target: the member-by-member search gives the
    # reference walk's first solution, in values, value types and ghost
    # flags, and finds none exactly where the walk finds none
    rng = seeded(2601)
    found = Counter()
    for _ in range(400):
        k, n = rng.randint(4, 6), rng.randint(2, 4)
        kw = dict(lo=-1, hi=rng.choice((1, 2)), zero_p=rng.choice((0.15, 0.3)),
                  ghost_p=rng.choice((0.2, 0.3)), denom=rng.choice((1, 1, 2)))
        S = [rand_vec(rng, n, **kw) for _ in range(k)]
        support = tuple(range(k))
        got = _first_solution(S, None, support)
        want = _first(grid_solutions_reference(S, None, support))
        assert _typed(got) == _typed(want), S
        found[k, got is not None] += 1
    assert min(found[k, True] for k in (4, 5, 6)) >= 100, found
    assert sum(found[k, False] for k in (4, 5, 6)) >= 20, found


def test_greedy_search_runs_one_descent_per_tried_candidate(monkeypatch):
    # eight tangible vectors in seven coordinates, whole support: after
    # the first descent, each member before the last two tries its cut
    # candidates from the least up, one descent each at most
    rng = seeded(2602)
    descend = dependence._descend
    calls = []

    def counted(levels, tvals, tghosts):
        calls.append(len(levels))
        return descend(levels, tvals, tghosts)

    monkeypatch.setattr(dependence, "_descend", counted)
    support = tuple(range(8))
    for _ in range(6):
        S = [rand_tangible_vec(rng, 7) for _ in range(8)]
        levels, *start = dependence._levels(S, None, support)
        top = descend(levels, *start)
        bound = 1 + sum(dom.index(c) + 1 for c, (dom, _, _) in zip(top[:-2], levels))
        calls.clear()
        cs = _first_solution(S, None, support)
        assert DepWitness(cs, support).is_valid(S), S
        assert calls[0] == 8 and len(calls) <= bound, (len(calls), bound)


def test_eight_in_seven_draw_returns_its_witness():
    # a draw on which the depth-first walk ran for over 5 s without
    # finishing; the search now fixes one member at a time
    S = rows(
        "1 -2 -2 -2 2 2 -1\n-3 5 3 -3 -3 -2 -2\n-2 1 5 -2 1 5 -3\n"
        "1 2 -3 2 2 5 -1\n0 1 4 3 1 2 -2\n3 -2 3 -3 -1 0 2\n"
        "-1 -2 1 1 -1 2 2\n2 0 1 3 0 0 -1"
    )
    w = is_dependent(S)
    assert w.support == (2, 3, 4, 5, 6, 7)
    assert w.coeffs == (Z, Z, *(T(c) for c in (0, 0, 1, 0, 0, 1)))
    assert w.is_valid(S)


def test_annihilators_match_the_reference_search(monkeypatch):
    # annihilator_set searches each column family, which it knows to be
    # dependent, without the whole-family minor test; the reference
    # search in its place gives the same annihilators and value types
    fams = list(_one_member_families())

    def results():
        return [[(v, [type(x.value) for x in v]) for v in annihilator_set(Mat.from_cols(S))]
                for S in fams]

    new = results()
    monkeypatch.setattr(dependence, "_search_supports", search_witness_reference)
    assert results() == new


def test_dependent_pair_is_decided_by_one_minor_test(monkeypatch):
    # the search decides the whole family once and then searches its
    # supports; without a target it does not test the whole family again
    minor = dependence._has_nonsingular_minor
    calls = []

    def counted(rows_, k):
        calls.append(k)
        return minor(rows_, k)

    monkeypatch.setattr(dependence, "_has_nonsingular_minor", counted)
    S = rows("0 1\n1 2")
    assert is_dependent(S).support == (0, 1)
    assert calls == [2]
    calls.clear()
    assert is_dependent([E1, E2]) is None
    assert calls == [2]
