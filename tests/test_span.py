"""Spanning decisions, critical elements, s-bases, thickness, and
change of base.

A spanning witness asserts v = (tangible combination) + ghost, so the
ghost surplus is part of the returned value and every test can replay
the reconstruction identity exactly.
"""

import pytest

from supertropical import (
    DepWitness,
    InvalidInputError,
    Mat,
    NoChangeOfBaseError,
    Scalar,
    ShapeError,
    SpanWitness,
    Vec,
    ZERO,
    change_of_base,
    is_almost_tangible,
    is_critical,
    is_generalized_permutation,
    is_thick,
    max_rank,
    s_base,
    spans,
    spans_set,
)
from supertropical.span import _class_indices
from helpers import (
    G,
    T,
    Z,
    internal_spanned_reference,
    mat,
    rand_tangible,
    rand_tangible_vec,
    rand_vec,
    rows,
    seeded,
    spans_reference,
    vec,
)

E1, E2 = rows("0 -inf\n-inf 0")
CB_TRIPLE = rows("1 1\n1v 1\n1 1v")


# -- spans -------------------------------------------------------------

def test_spans_two_generator_example():
    S = rows("1 1\n2 3")
    w = spans(S, vec("4 5"))
    assert w is not None
    assert w.support == (0, 1)
    assert w.coeffs == (T(2), T(2))
    assert w.ghost_part == vec("-inf -inf")
    assert w.is_valid(S, vec("4 5"))


@pytest.mark.parametrize("coeffs, support, ghost_part", [
    # an empty support, and a ghost part with a tangible entry, which
    # only a span witness has
    ((T(0), Z), (), "3v 3v"),
    ((T(0), Z), (0,), "3 3v"),
    # support indices outside the coefficients: with the zero
    # coefficients below, each would certify 3v 3v over any family, and
    # a dependence of the independent family 0 1 / 2 0
    ((Z, Z), (-1,), "3v 3v"),
    ((Z, Z), (5,), "3v 3v"),
    # a ghost and a zero coefficient on the support
    ((G(0), Z), (0,), "3v 3v"),
    ((Z, T(0)), (0,), "3v 3v"),
    # a repeated support index, which a span witness's combination
    # counted once per repeat: 0v 1v over 0 1 / 5 -inf, with no surplus
    ((T(0), Z), (0, 0), "-inf -inf"),
    # a nonzero coefficient off the support
    ((T(0), T(3)), (0,), "3v 3v"),
    # a coefficient that is not a scalar
    ((1, Z), (0,), "3v 3v"),
])
def test_span_witness_validation(coeffs, support, ghost_part):
    # the two witness types share their support and coefficient checks;
    # only a tangible ghost-part entry is the span witness's own
    error = (
        InvalidInputError if all(isinstance(c, Scalar) for c in coeffs)
        else TypeError
    )
    with pytest.raises(error):
        SpanWitness(coeffs, support, vec(ghost_part))
    if vec(ghost_part).is_ghost():
        with pytest.raises(error):
            DepWitness(coeffs, support)


@pytest.mark.parametrize("coeffs, support", [
    ((T(0),), (0,)),
    ((T(0), Z, T(0)), (0, 2)),
])
def test_witness_coefficient_count_must_match_the_family(coeffs, support):
    S, v = rows("1 2\n0 1"), vec("1 3v")
    with pytest.raises(ShapeError, match="coefficient count"):
        SpanWitness(coeffs, support, vec("-inf 3v")).is_valid(S, v)
    with pytest.raises(ShapeError, match="coefficient count"):
        DepWitness(coeffs, support, v).is_valid(S)


def test_spans_fails_on_ghosted_generator():
    assert spans([vec("1v 3")], vec("1 3v")) is None


def test_spans_with_ghost_surplus():
    w = spans([vec("1 2")], vec("1 3v"))
    assert w is not None
    assert w.coeffs == (T(0),)
    assert w.ghost_part == vec("-inf 3v")


def test_spans_member_of_family():
    S = rows("1 2v\n0 1")
    w = spans(S, S[0])
    assert w is not None
    assert w.support == (0,)
    assert w.coeffs[0] == T(0)
    assert w.is_valid(S, S[0])


def test_spans_zero_target():
    # The zero vector is spanned only via a zero generator.
    zero = vec("-inf -inf")
    assert spans(rows("1 2\n0 1"), zero) is None
    w = spans([vec("1 2"), zero], zero)
    assert w is not None and w.support == (1,)


def test_spans_set_examples(rng):
    S = rows("0 -inf\n-inf 0")
    assert spans_set(S, S)
    extras = [rand_vec(rng, 2) for _ in range(5)]
    assert spans_set(S, extras)  # the standard base spans everything
    assert not spans_set([vec("1 1v")], [vec("1 1")])


def test_sum_of_spanners_can_fail():
    # Both generators span v on their own, their sum does not.
    v = vec("1 3v")
    w1, w2 = vec("1 2"), vec("1 3")
    assert spans([w1], v) is not None
    assert spans([w2], v) is not None
    assert w1 + w2 == vec("1v 3")
    assert spans([w1 + w2], v) is None


# -- critical elements -------------------------------------------------

def test_standard_base_vectors_critical():
    assert is_critical(0, [E1, E2])
    assert is_critical(1, [E1, E2])


def test_spanned_vector_not_critical():
    S = rows("0 -inf\n-inf 0\n0 0")
    assert not is_critical(2, S)


def test_ghost_variant_family_all_critical():
    for i in range(3):
        assert is_critical(i, CB_TRIPLE)


def test_is_critical_index_checked():
    with pytest.raises(Exception):
        is_critical(5, [E1, E2])


# -- s-bases -----------------------------------------------------------

def test_s_base_drops_spanned_vector():
    r = s_base(rows("0 -inf\n-inf 0\n0 0"))
    assert r.kind == "s-base"
    assert r.indices == (0, 1)
    assert r.rank == 2
    assert r.normalized == (vec("0 -inf"), vec("-inf 0"))


def test_s_base_keeps_ghost_variants():
    r = s_base(CB_TRIPLE)
    assert r.indices == (0, 1, 2)
    assert r.normalized == (vec("0 0"), vec("0v 0"), vec("0 0v"))


def test_s_base_scaled_axes_with_extras():
    S = [T(2) * E1, T(3) * E2, vec("2 3")]
    r = s_base(S)
    assert r.indices == (0, 1)
    assert r.normalized == (E1, E2)


def test_s_base_collapses_projective_duplicates():
    S = [vec("1 2"), vec("3 4"), vec("0 1")]  # first and third same class
    r = s_base(S)
    assert 0 in r.indices and 2 not in r.indices


@pytest.mark.xfail(
    strict=True,
    reason="span._internal_spanned lets an excluded ghost member serve as "
    "its own surplus, so neither ghost member counts as critical",
)
def test_s_base_of_two_ghost_vectors_is_nonempty():
    # neither vector is a multiple of the other, and an empty set spans
    # only zero, so some member must be kept
    r = s_base([vec("3v 5v"), vec("1v 1v")])
    assert r.indices


def _spanning_instance(rng, n=3):
    base = []
    for _ in range(rng.randint(1, 3)):
        v = rand_tangible_vec(rng, n, lo=-2, hi=3)
        base.append(v)
    extras = []
    for _ in range(rng.randint(0, 2)):
        comb = Vec([ZERO] * n)
        for b in base:
            if rng.random() < 0.7:
                comb = comb + rand_tangible(rng, -2, 2) * b
        if not comb.is_zero():
            extras.append(comb)
    return base + extras


def test_s_base_projective_invariance(rng):
    for _ in range(25):
        S = _spanning_instance(rng)
        r1 = s_base(S)
        order = list(range(len(S)))
        rng.shuffle(order)
        S2 = [rand_tangible(rng, -2, 2) * S[i] for i in order]
        r2 = s_base(S2)
        assert set(r1.normalized) == set(r2.normalized)


def test_s_base_members_are_critical(rng):
    for _ in range(20):
        S = _spanning_instance(rng)
        r = s_base(S)
        for i in r.indices:
            assert is_critical(i, S)


def test_s_base_spans_input_and_meets_rank_bound(rng):
    for _ in range(20):
        S = _spanning_instance(rng)
        r = s_base(S)
        assert spans_set(list(r.normalized), S)
        assert len(r.indices) >= max_rank(S)


def test_s_base_members_almost_tangible(rng):
    for _ in range(20):
        S = _spanning_instance(rng)
        r = s_base(S)
        for v in r.normalized:
            assert is_almost_tangible(v, S)


def test_any_spanning_subset_contains_enough(rng):
    # A spanning set can never be smaller than the rank.
    for _ in range(20):
        S = _spanning_instance(rng)
        m = max_rank(S)
        for size in range(1, len(S) + 1):
            subset = S[:size]
            if spans_set(subset, S):
                assert size >= m


def test_span_closure_is_a_subspace(rng):
    for _ in range(20):
        S = [rand_tangible_vec(rng, 3, lo=-2, hi=2) for _ in range(2)]
        spanned = []
        for _ in range(2):
            comb = Vec([ZERO] * 3)
            for s in S:
                comb = comb + rand_tangible(rng, -2, 2) * s
            bump = rand_vec(rng, 3, zero_p=0.6, ghost_p=1.0).nu()
            spanned.append(comb + bump)
        v, u = spanned
        assert spans(S, v) is not None
        assert spans(S, u) is not None
        assert spans(S, v + u) is not None
        assert spans(S, rand_tangible(rng) * v) is not None


# -- mask walks against the full grids ---------------------------------

def _walk_families(seed, count=2000):
    """Families of 2 to 6 members in 2 to 4 coordinates (values -3..5,
    zero 0.15, ghost 0.3); every tenth gets two ghost members, the class
    of the strict xfail above."""
    rng = seeded(seed)
    for d in range(count):
        k, n = rng.randint(2, 6), rng.randint(2, 4)
        S = [rand_vec(rng, n) for _ in range(k)]
        if d % 10 == 0:
            for i in rng.sample(range(k), 2):
                S[i] = rand_vec(rng, n, zero_p=0.1, ghost_p=1.0)
        yield rng, S


def _all_ghost(w):
    return w.is_ghost() and not w.is_zero()


def test_critical_walk_matches_tag_grid():
    ghost_pairs = critical = 0
    for _, S in _walk_families(1201):
        ghost_pairs += sum(map(_all_ghost, S)) >= 2
        for i, w in enumerate(S):
            want = not w.is_zero() and not internal_spanned_reference(
                w, S, _class_indices(S, i)
            )
            assert is_critical(i, S) == want, (S, i)
            critical += want
    assert ghost_pairs >= 150 and critical >= 2000


def test_span_walk_matches_candidate_grid():
    spanned = tried = 0
    for rng, S in _walk_families(1202):
        if len(S) > 4:
            continue
        n = S[0].dim
        built = Vec([ZERO] * n)
        for w in S:
            if rng.random() < 0.7:
                built = built + rand_tangible(rng, -2, 2) * w
        for v in (built, rand_vec(rng, n)):
            got = spans(S, v)
            assert got == spans_reference(S, v), (S, v)
            spanned += got is not None
            tried += 1
    assert tried >= 2000 and spanned >= tried // 3


# -- thickness ---------------------------------------------------------

def test_scaled_subspace_is_thick(rng):
    V = [rand_vec(rng, 3) for _ in range(3)]
    W = [T(5) * v for v in V]
    assert is_thick(W, V)


def test_strip_is_thick():
    assert is_thick(rows("3 0\n0 3"), [E1, E2])


def test_line_is_not_thick():
    assert not is_thick([vec("1 1")], [E1, E2])


# -- generalized permutations ------------------------------------------

def test_generalized_permutation_examples():
    assert is_generalized_permutation(mat("-inf 2\n7 -inf"))
    assert not is_generalized_permutation(mat("0 0\n-inf 0"))
    assert is_generalized_permutation(Mat.identity(3))


def test_generalized_permutation_rejects_ghost_entries():
    assert not is_generalized_permutation(mat("-inf 2v\n7 -inf"))


# -- change of base ----------------------------------------------------

def test_change_of_base_diagonal():
    A = Mat.identity(2)
    Ap = Mat.diagonal([T(2), T(3)])
    P = change_of_base(A, Ap)
    assert P == Mat.diagonal([T(2), T(3)])
    assert P @ A == Ap


def test_change_of_base_antidiagonal():
    A = Mat.identity(2)
    Ap = mat("-inf 3\n5 -inf")
    P = change_of_base(A, Ap)
    assert P == mat("-inf 3\n5 -inf")
    assert is_generalized_permutation(P)


def test_change_of_base_failure():
    with pytest.raises(NoChangeOfBaseError):
        change_of_base(Mat.identity(2), mat("0 0\n-inf 0"))


# -- almost tangible ---------------------------------------------------

def test_tangible_vectors_almost_tangible():
    assert is_almost_tangible(vec("1 2"), [E1, E2])


def test_ghosted_vector_almost_tangible_in_small_space():
    S = rows("1 1v\n0 1")
    assert is_almost_tangible(vec("1 1v"), S)


def test_mixed_vector_over_a_full_space_not_almost_tangible():
    # (1, 1) is not a multiple of (1, 1v), and adding the ghost surplus
    # (-inf, 1v) from the span of E1, E2 gives back (1, 1v)
    assert not is_almost_tangible(vec("1 1v"), [E1, E2])


def test_nonzero_ghost_never_almost_tangible():
    assert not is_almost_tangible(vec("1v 1v"), [E1, E2])
    assert not is_almost_tangible(vec("-inf 0v"), [E1, E2])


def test_zero_vector_almost_tangible():
    assert is_almost_tangible(vec("-inf -inf"), [E1, E2])
