"""Acceptance suite: fifteen numbered criteria, one test each.

Each test either reproduces a frozen worked example exactly or sweeps a
property over a generated population with zero tolerated failures.  The
conftest hook prints one pass/fail line per criterion after the run.

The exhaustive sweeps in criterion 15 dominate the runtime of the whole
test suite (a few minutes); everything else is fast.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

from supertropical import (
    DepWitness,
    Mat,
    ONE,
    Vec,
    ZERO,
    annihilator_set,
    change_of_base,
    close_base,
    d_base,
    depends_on,
    dual_base,
    evaluate,
    ghost,
    gram_dependence,
    is_critical,
    is_dependent,
    is_generalized_permutation,
    is_nonsingular,
    is_orthogonal_symmetric,
    is_supertropically_symmetric,
    max_rank,
    permanent,
    projective_normalize,
    quasi_identity,
    rank,
    reconstruct,
    s_base,
    saturate,
    saturate_by_sup,
    spans,
    sum_saturated,
    tangible,
)
from supertropical.bilinear import GramForm, gram_of_dot, gram_of_form
from supertropical.oracles import brute_dependence, brute_permanent, check_saturated
from supertropical.textio import print_matrix

from helpers import (
    G,
    T,
    Z,
    mat,
    rand_mat,
    rand_nonsingular,
    rand_tangible,
    rand_tangible_vec,
    rand_vec,
    saturation_crosschecks,
    vec,
)

# The running example family: the first three rows are dependent, the
# last three are not.
V1 = vec("5 5 0")
V2 = vec("5 5 4")
V3 = vec("0 1 4")
V4 = vec("0 2 4")

GRID6 = [Z, T(0), T(1), T(2), G(0), G(1)]
GRID4 = [Z, T(0), T(1), G(1)]


def _mat_surpasses(P, Q):
    return all(
        P.entry(i, j).ghost_surpasses(Q.entry(i, j))
        for i in range(P.rows)
        for j in range(P.cols)
    )


def test_criterion_01():
    """Permanents of the two running-example stacks: tangible 11 for
    the independent rows, ghost for the dependent rows."""
    assert permanent(mat("5 5 4\n0 1 4\n0 2 4")) == T(11)
    p = permanent(mat("5 5 0\n5 5 4\n0 1 4"))
    assert p.is_ghost()
    assert p == G(14)


def test_criterion_02():
    """Two nonsingular matrices whose products are singular in both
    orders, with byte-exact product matrices."""
    A = mat("0 0v\n-inf 0")
    B = mat("0 -inf\n0v 0")
    assert is_nonsingular(A)
    assert is_nonsingular(B)
    AB, BA = A @ B, B @ A
    assert print_matrix(AB) == "0v 0v\n0v 0"
    assert print_matrix(BA) == "0 0v\n0v 0v"
    assert not is_nonsingular(AB)
    assert not is_nonsingular(BA)


def test_criterion_03():
    """Randomized product laws, 1000 seeded pairs with n at most 4:
    |AB| ghost-surpasses |A||B|; a product of nonsingular factors is
    never entirely ghost; quasi-identities are idempotent, have unit
    permanent, and ghost-surpass the identity."""
    rng = random.Random(0)
    nonsingular_pairs = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        A, B = rand_mat(rng, n, n), rand_mat(rng, n, n)
        assert permanent(A @ B).ghost_surpasses(permanent(A) * permanent(B))
        if is_nonsingular(A) and is_nonsingular(B):
            nonsingular_pairs += 1
            P = A @ B
            assert any(
                not P.entry(i, j).is_ghost0()
                for i in range(n)
                for j in range(n)
            )
            I_A, _ = quasi_identity(A)
            assert I_A @ I_A == I_A
            assert permanent(I_A) == ONE
            assert _mat_surpasses(I_A, Mat.identity(n))
    assert nonsingular_pairs >= 100


def test_criterion_04():
    """Frobenius: powers distribute over sums, exhaustively over a
    six-element scalar grid and exponents up to 5."""
    for a in GRID6:
        for b in GRID6:
            for m in range(1, 6):
                assert (a + b) ** m == a ** m + b ** m


def test_criterion_05():
    """A rank-2 matrix is ghost-annihilated by two independent tangible
    vectors, and annihilator_set finds at least one verified one."""
    A = mat("4 4 0\n4 4 1\n4 4 2")
    assert rank(A) == 2
    w1, w2 = vec("1 1 0"), vec("1 1 1")
    assert A.apply(w1).is_ghost()
    assert A.apply(w2).is_ghost()
    assert is_dependent([w1, w2]) is None
    anns = annihilator_set(A)
    assert len(anns) >= 1
    for w in anns:
        assert all(x.is_tangible() or x.is_zero() for x in w)
        assert any(x.is_tangible() for x in w)
        assert A.apply(w).is_ghost()


def test_criterion_06():
    """The greedy independent subset of the running example has rank 2
    under the identity order and rank 3 when started elsewhere; the
    best order achieves 3."""
    S = [V1, V2, V3, V4]
    assert d_base(S, order=[0, 1, 2, 3]).rank == 2
    assert d_base(S, order=[1, 2, 3, 0]).rank == 3
    assert max_rank(S) == 3


def _dependent_target_instance(rng, n, k):
    # Saturation needs an independent family, so k stays within n and
    # dependent draws are rejected.  The target is the tangible lift of
    # a combination, which forces a dependence on it.
    while True:
        S = [rand_tangible_vec(rng, n) for _ in range(k)]
        if is_dependent(S) is None:
            break
    acc = Vec([ZERO] * n)
    for w in S:
        acc = acc + w.scale(rand_tangible(rng, -2, 2))
    return acc.nu_hat(), S


def test_criterion_07():
    """Saturation: the worked example returns the zero pair, bumping
    any single coefficient invalidates it, and on 200 generated
    instances ``saturate`` and ``saturate_by_sup`` agree, and the result
    matches ``solve_max`` on the square full-support draws and the brute
    grid check on supports of at most two members."""
    v = vec("0 1 3")
    S = mat("1 1 2\n1 1 3").row_list()
    w = saturate(v, S, depends_on(v, S))
    assert w.coeffs == (T(0), T(0))
    assert check_saturated(w, S)
    for i in w.support:
        for bump in ("1/4", "1/2", "1", "2"):
            coeffs = list(w.coeffs)
            coeffs[i] = coeffs[i] * tangible(Fraction(bump))
            assert not DepWitness(tuple(coeffs), w.support, v).is_valid(S)

    rng = random.Random(0)
    hits = solved = brute = 0
    while hits < 200:
        n = rng.randint(1, 3)
        v, S = _dependent_target_instance(rng, n, rng.randint(1, n))
        w0 = depends_on(v, S)
        if w0 is None:
            continue
        hits += 1
        s = saturate(v, S, w0)
        assert s == saturate_by_sup(v, S, w0)
        ran = saturation_crosschecks(v, S, s)
        solved += ran[0]
        brute += ran[1]
    assert (solved, brute) == (86, 199), (solved, brute)


def test_criterion_08():
    """Sums of saturated witnesses stay saturated on 200 generated
    pairs over shared families.

    Saturated means maximal among all coefficient assignments, which
    over an independent family with finite entries forces a coefficient
    on every member: anything skipped could be raised from zero to a
    small finite value.  Witnesses that are merely maximal over their
    own smaller support sit outside the hypothesis, and sums genuinely
    can undersaturate for them, so generation keeps only instances
    whose saturated witnesses cover the whole family."""
    rng = random.Random(0)
    # 80 single-member families, 120 with two or three members
    want = {1: 80, 2: 120}
    got = {1: 0, 2: 0}
    while got != want:
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        bucket = min(k, 2)
        if got[bucket] == want[bucket]:
            continue
        v1, S = _dependent_target_instance(rng, n, k)
        # second target over the same family
        acc = Vec([ZERO] * n)
        for w in S:
            acc = acc + w.scale(rand_tangible(rng, -2, 2))
        v2 = acc.nu_hat()
        w1, w2 = depends_on(v1, S), depends_on(v2, S)
        if w1 is None or w2 is None:
            continue
        if len(w1.support) < len(S) or len(w2.support) < len(S):
            continue
        s1 = saturate(v1, S, w1)
        s2 = saturate(v2, S, w2)
        out = sum_saturated(s1, s2, S)
        got[bucket] += 1
        assert out.is_valid(S)
        assert check_saturated(out, S)


def test_criterion_09():
    """Spanning verdicts: (4,5) from the two-vector family with the
    (2,2) coefficients, and the one-vector families that do and do not
    reach (1,3v)."""
    w = spans([vec("1 1"), vec("2 3")], vec("4 5"))
    assert w is not None
    assert w.coeffs == (T(2), T(2))
    assert spans([vec("1 2")], vec("1 3v")) is not None
    assert spans([vec("1 3")], vec("1 3v")) is not None
    assert spans([vec("1v 3")], vec("1 3v")) is None


def _spanning_instance(rng, n):
    base = [rand_tangible_vec(rng, n) for _ in range(rng.randint(1, n))]
    S = list(base)
    for _ in range(rng.randint(0, 2)):
        acc = Vec([ZERO] * n)
        for w in base:
            acc = acc + w.scale(rand_tangible(rng, -2, 2))
        S.append(acc)
    rng.shuffle(S)
    return S


def _normalized_set(rep):
    return {tuple(v.entries) for v in rep.normalized}


def test_criterion_10():
    """Minimal spanning subsets are projectively unique: shuffling and
    rescaling the presentation never changes the normalized result, the
    result is exactly the critical subset, and the all-ghost-variant
    triple survives whole."""
    rng = random.Random(0)
    for _ in range(100):
        S = _spanning_instance(rng, rng.randint(1, 3))
        rep = s_base(S)
        # The base keeps one representative per projective class, while
        # criticality marks every member of a critical class, so the
        # two sets agree exactly at class level.
        crit = [i for i in range(len(S)) if is_critical(i, S)]
        assert set(rep.indices) <= set(crit)
        chosen_classes = {
            tuple(projective_normalize(S[i]).entries) for i in rep.indices
        }
        for i in crit:
            assert tuple(projective_normalize(S[i]).entries) in chosen_classes
        reshuffled = [
            S[i].scale(rand_tangible(rng, -2, 2))
            for i in rng.sample(range(len(S)), len(S))
        ]
        assert _normalized_set(s_base(reshuffled)) == _normalized_set(rep)

    triple = [vec("1 1"), vec("1v 1"), vec("1 1v")]
    rep = s_base(triple)
    assert rep.indices == (0, 1, 2)
    assert _normalized_set(rep) == {
        tuple(projective_normalize(v).entries) for v in triple
    }


def test_criterion_11():
    """Any two minimal bases of the same generated space are connected
    by a generalized permutation matrix; 100 instances, no failures."""
    rng = random.Random(0)
    done = 0
    while done < 100:
        S = _spanning_instance(rng, rng.randint(2, 3))
        A = Mat([v.entries for v in s_base(S).normalized])
        perm = rng.sample(range(A.rows), A.rows)
        Q = Mat(
            [
                [
                    rand_tangible(rng, -2, 2) if j == perm[i] else ZERO
                    for j in range(A.rows)
                ]
                for i in range(A.rows)
            ]
        )
        B = Mat([v.entries for v in s_base((Q @ A).row_list()).normalized])
        if A.rows != B.rows:
            raise AssertionError("bases of one space must have equal size")
        P = change_of_base(A, B)
        assert is_generalized_permutation(P)
        assert P @ A == B
        done += 1


def test_criterion_12():
    """Dual functionals of generated closed bases: unit on the own
    column, ghost elsewhere, nonsingular covector stack, and exact
    reconstruction of 100 member vectors."""
    rng = random.Random(0)
    reconstructions = 0
    for trial in range(30):
        n = 2 + trial % 3
        closed_mat, closed = close_base(rand_nonsingular(rng, n).row_list())
        eps = dual_base(closed)
        for i in range(n):
            for j in range(n):
                val = eps[i](closed_mat.col(j))
                if i == j:
                    assert val == ONE
                else:
                    assert val.is_ghost0()
        E = Mat([f.covector.entries for f in eps])
        assert is_nonsingular(E)
        I_A, _ = quasi_identity(closed_mat)
        for _ in range(4):
            member = I_A.apply(rand_vec(rng, n))
            assert reconstruct(closed, member) == member
            reconstructions += 1
    assert reconstructions >= 100


def test_criterion_13():
    """Gram criterion: the dependent triple has ghost Gram permanent
    (value 28 in the ghost layer) with a verified dependence witness;
    the independent triple under a form with nonsingular Gram is
    consistently reported independent."""
    W = [V1, V2, V3]
    assert permanent(gram_of_dot(W).G) == G(28)
    w = gram_dependence(W, GramForm(Mat.identity(3)))
    assert w is not None
    assert w.combination(W).is_ghost()
    assert all(w.coeffs[i].is_tangible() for i in w.support)

    W2 = [V2, V3, V4]
    F = GramForm(mat("3 7 7\n-8 9 -7\n7 -7 4"))
    assert is_nonsingular(gram_of_form(F, W2).G)
    assert gram_dependence(W2, F) is None
    assert is_dependent(W2) is None


def _symmetry_violation(F, x, y, nu_match):
    a, b = evaluate(F, x, y), evaluate(F, y, x)
    if a.is_zero() != b.is_zero():
        return True
    if a.is_zero():
        return False
    if a.is_ghost() != b.is_ghost():
        return True
    if nu_match and a.is_tangible() and a.value != b.value:
        return True
    return False


def test_criterion_14():
    """Over 10^4 seeded strict forms, grid orthogonal symmetry always
    carries supertropical symmetry with it, and every violation verdict
    is backed by a witness pair that replays."""
    rng = random.Random(0)
    violations = 0
    for _ in range(10000):
        k = rng.randint(1, 3)
        F = GramForm(rand_mat(rng, k, k))
        vo = is_orthogonal_symmetric(F)
        vs = is_supertropically_symmetric(F)
        assert not (vo.consistent and not vs.consistent)
        if not vo.consistent:
            violations += 1
            x, y = vo.witness
            assert _symmetry_violation(F, x, y, nu_match=False)
        if not vs.consistent:
            x, y = vs.witness
            assert _symmetry_violation(F, x, y, nu_match=True)
    assert violations >= 1000


def test_criterion_15():
    """Oracle equivalence.  The permanent agrees with the brute-force
    permutation sum exhaustively over a six-value entry grid up to size
    3 and on 1000 random matrices up to size 7; dependence existence
    agrees with the brute-force grid search exhaustively over a
    four-value grid for families with at most three vectors of at most
    three coordinates."""
    for n in (1, 2):
        for entries in product(GRID6, repeat=n * n):
            A = Mat([list(entries[i * n : (i + 1) * n]) for i in range(n)])
            assert permanent(A) == brute_permanent(A)
    rows3 = [list(r) for r in product(GRID6, repeat=3)]
    for r1 in rows3:
        for r2 in rows3:
            for r3 in rows3:
                A = Mat([r1, r2, r3])
                assert permanent(A) == brute_permanent(A)

    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 7)
        A = rand_mat(rng, n, n)
        assert permanent(A) == brute_permanent(A)

    # Existence of a dependence is a function of the family as a set
    # (both routes enumerate every support), so one representative per
    # row multiset covers the full grid.
    for n in (1, 2, 3):
        rows = [tuple(r) for r in product(GRID4, repeat=n)]
        for k in (1, 2, 3):
            for fam in combinations_with_replacement(rows, k):
                S = [Vec(r) for r in fam]
                assert (is_dependent(S) is None) == (
                    brute_dependence(S) is None
                )
