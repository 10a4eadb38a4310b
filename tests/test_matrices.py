"""Matrix layer: products, permanents, adjoints, quasi-identities,
annihilation, and the maximal ghost-solver."""

from fractions import Fraction

import pytest

from supertropical import (
    ONE,
    ZERO,
    Mat,
    ShapeError,
    SingularMatrixError,
    Vec,
    adjoint,
    g_annihilates,
    is_nonsingular,
    nabla,
    permanent,
    quasi_identity,
    solve_max,
    solve_raw,
)
from supertropical.matrices import (
    _assign,
    _combine,
    _dot,
    _perm_order,
    ann_membership,
    geq_nu_vec,
    surpasses_vec,
)
from supertropical.oracles import dp_permanent
from helpers import (
    POPULATIONS,
    G,
    T,
    Z,
    count_perm_adjoint,
    mat,
    rand_mat,
    rand_nonsingular,
    rand_tangible_vec,
    rand_vec,
    seeded,
    vec,
)

SUM10_INDEP = mat("5 5 4\n0 1 4\n0 2 4")
SUM10_DEP = mat("5 5 0\n5 5 4\n0 1 4")
QID = mat("0 0v\n-inf 0")


# -- vector basics -----------------------------------------------------

def test_vec_construction_and_access():
    v = vec("1 2v -inf")
    assert v.dim == 3
    assert v[0] == T(1) and v[1] == G(2) and v[2] == Z
    assert list(v) == [T(1), G(2), Z]


def test_vec_add_and_scale():
    assert vec("1 2") + vec("2 2") == vec("2 2v")
    assert T(3) * vec("1 -inf") == vec("4 -inf")
    assert vec("1 2").scale(G(0)) == vec("1v 2v")


def test_vec_dot():
    assert vec("1 2").dot(vec("3 0")) == T(4)
    assert vec("1 2").dot(vec("1 0")) == G(2)


def test_vec_dot_takes_a_scalar_sequence():
    v = vec("1 2")
    assert v.dot([T(3), T(0)]) == v.dot((T(3), T(0))) == T(4)
    with pytest.raises(TypeError):
        v.dot([T(3), 0])
    with pytest.raises(ShapeError):
        v.dot([T(3)])


def test_vec_support_and_layers():
    assert vec("1 -inf 2v").support() == (0, 2)
    assert vec("1 2").is_tangible()
    assert not vec("1 2v").is_tangible()
    assert vec("1v -inf").is_ghost()
    assert vec("-inf -inf").is_zero()


def test_vec_dim_mismatch():
    with pytest.raises(ShapeError):
        vec("1 2") + vec("1 2 3")


# -- matrix product ----------------------------------------------------

def test_identity_fixes_vectors():
    I = Mat.identity(2)
    v = vec("3 -1v")
    assert I.apply(v) == v


def test_product_example():
    A = QID
    B = mat("0 -inf\n0v 0")
    assert A @ B == mat("0v 0v\n0v 0")


def test_product_with_zero_matrix():
    A = rand_mat(seeded(1), 3, 3)
    assert A @ Mat.zeros(3, 3) == Mat.zeros(3, 3)


def test_matrix_add_entrywise():
    assert mat("1 2\n3 4") + mat("1 0\n5 4") == mat("1v 2\n5 4v")


def test_matrix_scale_and_layers():
    A = mat("1 -inf\n2v 0")
    assert A.scale(T(2)) == mat("3 -inf\n4v 2")
    assert A.scale(G(0)) == mat("1v -inf\n2v 0v")
    assert T(-1) * A == mat("0 -inf\n1v -1")
    assert A.nu() == mat("1v -inf\n2v 0v")
    assert A.nu_hat() == mat("1 -inf\n2 0")
    assert A.nu().nu_hat() == A.nu_hat()


def test_matrix_times_vector():
    A = mat("1 -inf\n2v 0")
    v = vec("0 3")
    assert A @ v == A.apply(v) == vec("1 3")
    assert mat("0 0\n0 1") @ vec("1 1") == vec("1v 2")


def test_shape_errors():
    with pytest.raises(ShapeError):
        mat("1 2") @ mat("1 2")
    with pytest.raises(ShapeError):
        mat("1 2\n3 4").apply(vec("1 2 3"))


def test_empty_and_mismatched_shapes_are_rejected():
    cases = [
        (lambda: Vec([]), "vectors must have at least one entry"),
        (lambda: Mat([]), "matrices must have at least one row"),
        (lambda: Mat([[]]), "matrices must have at least one column"),
        (lambda: Mat.from_cols([]), "need at least one column"),
        (lambda: mat("1 2") + mat("1\n2"), "matrix shapes differ"),
        (lambda: mat("1 2").surpasses(mat("1\n2")), "matrix shapes differ"),
        (lambda: adjoint(mat("1 2")), "adjoint requires a square matrix"),
    ]
    for call, message in cases:
        with pytest.raises(ShapeError, match=message):
            call()


def test_operators_refuse_other_types():
    # the NotImplemented returns: Python then raises TypeError, and an
    # equality test against another type is False
    v, A = vec("0 1"), mat("0 1\n2 3")
    for call in (lambda: v + 1, lambda: 2 * v, lambda: A + v, lambda: A @ 1,
                 lambda: 2 * A):
        with pytest.raises(TypeError):
            call()
    assert v != v.entries and A != A.row_tuples


def test_repr_shows_the_entries():
    assert repr(vec("0 1v -inf")) == "Vec(0 1v -inf)"
    assert repr(mat("0 1\n2v -inf")) == "Mat[0 1; 2v -inf]"
    assert str(mat("0 1\n2v -inf")) == "0 1\n2v -inf"


def test_from_cols_rejects_ragged_columns():
    assert Mat.from_cols([vec("1 2"), vec("3 4")]) == mat("1 3\n2 4")
    # zip would cut both columns to the shorter one's length
    for cols in ([vec("1 2"), vec("3")], [vec("1"), vec("2 3")]):
        with pytest.raises(ShapeError, match="ragged columns"):
            Mat.from_cols(cols)


# -- product kernel ----------------------------------------------------

def _fold(row, col):
    """The dot product as a plain Scalar fold, the reference for _dot."""
    acc = Z
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def _same(got, want):
    # Scalar equality does not see an int against an equal Fraction.
    return got == want and type(got.value) is type(want.value)


def _kernel_case(row, col, want):
    """``_dot``, ``Vec.dot``, ``@`` and ``apply`` all give ``want``."""
    r, c = vec(row), vec(col)
    assert _same(_dot(r.entries, c.entries), want)
    assert _same(r.dot(c), want)
    assert _same((Mat([r]) @ Mat.from_cols([c])).entry(0, 0), want)
    assert _same(Mat([r]).apply(c)[0], want)


def test_dot_two_tangible_terms_tied_at_the_maximum_give_a_ghost():
    _kernel_case("1 2 -4", "2 1 0", G(3))


def test_dot_ghost_term_at_the_maximum_gives_a_ghost():
    _kernel_case("2v 0", "1 0", G(3))
    _kernel_case("0 2", "1 1v", G(3))


def test_dot_ghost_term_below_a_tangible_maximum_gives_a_tangible():
    _kernel_case("0v 2", "0 1", T(3))
    _kernel_case("5v 2", "-3 1", T(3))


def test_dot_halves_summing_to_an_integer_give_an_int_value():
    _kernel_case("1/2 -inf", "3/2 4", T(2))
    _kernel_case("-1/2 1/2", "1/2 -1/2", G(0))
    assert type(_dot(vec("1/3").entries, vec("1/3").entries).value) is Fraction


def test_dot_with_no_finite_term_is_zero():
    _kernel_case("-inf -inf", "1 2v", Z)
    _kernel_case("1 -inf", "-inf 2", Z)


def test_rectangular_products():
    A = mat("0 1 -inf\n2v 0 1")
    B = mat("1 0\n0 -inf\n-inf 3")
    assert A @ B == mat("1v 0\n3v 4")
    assert B @ A == mat("2v 2 1\n0 1 -inf\n5v 3 4")
    assert A.apply(vec("0 -1 -2")) == vec("0v 2v")
    assert mat("1 2 3").apply(vec("0 -1 -2")) == vec("1v")
    assert mat("1\n2v").apply(vec("3")) == vec("4 5v")
    assert (mat("1\n2v") @ mat("0 1 -inf")).shape == (2, 3)


def test_products_match_a_scalar_fold():
    rng = seeded(31)
    for k in range(700):
        lo, hi, zero_p, ghost_p, denom = POPULATIONS[k % len(POPULATIONS)]
        kw = dict(lo=lo, hi=hi, zero_p=zero_p, ghost_p=ghost_p, denom=denom)
        m, n, l = (rng.randint(1, 6) for _ in range(3))
        A, B = rand_mat(rng, m, n, **kw), rand_mat(rng, n, l, **kw)
        v, w = rand_vec(rng, n, **kw), rand_vec(rng, n, **kw)
        P = A @ B
        assert P.shape == (m, l)
        for i, ra in enumerate(A.row_tuples):
            for j in range(l):
                assert _same(P.entry(i, j), _fold(ra, B.col(j))), (A, B, i, j)
        Av = A.apply(v)
        assert all(_same(x, _fold(ra, v)) for x, ra in zip(Av, A.row_tuples))
        assert _same(v.dot(w), _fold(v, w))


# -- permanent ---------------------------------------------------------

def test_permanent_examples():
    assert permanent(SUM10_INDEP) == T(11)
    assert permanent(QID) == T(0)
    assert permanent(mat("0v 0v\n0v 0")) == G(0)
    assert permanent(mat("7v")) == G(7)


def test_permanent_requires_square():
    with pytest.raises(ShapeError):
        permanent(mat("1 2 3\n4 5 6"))


def _perm_case(text, want):
    """``permanent`` gives ``want`` for the matrix and for it padded with
    a unit diagonal up to size 4, so that each small kernel sees it: a
    permutation that leaves the block meets a zero entry."""
    A = mat(text)
    k = A.rows
    for n in range(k, 5):
        B = Mat([
            [A.entry(i, j) if i < k and j < k else ONE if i == j else Z for j in range(n)]
            for i in range(n)
        ])
        assert _same(permanent(B), want), (B, permanent(B), want)


def test_permanent_tangible_tie_gives_a_ghost():
    _perm_case("2 1\n1 0", G(2))
    _perm_case("0 0 -inf\n0 0 -inf\n-inf -inf 1", G(1))


def test_permanent_ghost_entry_on_the_unique_best_term_gives_a_ghost():
    _perm_case("5v 0\n0 1", G(6))
    _perm_case("1 -inf 0\n0 2v -inf\n-inf 0 3", G(6))


def test_permanent_ghost_term_below_a_tangible_maximum_gives_a_tangible():
    _perm_case("5 0v\n0 1", T(6))
    _perm_case("1 0v 0\n0 2 0\n0v 0 3", T(6))


def test_permanent_zero_row_gives_zero():
    _perm_case("-inf -inf\n1 2v", Z)
    _perm_case("1 2 3\n-inf -inf -inf\n4v 5 6", Z)


def test_permanent_halves_summing_to_an_integer_give_an_int_value():
    _perm_case("1/2 -inf\n-inf 3/2", T(2))
    _perm_case("1/2 -inf -inf\n-inf 1/2 -inf\n-inf -inf 1/3", T(Fraction(4, 3)))


def test_small_permanents_match_the_dp_oracle():
    rng = seeded(1304)
    for k in range(1400):
        lo, hi, zero_p, ghost_p, denom = POPULATIONS[k % len(POPULATIONS)]
        n = 2 + k % 3
        A = rand_mat(rng, n, n, lo=lo, hi=hi, zero_p=zero_p, ghost_p=ghost_p, denom=denom)
        got = permanent(A)
        assert _same(got, dp_permanent(A)), (A, got)
        if n == 4:
            # the assignment route, which takes over from size 5
            rows = A.row_tuples
            assert _same(got, _perm_order(rows, _assign(rows))[0]), (A, got)


def test_nonsingular_examples():
    assert is_nonsingular(QID)
    assert not is_nonsingular(SUM10_DEP)
    assert not is_nonsingular(mat("1v 2v\n3v 4v"))


def test_permanent_transpose_invariant(rng):
    for _ in range(60):
        A = rand_mat(rng, 3, 3)
        assert permanent(A) == permanent(A.transpose())


def test_laplace_expansion_along_first_row(rng):
    # Expanding over the entry chosen in row 0 partitions the
    # permutation sum, so equality is exact, ghosts included.
    for _ in range(60):
        n = rng.randint(2, 4)
        A = rand_mat(rng, n, n)
        acc = ZERO
        rest = [i for i in range(n) if i != 0]
        for j in range(n):
            minor = A.submatrix(rest, [c for c in range(n) if c != j])
            acc = acc + A.entry(0, j) * permanent(minor)
        assert acc == permanent(A)


# -- adjoint and nabla -------------------------------------------------

def test_adjoint_2x2_pattern():
    A = mat("1 2\n3 4")
    assert adjoint(A) == mat("4 2\n3 1")


def test_adjoint_fixed_point():
    assert adjoint(QID) == QID


def test_adjoint_diagonal_swap():
    assert adjoint(Mat.diagonal([T(2), T(3)])) == Mat.diagonal([T(3), T(2)])


def test_adjoint_1x1_is_unit():
    assert adjoint(mat("5")) == Mat([[ONE]])


def test_nabla_examples():
    assert nabla(Mat.diagonal([T(2), T(3)])) == Mat.diagonal([T(-2), T(-3)])
    assert nabla(Mat.identity(3)) == Mat.identity(3)
    assert nabla(QID) == QID


def test_nabla_requires_square():
    with pytest.raises(ShapeError, match="nabla requires a square matrix"):
        nabla(mat("1 2 3\n4 5 6"))


def test_nabla_singular_rejected():
    with pytest.raises(SingularMatrixError):
        nabla(SUM10_DEP)


@pytest.mark.parametrize("n", [5, 6])
def test_nabla_singular_rejected_from_one_assignment(n):
    # From size 5 on, nabla stops after the permanent's layer test: a
    # tied optimum (swap rows 0 and 1) and a unique optimum through a
    # ghost entry both leave a ghost permanent.
    diag = [[T(10) if i == j else T(0) for j in range(n)] for i in range(n)]
    tied = [r[:] for r in diag]
    tied[0][1] = tied[1][0] = T(10)
    through_ghost = [r[:] for r in diag]
    through_ghost[n - 1][n - 1] = G(10)
    for rows in (tied, through_ghost):
        with pytest.raises(SingularMatrixError, match=f"permanent is {10 * n}v"):
            nabla(Mat(rows))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_nabla_is_computed_once_per_matrix(monkeypatch, rng, n):
    calls = count_perm_adjoint(monkeypatch)
    for _ in range(10):
        A = rand_nonsingular(rng, n)
        v = rand_vec(rng, n)
        nb = nabla(A)
        assert quasi_identity(A) == (A @ nb, nb @ A)
        assert solve_raw(A, v) == nb.apply(v)
        solve_max(A, v)
        assert nabla(A) is nb
        assert len(calls) == 1
        # an equal but distinct matrix computes its own, and it is equal;
        # so does a product, which _mat builds without one
        for B in (Mat(A.row_tuples), A @ Mat.identity(n)):
            assert B == A
            assert nabla(B) == nb and nabla(B) is not nb
        assert len(calls) == 3
        calls.clear()


def test_singular_nabla_raises_on_every_call(monkeypatch):
    calls = count_perm_adjoint(monkeypatch)
    for A in (SUM10_DEP, Mat.zeros(5, 5)):
        for k in range(1, 4):
            with pytest.raises(SingularMatrixError):
                nabla(A)
            with pytest.raises(SingularMatrixError):
                quasi_identity(A)
            with pytest.raises(SingularMatrixError):
                solve_max(A, Vec([ONE] * A.rows))
            assert len(calls) == 3 * k
        calls.clear()


def _nabla_outcome(A):
    """nabla(A) as values, value types and ghost flags, or the message
    of its SingularMatrixError."""
    try:
        nb = nabla(A)
    except SingularMatrixError as exc:
        return str(exc)
    return [[(x.value, type(x.value), x.is_ghost()) for x in r] for r in nb.row_tuples]


def test_nabla_from_the_kept_adjoint_matches_its_own_route(monkeypatch):
    # After adjoint(A), nabla(A) takes the permanent as the Laplace
    # expansion against the kept adjoint and divides by it; an equal
    # matrix built apart goes through _perm_adjoint.  Populations: tie
    # heavy 0..1, -3..5, +-10**6 and halves, with ghosts and zeros.
    calls = count_perm_adjoint(monkeypatch)
    rng = seeded(31)
    populations = [(0, 1, 0.2, 0.1, 1), (-3, 5, 0.15, 0.2, 1),
                   (-10**6, 10**6, 0.1, 0.1, 1), (-4, 4, 0.1, 0.1, 2)]
    nonsingular = singular = 0
    for n in range(1, 10):
        for lo, hi, zero_p, ghost_p, denom in populations:
            for _ in range(6):
                A = rand_mat(rng, n, n, lo=lo, hi=hi, zero_p=zero_p,
                             ghost_p=ghost_p, denom=denom)
                want = _nabla_outcome(Mat(A.row_tuples))
                calls.clear()
                adjoint(A)
                for _ in range(3):
                    assert _nabla_outcome(A) == want, A
                assert len(calls) == 1
                if isinstance(want, str):
                    singular += 1
                else:
                    nonsingular += 1
    assert nonsingular >= 60 and singular >= 120, (nonsingular, singular)


# -- quasi-identities --------------------------------------------------

def test_quasi_identity_of_identity():
    I = Mat.identity(2)
    assert quasi_identity(I) == (I, I)


def test_quasi_identity_fixed_point():
    IA, IAp = quasi_identity(QID)
    assert IA == QID
    assert IAp == QID


def test_quasi_identity_of_diagonal():
    I = Mat.identity(2)
    assert quasi_identity(Mat.diagonal([T(2), T(3)])) == (I, I)


def test_quasi_identity_properties(rng):
    I3 = Mat.identity(3)
    for _ in range(40):
        A = rand_nonsingular(rng, 3)
        IA, IAp = quasi_identity(A)
        for Q in (IA, IAp):
            assert Q @ Q == Q
            assert permanent(Q) == ONE
            assert Q.surpasses(I3)


def test_quasi_identity_product_diagonal_not_all_ghost(rng):
    for _ in range(40):
        A = rand_nonsingular(rng, 3)
        B = rand_nonsingular(rng, 3)
        IA = quasi_identity(A)[0]
        IB = quasi_identity(B)[0]
        P = IA @ IB
        assert not all(P.entry(i, i).is_ghost0() for i in range(3))


def test_product_permanent_surpasses(rng):
    for _ in range(150):
        n = rng.randint(1, 4)
        A = rand_mat(rng, n, n)
        B = rand_mat(rng, n, n)
        assert permanent(A @ B).ghost_surpasses(permanent(A) * permanent(B))


def test_nonsingular_product_not_all_ghost(rng):
    for _ in range(60):
        n = rng.randint(1, 3)
        A = rand_nonsingular(rng, n)
        B = rand_nonsingular(rng, n)
        assert not (A @ B).is_ghost()


# -- annihilation ------------------------------------------------------

RANK2 = mat("4 4 0\n4 4 1\n4 4 2")


def test_annihilates_example():
    v = vec("1 1 0")
    assert g_annihilates(RANK2, v)
    assert RANK2.apply(v) == vec("5v 5v 5v")
    assert g_annihilates(RANK2, vec("1 1 1"))


def test_ghost_vectors_always_annihilate(rng):
    for _ in range(20):
        A = rand_mat(rng, 3, 3)
        g = rand_vec(rng, 3).nu()
        assert g_annihilates(A, g)
        assert ann_membership(A, g)


def test_nonsingular_never_annihilated_by_tangible(rng):
    for _ in range(40):
        A = rand_nonsingular(rng, 3)
        v = rand_tangible_vec(rng, 3)
        if v.is_zero():
            continue
        assert not g_annihilates(A, v)


# -- ghost-system solving ----------------------------------------------

def test_solve_max_identity():
    assert solve_max(Mat.identity(2), vec("1 2")) == vec("1 2")


def test_solve_max_diagonal():
    assert solve_max(Mat.diagonal([T(2), T(3)]), vec("5 5")) == vec("3 2")


def test_solve_max_quasi_identity():
    assert solve_max(QID, vec("1 1")) == vec("1 1")


def test_solve_raw_may_carry_ghosts():
    raw = solve_raw(QID, vec("1 1"))
    assert raw.nu_hat() == vec("1 1")


def test_solve_max_postcondition(rng):
    # A times the returned solution gd-covers the right-hand side.
    for _ in range(40):
        A = rand_nonsingular(rng, 3)
        v = rand_vec(rng, 3)
        x = solve_max(A, v)
        assert x.is_tangible() or any(e.is_zero() for e in x)
        assert (A.apply(x) + v).is_ghost()


def test_solve_max_singular_rejected():
    with pytest.raises(SingularMatrixError):
        solve_max(SUM10_DEP, vec("1 2 3"))


# -- componentwise relations -------------------------------------------

def test_surpasses_vec_examples():
    assert surpasses_vec(vec("1v 3"), vec("1 3"))
    assert not surpasses_vec(vec("1 3"), vec("1v 3"))
    v = vec("2 -inf 1v")
    assert surpasses_vec(v, v)


def test_geq_nu_vec():
    assert geq_nu_vec(vec("2 3"), vec("1 3v"))
    assert not geq_nu_vec(vec("2 3"), vec("1 4"))


def test_vec_surpasses_methods():
    assert vec("1v 3").surpasses(vec("1 3"))
    assert vec("2 3").nu_ge(vec("1 3v"))
    assert vec("1 3v").nu_le(vec("2 3"))


@pytest.mark.parametrize("seq", [list, tuple], ids=["list", "tuple"])
@pytest.mark.parametrize("compare, other, expected", [
    (lambda v, w: v.surpasses(w), "1 3", True),
    (lambda v, w: v.surpasses(w), "2 3", False),
    (lambda v, w: surpasses_vec(v, w), "1 3", True),
    (lambda v, w: v.nu_ge(w), "1 3v", True),
    (lambda v, w: v.nu_ge(w), "2 4", False),
    (lambda v, w: geq_nu_vec(v, w), "1 3v", True),
    (lambda v, w: v.nu_le(w), "2 3", True),
    (lambda v, w: v.nu_le(w), "0 3", False),
], ids=["surpasses", "not-surpasses", "surpasses_vec", "nu_ge", "not-nu_ge",
        "geq_nu_vec", "nu_le", "not-nu_le"])
def test_vec_comparisons_take_a_scalar_sequence(seq, compare, other, expected):
    # v = (1v, 3): each comparison reads a Scalar sequence as it reads
    # the Vec of the same entries
    v = vec("1v 3")
    w = vec(other)
    assert compare(v, seq(w)) is compare(v, w) is expected
    with pytest.raises(TypeError):
        compare(v, seq([w[0], 3]))
    with pytest.raises(ShapeError):
        compare(v, seq(w)[:1])


def test_mat_surpasses_rejects_a_non_matrix():
    A = mat("1v 2\n3 4")
    assert A.surpasses(mat("1 2\n3 4"))
    for other in (A.row_list(), [list(r) for r in A.row_tuples], vec("1 2")):
        with pytest.raises(TypeError):
            A.surpasses(other)


# -- combination kernels -----------------------------------------------

def test_combine_adds_weighted_vectors_to_the_start():
    S = [vec("1 2"), vec("0 5")]
    assert _combine([T(1), T(0)], S) == vec("2 5")
    assert _combine([T(1), T(0)], S, vec("2 -inf")) == vec("2v 5")


def test_combine_skips_none_and_zero_coefficients():
    S = [vec("1 2"), vec("0 5")]
    assert _combine([None, T(-1)], S) == vec("-1 4")
    assert _combine([Z, T(-1)], S) == vec("-1 4")
    assert _combine([None, None], S) == vec("-inf -inf")
    assert _combine([Z, None], S, vec("3v 1")) == vec("3v 1")


def test_combine_rejects_a_length_mismatch():
    with pytest.raises(ShapeError):
        _combine([T(0)], [vec("1 2"), vec("0 5")])
    with pytest.raises(ShapeError):
        _combine([T(0), T(0)], [vec("1 2"), vec("0 5")], vec("1v 0v 5v"))
