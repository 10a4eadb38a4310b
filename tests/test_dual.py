"""Closed bases, dual functionals, ghost kernels, and the double dual.

Evaluation convention used throughout: for a closed base held as the
rows of A, the dual guarantees (unit on the matching base vector, ghost
elsewhere) are checked against the columns of A.  The ghost-variant
quasi-identity base below pins that choice: with rows it would evaluate
to a ghost where the unit is required.
"""

import pytest

from supertropical import (
    InvalidInputError,
    MapByMatrix,
    Mat,
    NotInClosedSpanError,
    ShapeError,
    SingularMatrixError,
    Vec,
    ZERO,
    close_base,
    double_dual,
    dual_base,
    ghost_kernel,
    is_ghost_monic,
    is_iso,
    is_nonsingular,
    is_tropically_onto,
    nabla,
    permanent,
    quasi_identity,
    reconstruct,
)
from supertropical import dual, matrices, span
from helpers import (
    G,
    T,
    count_perm_adjoint,
    is_ghost_monic_reference,
    mat,
    rand_mat,
    rand_nonsingular,
    rand_vec,
    rows,
    seeded,
    vec,
)

E1, E2 = rows("0 -inf\n-inf 0")
DA = mat("0 1v\n-inf 0")  # idempotent quasi-identity, used as a base


# -- closing a base ----------------------------------------------------

def test_close_standard_base():
    AB, closed = close_base([E1, E2])
    assert AB == Mat.identity(2)
    assert closed == [E1, E2]


def test_close_idempotent_quasi_identity():
    assert DA @ DA == DA
    AB, closed = close_base(DA.row_list())
    assert AB == DA
    assert closed == DA.row_list()


def test_close_diagonal():
    D = Mat.diagonal([T(2), T(3)])
    AB, _ = close_base(D.row_list())
    assert AB == D


def test_close_unclosed_base_changes_it():
    A = mat("0 0\n-inf 0")
    AB, _ = close_base(A.row_list())
    assert AB == mat("0 0v\n-inf 0")
    IA = quasi_identity(AB)[0]
    assert IA @ AB == AB  # now a fixed point


def test_close_singular_rejected():
    with pytest.raises(SingularMatrixError):
        close_base(rows("1 1\n1v 1"))


# -- dual base ---------------------------------------------------------

def test_dual_of_standard_base():
    eps = dual_base([E1, E2])
    assert eps[0].covector == E1
    assert eps[1].covector == E2
    assert eps[0](vec("3 7")) == T(3)
    assert eps[1](vec("3 7")) == T(7)


def test_dual_of_quasi_identity_base():
    eps = dual_base(DA.row_list())
    assert eps[0].covector == vec("0 1v")
    assert eps[1].covector == vec("-inf 0")
    b1, b2 = DA.col(0), DA.col(1)
    assert eps[0](b1) == T(0)
    assert eps[0](b2) == G(1)
    assert eps[1](b1) == ZERO
    assert eps[1](b2) == T(0)


def test_dual_of_diagonal_base():
    D = Mat.diagonal([T(2), T(3)])
    eps = dual_base(D.row_list())
    assert eps[0].covector == vec("-2 -inf")
    assert eps[1].covector == vec("-inf -3")


def test_dual_base_requires_closed_input():
    with pytest.raises(InvalidInputError):
        dual_base(rows("0 0\n-inf 0"))


def test_dual_guarantees_on_generated_bases(rng):
    for _ in range(25):
        A = rand_nonsingular(rng, 3)
        AB, closed = close_base(A.row_list())
        if not is_nonsingular(AB):
            continue
        eps = dual_base(closed)
        emat = Mat([e.covector.entries for e in eps])
        assert is_nonsingular(emat)
        for i in range(3):
            for j in range(3):
                val = eps[i](AB.col(j))
                if i == j:
                    assert val == T(0)
                else:
                    assert val.is_ghost0()


# -- reconstruction ----------------------------------------------------

def test_reconstruct_standard_base(rng):
    for _ in range(10):
        v = rand_vec(rng, 2)
        assert reconstruct([E1, E2], v) == v


def test_reconstruct_quasi_identity_member():
    IA = quasi_identity(DA)[0]
    v = IA.apply(vec("1 1"))
    assert v == vec("2v 1")
    assert reconstruct(DA.row_list(), v) == v


def test_reconstruct_rejects_outsiders():
    # (1, 1v) is not a fixed point of the quasi-identity, so it is not
    # in the closed span.
    with pytest.raises(NotInClosedSpanError):
        reconstruct(DA.row_list(), vec("1 1v"))


def test_reconstruct_base_columns():
    for j in range(2):
        b = DA.col(j)
        assert reconstruct(DA.row_list(), b) == b


def test_reconstruct_randomized_members(rng):
    count = 0
    for _ in range(40):
        A = rand_nonsingular(rng, 3)
        AB, closed = close_base(A.row_list())
        if not is_nonsingular(AB):
            continue
        IA = quasi_identity(AB)[0]
        u = rand_vec(rng, 3)
        v = IA.apply(u)
        if IA.apply(v) != v:
            continue  # idempotence gives a fixed point; guard anyway
        assert reconstruct(closed, v) == v
        count += 1
    assert count >= 20


def test_dual_chains_match_their_matrix_products():
    # reconstruct applies the factors to the vector one at a time and
    # dual_base forms nabla(A) A once; both against the matrix products
    # written out, on closed bases of sizes 2 to 6 with fixed points and
    # vectors that are not fixed, and on bases that are not closed.
    rng = seeded(19)
    fixed = moved = unclosed = 0
    for n in range(2, 7):
        for _ in range(12):
            A = rand_nonsingular(rng, n, ghost_p=0.2)
            nb = nabla(A)
            if A @ nb @ A != A:
                unclosed += 1
                with pytest.raises(InvalidInputError):
                    dual_base(A.row_list())
            AB, closed = close_base(A.row_list())
            if not is_nonsingular(AB):
                continue
            nb = nabla(AB)
            E = nb @ AB @ nb
            assert [e.covector for e in dual_base(closed)] == E.row_list()
            IA = AB @ nb
            for v in (IA.apply(rand_vec(rng, n)), rand_vec(rng, n)):
                if IA.apply(v) == v:
                    fixed += 1
                    assert reconstruct(closed, v) == AB.apply(E.apply(v)) == v
                else:
                    moved += 1
                    with pytest.raises(NotInClosedSpanError):
                        reconstruct(closed, v)
    assert fixed >= 40 and moved >= 20 and unclosed >= 20


def test_dual_pipeline_solves_each_base_once(monkeypatch):
    # close_base keeps its product under its rows, so dual_base and
    # reconstruct on the closed rows, also on rows built apart with the
    # same content, solve no assignment again: one for the base's own
    # matrix and one for the closed one, which is the base itself when
    # the base is closed.  Each draw runs from an empty cache on the base
    # and on its closure.  The outputs are the products written out in
    # test_dual_chains_match_their_matrix_products.
    calls = count_perm_adjoint(monkeypatch)
    rng = seeded(31)
    closed_bases = unclosed = 0
    for n in range(2, 7):
        for _ in range(8):
            A = rand_nonsingular(rng, n, ghost_p=0.2)
            AB = A @ nabla(A) @ A
            try:
                nb = nabla(AB)
            except SingularMatrixError:
                continue
            E = nb @ AB @ nb
            IA = AB @ nb
            fixed, other = IA.apply(rand_vec(rng, n)), rand_vec(rng, n)
            apart = [Vec(list(r)) for r in AB.row_tuples]
            for base in (A, AB):
                is_closed = base == AB
                dual._shared.cache_clear()
                calls.clear()
                got, closed = close_base(base.row_list())
                assert got == AB and closed == AB.row_list()
                if not is_closed:
                    for _ in range(2):
                        with pytest.raises(InvalidInputError):
                            dual_base(base.row_list())
                for B in (closed, apart):
                    assert [e.covector for e in dual_base(B)] == E.row_list()
                    assert reconstruct(B, fixed) == AB.apply(E.apply(fixed)) == fixed
                    if IA.apply(other) != other:
                        with pytest.raises(NotInClosedSpanError):
                            reconstruct(B, other)
                assert len(calls) == (1 if is_closed else 2), (base, len(calls))
                closed_bases += is_closed
                unclosed += not is_closed
    assert closed_bases >= 35 and unclosed >= 30, (closed_bases, unclosed)


@pytest.mark.parametrize("base, error, match", [
    ([], InvalidInputError, "empty base"),
    (rows("0 1 2\n1 0 2"), InvalidInputError, "must be square"),
    ([vec("0 1"), vec("1")], ShapeError, "ragged rows"),
])
def test_malformed_bases_raise_on_every_call(base, error, match):
    for _ in range(2):
        for call in (lambda: close_base(base), lambda: dual_base(base),
                     lambda: reconstruct(base, vec("0 0")),
                     lambda: double_dual(base, vec("0 0"))):
            with pytest.raises(error, match=match):
                call()


# -- kernels and map classification ------------------------------------

def test_ghost_kernel_of_identity():
    ker = ghost_kernel(MapByMatrix(Mat.identity(2)))
    assert ker(vec("1v -inf"))
    assert ker(vec("-inf -inf"))
    assert not ker(vec("0 -inf"))


def test_ghost_kernel_of_all_ghost_map(rng):
    ker = ghost_kernel(MapByMatrix(mat("1v 2v\n0v 1v")))
    for _ in range(10):
        assert ker(rand_vec(rng, 2))


def test_ghost_kernel_of_all_ones():
    M = mat("0 0\n0 0")
    ker = ghost_kernel(MapByMatrix(M))
    assert M.apply(vec("0 0")) == vec("0v 0v")
    assert ker(vec("0 0"))
    assert not ker(vec("1 0"))


def test_ghost_monic_identity():
    assert is_ghost_monic(MapByMatrix(Mat.identity(2)), [E1, E2])


def test_ghost_monic_checks_its_samples():
    M = MapByMatrix(Mat.identity(2))
    with pytest.raises(InvalidInputError, match="need at least one sample generator"):
        is_ghost_monic(M, [])
    with pytest.raises(ShapeError, match="sample dimension does not match the map"):
        is_ghost_monic(M, [E1, vec("0 0 0")])


def test_functional_prints_its_covector():
    assert str(dual.Functional(vec("0 1v -inf"))) == "0 1v -inf"


def test_ghost_monic_fails_for_ties():
    assert not is_ghost_monic(MapByMatrix(mat("0 0\n0 0")), [E1, E2])
    assert not is_ghost_monic(MapByMatrix(mat("1v 2v\n0v 1v")), [E1, E2])


def test_ghost_monic_matches_the_product_grid():
    # The depth-first search decides as the full tag grid does; wider
    # values and halves only where the grid stays small.
    rng = seeded(29)
    kernel = 0
    for _ in range(200):
        k, n, m = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        kw = dict(lo=0, hi=1) if k * n > 3 else dict(lo=-1, hi=2)
        kw["denom"] = rng.choice((1, 2)) if k < 3 else 1
        M = rand_mat(rng, m, n, **kw)
        gens = [rand_vec(rng, n, **kw) for _ in range(k)]
        want = is_ghost_monic_reference(M, gens)
        assert is_ghost_monic(MapByMatrix(M), gens) == want, (M, gens)
        kernel += not want
    assert kernel >= 100 and 200 - kernel >= 50


def test_ghost_monic_builds_no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("tag grid built for is_ghost_monic")

    for module in (matrices, span):
        monkeypatch.setattr(module, "product", no_grid, raising=False)
    rng = seeded(30)
    for _ in range(100):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        M = rand_mat(rng, rng.randint(1, 3), n, lo=0, hi=2)
        is_ghost_monic(M, [rand_vec(rng, n, lo=0, hi=2) for _ in range(k)])


def test_tropically_onto():
    assert is_tropically_onto(MapByMatrix(Mat.identity(2)), 2)
    assert not is_tropically_onto(MapByMatrix(mat("1v 2v\n0v 1v")), 2)
    # a map from dimension 2 to 3, and the images of given generators
    f = MapByMatrix(mat("0 -inf\n-inf 0\n1 1"))
    assert (f.source_dim, f.target_dim) == (2, 3)
    assert f(E1) == vec("0 -inf 1")
    assert is_tropically_onto(f, 2, generators=[E1, E2])
    assert is_tropically_onto(f, 1, generators=[E1, E1])
    assert not is_tropically_onto(f, 2, generators=[E1, E1])


def test_iso_examples():
    assert is_iso(MapByMatrix(Mat.identity(2)))
    assert not is_iso(MapByMatrix(mat("0 0\n0 0")))
    assert is_iso(MapByMatrix(mat("-inf 2\n7 -inf")))


def test_iso_composition(rng):
    gp = [mat("-inf 2\n7 -inf"), mat("3 -inf\n-inf -1"), mat("-inf -1\n0 -inf")]
    for _ in range(6):
        P = gp[rng.randrange(3)] @ gp[rng.randrange(3)]
        assert is_iso(MapByMatrix(P))


# -- monotonicity ------------------------------------------------------

def test_map_preserves_surpassing(rng):
    for _ in range(40):
        M = rand_mat(rng, 3, 3)
        w = rand_vec(rng, 3)
        bump = rand_vec(rng, 3, zero_p=0.5).nu()
        v = w + bump
        assert v.surpasses(w)
        assert M.apply(v).surpasses(M.apply(w))


def test_map_preserves_nu_order(rng):
    for _ in range(40):
        M = rand_mat(rng, 3, 3)
        w = rand_vec(rng, 3)
        v = w + rand_vec(rng, 3, zero_p=0.4)
        assert v.nu_ge(w)
        assert M.apply(v).nu_ge(M.apply(w))


# -- double dual -------------------------------------------------------

def test_double_dual_standard_base(rng):
    for _ in range(10):
        v = rand_vec(rng, 2)
        assert double_dual([E1, E2], v) == v


def test_double_dual_base_columns():
    f0 = double_dual(DA.row_list(), DA.col(0))
    f1 = double_dual(DA.row_list(), DA.col(1))
    assert f0 == vec("0 -inf")
    assert f1 == vec("1v 0")
    # tangible on the matching index, ghost or zero elsewhere
    for j, f in enumerate((f0, f1)):
        for i, x in enumerate(f):
            if i == j:
                assert x == T(0)
            else:
                assert x.is_ghost0()


def test_double_dual_never_all_ghost_on_tangible_members(rng):
    # A nonzero member of the closed span cannot evaluate to ghost
    # against every dual functional unless it is itself ghost.
    for _ in range(25):
        A = rand_nonsingular(rng, 2)
        AB, closed = close_base(A.row_list())
        if not is_nonsingular(AB):
            continue
        IA = quasi_identity(AB)[0]
        v = IA.apply(rand_vec(rng, 2))
        if v.is_zero() or v.is_ghost():
            continue
        f = double_dual(closed, v)
        assert not f.is_ghost()


# -- plain scalar sequences --------------------------------------------

def test_functionals_and_double_dual_take_scalar_sequences():
    eps = dual_base(DA.row_list())
    b = DA.col(1)
    for seq in (list(b), tuple(b)):
        assert eps[0](seq) == eps[0](b) == G(1)
        assert double_dual(DA.row_list(), seq) == double_dual(DA.row_list(), b)
    for call in (lambda v: eps[0](v), lambda v: double_dual(DA.row_list(), v)):
        with pytest.raises(TypeError):
            call([T(0), 0])
        with pytest.raises(ShapeError):
            call([T(0)])


def test_reconstruct_takes_a_scalar_sequence():
    v = vec("2v 1")
    for seq in (list(v), tuple(v)):
        got = reconstruct(DA.row_list(), seq)
        assert isinstance(got, Vec) and got == v
    with pytest.raises(NotInClosedSpanError):
        reconstruct(DA.row_list(), [T(1), G(1)])
    with pytest.raises(TypeError):
        reconstruct(DA.row_list(), [T(2), 1])
    with pytest.raises(ShapeError):
        reconstruct(DA.row_list(), [T(2)])
