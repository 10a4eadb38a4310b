"""Scalar arithmetic: the two-layer max-plus semifield.

Addition returns the argument of larger value and ghosts ties;
multiplication adds values and the ghost layer absorbs.  Everything
downstream leans on these axioms, so they get both example tests and
property tests here.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertropical import (
    E,
    ONE,
    ZERO,
    Scalar,
    add,
    ghost,
    ghost_surpasses,
    mul,
    nu,
    nu_hat,
    tangible,
    zero,
)
from supertropical.scalars import gd
from helpers import G, T

values = st.fractions(min_value=-8, max_value=8, max_denominator=4)
scalars = st.one_of(
    st.just(ZERO),
    st.builds(lambda q: tangible(q), values),
    st.builds(lambda q: ghost(q), values),
)


# -- construction and predicates ---------------------------------------

def test_constants():
    assert ONE == T(0)
    assert E == G(0)
    assert E == nu(ONE)
    assert ZERO.is_zero()
    assert zero() is ZERO


def test_construction_rejects_other_inputs():
    with pytest.raises(TypeError, match="cannot build a scalar value from list"):
        Scalar([1])
    with pytest.raises(ValueError, match="zero has no ghost variant"):
        Scalar(None, True)


def test_operators_refuse_other_types():
    # the NotImplemented returns: Python then raises TypeError, and an
    # equality test against another type is False
    for call in (lambda: T(1) + 1, lambda: T(1) / 2):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(TypeError, match="exponent must be an int"):
        T(1) ** 1.5
    with pytest.raises(ValueError, match="ghost scalars have no multiplicative inverse"):
        T(1) / G(1)
    assert not (T(1) == 1) and T(1) != 1


def test_zero_is_nu_below_every_nonzero():
    assert ZERO.nu_lt(T(-5)) and ZERO.nu_lt(G(3)) and T(-5).nu_gt(ZERO)
    assert not ZERO.nu_lt(ZERO)


def test_repr_is_the_text_form():
    assert [repr(x) for x in (T(1), G(Fraction(1, 2)), ZERO)] == ["1", "1/2v", "-inf"]


def test_zero_is_canonical():
    # There is exactly one zero; it never carries a value.
    assert ZERO.value is None
    assert not ZERO.is_tangible()
    assert not ZERO.is_ghost()


def test_zero_belongs_to_both_closures():
    assert ZERO.is_ghost0()
    assert ZERO.is_tangible0()


def test_layer_predicates():
    assert T(3).is_tangible() and T(3).is_tangible0()
    assert not T(3).is_ghost0()
    assert G(3).is_ghost() and G(3).is_ghost0()
    assert not G(3).is_tangible0()


def test_values_are_exact_rationals():
    assert T("1/3").value == Fraction(1, 3)
    assert (T("1/3") * T("2/3")).value == Fraction(1, 1)


def test_scalar_from_a_string_is_exact():
    s = Scalar("3/4")
    assert s.is_tangible()
    assert s.value == Fraction(3, 4)


@pytest.mark.parametrize("value, match", [
    (1.5, "not float"),
    (True, "not bool"),
])
def test_scalar_rejects_floats_and_bools(value, match):
    with pytest.raises(TypeError, match=match):
        Scalar(value)


# -- addition ----------------------------------------------------------

def test_add_examples():
    assert T(3) + T(2) == T(3)
    assert T(3) + T(3) == G(3)
    assert G(2) + T(3) == T(3)
    assert T(3) + G(3) == G(3)


def test_add_zero_neutral():
    for a in (T(5), G(-1), ZERO):
        assert a + ZERO == a
        assert ZERO + a == a


def test_module_level_add():
    assert add(T(1), T(1)) == G(1)


# -- multiplication ----------------------------------------------------

def test_mul_examples():
    assert T(1) * T(2) == T(3)
    assert G(1) * T(2) == G(3)
    assert ZERO * G(5) == ZERO
    assert mul(G(1), G(2)) == G(3)


def test_mul_one_neutral():
    for a in (T(5), G(-1), ZERO):
        assert a * ONE == a
        assert ONE * a == a


def test_division():
    assert T(5) / T(2) == T(3)
    assert G(5) / T(2) == G(3)
    assert ZERO / T(2) == ZERO


def test_division_by_zero_rejected():
    with pytest.raises(Exception):
        T(1) / ZERO


# -- nu and nu_hat -----------------------------------------------------

def test_nu_examples():
    assert nu(T(3)) == G(3)
    assert nu(G(3)) == G(3)
    assert nu(ZERO) == ZERO


def test_nu_is_add_with_self():
    for a in (T(2), G(2), ZERO, T("-7/2")):
        assert a + a == nu(a)


def test_nu_hat_examples():
    assert nu_hat(G(3)) == T(3)
    assert nu_hat(T(3)) == T(3)
    assert nu_hat(ZERO) == ZERO


@given(scalars)
def test_nu_idempotent(a):
    assert nu(nu(a)) == nu(a)


@given(scalars)
def test_nu_hat_section(a):
    # nu_hat is a value-preserving section of nu.
    assert nu(nu_hat(a)) == nu(a)
    if a.is_tangible():
        assert nu_hat(nu(a)) == a


# -- ghost surpassing and ghost dependence -----------------------------

def test_ghost_surpasses_examples():
    assert G(3).ghost_surpasses(T(2))
    assert not T(2).ghost_surpasses(G(3))
    assert T(2).ghost_surpasses(T(2))
    assert not G(2).ghost_surpasses(G(3))


def test_ghost_surpasses_zero_cases():
    assert ZERO.ghost_surpasses(ZERO)
    assert G(1).ghost_surpasses(ZERO)
    assert not ZERO.ghost_surpasses(T(0))
    assert not ZERO.ghost_surpasses(G(0))


def test_gd_examples():
    assert T(1).gd(G(3)) and gd(T(1), G(3))
    assert not T(1).gd(T(2)) and not gd(T(1), T(2))
    for a in (T(4), G(4), ZERO):
        assert a.gd(a)


@given(scalars, scalars)
def test_surpassing_implies_gd(a, b):
    if a.ghost_surpasses(b):
        assert a.gd(b)


@given(scalars)
def test_surpassing_reflexive(a):
    assert a.ghost_surpasses(a)


@given(scalars, scalars)
def test_surpassing_antisymmetric(a, b):
    if a.ghost_surpasses(b) and b.ghost_surpasses(a):
        assert a == b


@given(scalars, scalars, scalars)
def test_surpassing_transitive(a, b, c):
    if a.ghost_surpasses(b) and b.ghost_surpasses(c):
        assert a.ghost_surpasses(c)


def test_module_level_surpasses():
    assert ghost_surpasses(G(3), T(2))


# -- powers ------------------------------------------------------------

def test_pow_examples():
    assert T(2) ** 3 == T(6)
    assert G(2) ** 2 == G(4)
    assert (T(1) + T(2)) ** 3 == T(1) ** 3 + T(2) ** 3 == T(6)


def test_pow_rejects_nonpositive():
    with pytest.raises(Exception):
        T(2) ** 0


@given(scalars, scalars, st.integers(min_value=1, max_value=6))
def test_frobenius(a, b, m):
    assert (a + b) ** m == a ** m + b ** m


# -- semiring laws -----------------------------------------------------

@given(scalars, scalars)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(scalars, scalars)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(scalars, scalars, scalars)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_bipotence_with_ghosting(a, b):
    s = a + b
    assert s in (a, b, nu(a))
    if a.nu_matches(b):
        assert s == nu(a)
    else:
        # No tie: the value-larger argument wins unchanged.
        assert s == (a if a.nu_ge(b) else b)


@given(scalars, scalars)
def test_nu_morphism(a, b):
    assert nu(a + b) == nu(a) + nu(b)
    assert nu(a * b) == nu(a) * nu(b)


# -- value-order helpers -----------------------------------------------

def test_nu_comparisons():
    assert T(2).nu_matches(G(2))
    assert T(2).nu_le(G(3)) and T(2).nu_lt(G(3))
    assert G(3).nu_ge(T(2)) and G(3).nu_gt(T(2))
    assert ZERO.nu_le(T(-100))
    assert not ZERO.nu_gt(ZERO)
