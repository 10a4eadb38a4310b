"""Exact scalars for max-plus arithmetic with a ghost layer.

A scalar is one of three things:

* ``zero``, the additive identity, printed ``-inf``; it is absorbing under
  multiplication and neutral under addition;
* a *tangible* element carrying a rational value ``q``, written ``q``;
* a *ghost* element carrying a rational value ``q``, written ``q^v`` here
  and ``qv`` in serialized text.

Values live in log notation: addition of scalars takes the larger value and
multiplication adds values.  When two arguments of an addition carry the
same value the result is the ghost of that value, even if both arguments
were tangible.  That single rule is the reason everything in this package
uses exact rationals: a tie decided by floating point rounding would silently
change ghostness, and ghostness is the whole point.

Ghosts are absorbing under multiplication (a ghost factor makes a ghost
product) and collectively play the role of zero in the relations below.

Two derived maps show up everywhere:

* ``nu`` sends a scalar to the ghost of the same value (zero stays zero).
  ``nu(a)`` equals ``a + a``.  Scalars with equal ``nu`` images are called
  nu-matched; that is the equivalence tested by :meth:`Scalar.nu_matches`.
* ``nu_hat`` is the value-preserving lift back: it sends a ghost to the
  tangible of the same value and fixes everything else.

The order relation that replaces equality in this algebra is
*ghost surpassing*: ``a`` surpasses ``b`` when ``a == b`` or ``a`` is a
ghost whose value is at least the value of ``b``.  In other words
``a = b + (ghost or zero)``.  It is a partial order; tangibles surpass
only themselves.

Instances are immutable, hashable and cheap; arithmetic never mutates.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "E",
    "zero",
    "tangible",
    "ghost",
    "add",
    "mul",
    "nu",
    "nu_hat",
    "ghost_surpasses",
    "gd",
]

_new = object.__new__


def _coerce_value(x):
    """Turn user input into an int or Fraction, rejecting floats.

    Floats are refused on purpose rather than converted: a caller who has
    been computing in floating point has already lost the exact ties this
    algebra depends on, and accepting the bits would just launder the error.
    """
    if isinstance(x, bool):
        raise TypeError("scalar values must be rational numbers, not bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return x
    if isinstance(x, str):
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f
    if isinstance(x, float):
        raise TypeError(
            "scalar values must be exact (int, Fraction or string), not float"
        )
    raise TypeError(f"cannot build a scalar value from {type(x).__name__}")


class Scalar:
    """One element of the semifield: zero, tangible(q) or ghost(q).

    Do not poke at the slots directly; use the factories :func:`tangible`,
    :func:`ghost` and the constants :data:`ZERO`, :data:`ONE`, :data:`E`.
    The constructor is public and validating, the factories are simply more
    readable.
    """

    __slots__ = ("_v", "_g")

    def __init__(self, value=None, is_ghost=False):
        if value is None:
            if is_ghost:
                raise ValueError("zero has no ghost variant")
            self._v = None
            self._g = False
        else:
            self._v = _coerce_value(value)
            self._g = bool(is_ghost)

    # -- predicates ----------------------------------------------------

    @property
    def value(self):
        """The rational magnitude, or ``None`` for zero."""
        return self._v

    def is_zero(self):
        return self._v is None

    def is_tangible(self):
        """True for a tangible with a finite value (zero excluded)."""
        return self._v is not None and not self._g

    def is_ghost(self):
        """True for a ghost with a finite value (zero excluded)."""
        return self._g

    def is_tangible0(self):
        """Tangible or zero."""
        return not self._g

    def is_ghost0(self):
        """Ghost or zero.  This is membership in the ideal that plays
        the role of zero in all the surpassing relations."""
        return self._g or self._v is None

    # -- semiring operations -------------------------------------------

    def __add__(self, other):
        av = self._v
        try:
            bv = other._v
        except AttributeError:
            return NotImplemented
        if av is None:
            return other
        if bv is None:
            return self
        if av < bv:
            return other
        if bv < av:
            return self
        # equal values: a tie ghosts the result unless one side already is
        if self._g:
            return self
        if other._g:
            return other
        s = _new(Scalar)
        s._v = av
        s._g = True
        return s

    def __mul__(self, other):
        av = self._v
        try:
            bv = other._v
        except AttributeError:
            return NotImplemented
        if av is None or bv is None:
            return ZERO
        v = av + bv
        if type(v) is not int and v.denominator == 1:
            v = int(v)
        s = _new(Scalar)
        s._v = v
        s._g = self._g or other._g
        return s

    def __pow__(self, m):
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError("exponent must be an int")
        if m < 1:
            raise ValueError("exponent must be at least 1")
        if self._v is None:
            return self
        return _made(self._v * m, self._g)

    def __truediv__(self, other):
        """Multiply by the inverse of a tangible.

        Ghosts are not invertible; dividing by one raises.  Dividing zero by
        anything nonzero gives zero.
        """
        if not isinstance(other, Scalar):
            return NotImplemented
        if other._v is None:
            raise ZeroDivisionError("division by the zero scalar")
        if other._g:
            raise ValueError("ghost scalars have no multiplicative inverse")
        if self._v is None:
            return ZERO
        return _made(self._v - other._v, self._g)

    # -- ghost map and lift --------------------------------------------

    def nu(self):
        """Ghost of the same value; zero maps to zero.  Idempotent."""
        if self._g or self._v is None:
            return self
        s = _new(Scalar)
        s._v = self._v
        s._g = True
        return s

    def nu_hat(self):
        """Tangible of the same value; zero maps to zero."""
        if not self._g:
            return self
        s = _new(Scalar)
        s._v = self._v
        s._g = False
        return s

    # -- relations ------------------------------------------------------

    def ghost_surpasses(self, other):
        """``self == other`` plus some ghost-or-zero element.

        Equivalently: equal, or self is a ghost whose value is at least the
        value of other.  A partial order.
        """
        if self._v == other._v and self._g == other._g:
            return True
        if not self._g:
            return False
        if other._v is None:
            return True
        return self._v >= other._v

    def gd(self, other):
        """True when the sum of the two scalars is ghost or zero."""
        return (self + other).is_ghost0()

    def nu_matches(self, other):
        """Equal values, ghostness ignored."""
        return self._v == other._v

    def nu_le(self, other):
        av, bv = self._v, other._v
        if av is None:
            return True
        if bv is None:
            return False
        return av <= bv

    def nu_lt(self, other):
        av, bv = self._v, other._v
        if bv is None:
            return False
        if av is None:
            return True
        return av < bv

    def nu_ge(self, other):
        return other.nu_le(self)

    def nu_gt(self, other):
        return other.nu_lt(self)

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._v == other._v and self._g == other._g

    def __ne__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._v != other._v or self._g != other._g

    def __hash__(self):
        return hash((self._v, self._g))

    def __bool__(self):
        """Nonzero test.  Note that ghosts are truthy; use is_ghost0 to
        test for the zero-like ideal."""
        return self._v is not None

    def __str__(self):
        if self._v is None:
            return "-inf"
        text = str(self._v)
        return text + "v" if self._g else text

    def __repr__(self):
        return str(self)


def _made(v, g):
    """The nonzero scalar of a value the library computed itself, with
    ghost flag ``g``: no checks, and a Fraction with denominator 1 becomes
    an int, as in :meth:`Scalar.__mul__`."""
    if type(v) is not int and v.denominator == 1:
        v = int(v)
    s = _new(Scalar)
    s._v = v
    s._g = g
    return s


ZERO = Scalar()
ONE = Scalar(0)
E = Scalar(0, True)


def zero():
    """The additive identity (printed ``-inf``)."""
    return ZERO


def tangible(x):
    """Tangible scalar with value ``x`` (int, Fraction or string)."""
    return Scalar(x)


def ghost(x):
    """Ghost scalar with value ``x`` (int, Fraction or string)."""
    return Scalar(x, True)


# Functional aliases.  Methods are the fast path; these exist so that code
# which treats the operations as first-class functions reads naturally.

def add(a, b):
    return a + b


def mul(a, b):
    return a * b


def nu(a):
    return a.nu()


def nu_hat(a):
    return a.nu_hat()


def ghost_surpasses(a, b):
    return a.ghost_surpasses(b)


def gd(a, b):
    return a.gd(b)
