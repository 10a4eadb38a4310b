"""Every public entry that takes a family rejects a bad one the same way:
an empty family raises InvalidInputError, and members of two dimensions
or a target of another dimension raise ShapeError."""

import pytest

from supertropical import (
    ONE,
    ZERO,
    DepWitness,
    GramForm,
    InvalidInputError,
    ShapeError,
    SpanWitness,
    d_base,
    depends_on,
    extend_with_tangible,
    gram_dependence,
    gram_of_dot,
    is_almost_tangible,
    is_critical,
    is_dependent,
    is_thick,
    max_rank,
    s_base,
    saturate,
    saturate_by_sup,
    spans,
    sum_saturated,
    sup_witness,
)

from helpers import mat, vec

V = vec("0 1")
LONG = vec("1v 0v 5v")
FAMILY = [vec("1 0"), vec("0 5")]
MIXED = [vec("1 2"), vec("4")]
FORM = GramForm(mat("0 1\n1 0"))
ZERO_2 = vec("-inf -inf")


def _witness(v, S):
    """A witness for v on the first member of S, whatever S holds."""
    return DepWitness((ONE,) + (ZERO,) * (len(S) - 1), (0,), v)


# (entry, call on a family S and a target v, what an empty family gives,
# whether the call takes a target)
CASES = [
    ("is_dependent", lambda S, v: is_dependent(S), InvalidInputError, False),
    ("depends_on", lambda S, v: depends_on(v, S), InvalidInputError, True),
    ("max_rank", lambda S, v: max_rank(S), InvalidInputError, False),
    ("d_base", lambda S, v: d_base(S), InvalidInputError, False),
    ("extend_with_tangible", lambda S, v: extend_with_tangible(S, v), (), True),
    ("saturate", lambda S, v: saturate(v, S, _witness(v, S)),
     InvalidInputError, True),
    ("saturate_by_sup", lambda S, v: saturate_by_sup(v, S, _witness(v, S)),
     InvalidInputError, True),
    ("sup_witness",
     lambda S, v: sup_witness(_witness(v, S), _witness(v, S), S),
     InvalidInputError, True),
    ("sum_saturated",
     lambda S, v: sum_saturated(_witness(v, S), _witness(v, S), S),
     InvalidInputError, True),
    ("DepWitness.is_valid", lambda S, v: _witness(v, S).is_valid(S),
     InvalidInputError, True),
    ("spans", lambda S, v: spans(S, v), InvalidInputError, True),
    ("SpanWitness.is_valid",
     lambda S, v: SpanWitness(_witness(v, S).coeffs, (0,), ZERO_2).is_valid(S, v),
     InvalidInputError, True),
    ("is_critical", lambda S, v: is_critical(0, S), InvalidInputError, False),
    ("s_base", lambda S, v: s_base(S), InvalidInputError, False),
    ("is_thick", lambda S, v: is_thick(S, [v]), InvalidInputError, True),
    ("is_almost_tangible", lambda S, v: is_almost_tangible(v, S), True, True),
    ("gram_of_dot", lambda S, v: gram_of_dot(S), InvalidInputError, False),
    ("gram_dependence", lambda S, v: gram_dependence(S, FORM),
     InvalidInputError, False),
]


@pytest.mark.parametrize(
    "call, empty, takes_target",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_bad_family_is_rejected(call, empty, takes_target):
    if isinstance(empty, type):
        with pytest.raises(empty):
            call([], V)
    else:
        assert call([], V) == empty
    with pytest.raises(ShapeError):
        call(MIXED, V)
    if takes_target:
        with pytest.raises(ShapeError):
            call(FAMILY, LONG)
