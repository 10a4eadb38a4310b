"""Text format round-trips and parse errors.

Grammar per entry: ``-inf`` for zero, a decimal integer or ``p/q``
rational for a tangible value, with a trailing ``v`` marking the ghost
layer.  Matrix files are one row per line, ``#`` comments and blank
lines skipped.
"""

from fractions import Fraction

import pytest

from supertropical import (
    Mat,
    ParseError,
    ZERO,
    parse_matrix,
    parse_scalar,
    parse_vector,
    print_matrix,
    print_scalar,
    print_vector,
)
from helpers import (
    G,
    T,
    parse_matrix_reference,
    rand_mat,
    rand_scalar,
    scalar_from_token_reference,
    seeded,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", T(3)),
        ("-4", T(-4)),
        ("+2", T(2)),
        ("3v", G(3)),
        ("-inf", ZERO),
        ("1/2", T(Fraction(1, 2))),
        ("-3/2v", G(Fraction(-3, 2))),
        ("0", T(0)),
        ("0v", G(0)),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


def test_parse_scalar_strips_whitespace():
    assert parse_scalar("  3v ") == G(3)


def test_ghost_marked_zero_canonicalizes():
    # A ghost suffix on -inf is accepted and collapses to the one zero.
    assert parse_scalar("-infv") == ZERO
    assert print_scalar(parse_scalar("-infv")) == "-inf"


@pytest.mark.parametrize(
    "bad",
    ["", "x", "3w", "v", "1/0", "1//2", "3.5", "--4", "inf",
     # a blank inside the text makes two tokens, as in a matrix row
     "1 2", "3 4v", "1\t2", "-inf v", " 1 2 "],
)
def test_parse_scalar_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_print_scalar_canonical():
    assert print_scalar(T(3)) == "3"
    assert print_scalar(G(3)) == "3v"
    assert print_scalar(ZERO) == "-inf"
    assert print_scalar(T(Fraction(1, 2))) == "1/2"
    assert print_scalar(G(Fraction(-7, 3))) == "-7/3v"


# -- matrices and vectors ----------------------------------------------

def test_parse_matrix_example():
    A = parse_matrix("5 5 4\n0 1 4\n0 2 4")
    assert A.shape == (3, 3)
    assert A.entry(0, 0) == T(5)
    assert A.entry(2, 1) == T(2)


def test_parse_matrix_with_ghosts():
    A = parse_matrix("0 0v\n-inf 0")
    assert A.entry(0, 1) == G(0)
    assert A.entry(1, 0) == ZERO


def test_parse_vector_fraction():
    v = parse_vector("1/2 -inf")
    assert v[0] == T(Fraction(1, 2))
    assert v[1] == ZERO


def test_comments_and_blank_lines_ignored():
    A = parse_matrix("# header\n\n1 2\n# middle\n3 4\n\n")
    assert A == parse_matrix("1 2\n3 4")


def test_ragged_rows_rejected():
    with pytest.raises(ParseError) as exc:
        parse_matrix("1 2\n\n3 4 5\n")
    err = exc.value
    assert (err.line, err.column) == (3, 1)
    assert str(err) == "line 3, column 1: row has 3 entries, expected 2"


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_matrix("# nothing here\n")


def test_vector_needs_single_row():
    with pytest.raises(ParseError):
        parse_vector("1 2\n3 4")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_matrix("1 2\n3 oops")
    err = exc.value
    assert err.line == 2
    assert err.column == 3
    assert "2" in str(err) and "3" in str(err)


# -- round-trips -------------------------------------------------------

def test_round_trip_random(rng):
    for _ in range(50):
        A = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4), denom=3)
        assert parse_matrix(print_matrix(A)) == A


def test_round_trip_scalars(rng):
    for _ in range(200):
        s = rand_scalar(rng, denom=5)
        assert parse_scalar(print_scalar(s)) == s


def test_print_is_canonical():
    # Reprinting a parsed file gives the same bytes back.
    text = print_matrix(parse_matrix("  1   2v \n -inf 1/2\n"))
    assert parse_matrix(text) == parse_matrix("1 2v\n-inf 1/2")
    assert print_matrix(parse_matrix(text)) == text


def test_print_vector_round_trip():
    v = parse_vector("1 2v -inf")
    assert parse_vector(print_vector(v)) == v


# -- pinned positions and value types ----------------------------------

def test_bad_token_after_tab_reports_its_column():
    with pytest.raises(ParseError) as exc:
        parse_matrix("1 2 3\n4\t5 1.5\n")
    err = exc.value
    assert (err.line, err.column) == (2, 5)
    assert str(err) == "line 2, column 5: bad scalar token '1.5'"


def test_zero_denominator_with_ghost_marker_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_matrix("# header\n  3/0v 1\n")
    err = exc.value
    assert (err.line, err.column) == (2, 3)
    assert str(err) == "line 2, column 3: zero denominator in '3/0v'"


@pytest.mark.parametrize("text,value", [("4/2", 2), ("-0", 0), ("-0v", 0)])
def test_integral_values_parse_to_int(text, value):
    x = parse_matrix(text).entry(0, 0)
    assert x.value == value and type(x.value) is int
    assert type(parse_scalar(text).value) is int


# -- differential check against the validating reference parser ---------

# Arabic-Indic 3 and Devanagari 12 are decimal digits to ``int`` and
# ``Fraction`` alike; U+3000 is an ideographic space.
_GOOD = ["0", "3", "-4", "+5", "-0", "007", "4/2", "3/6", "-7/3", "12",
         "\u0663", "\u0967\u0968", "-inf", "-Inf", "-INF"]
_BAD = ["3/0", "1_0", "1.5", "1/", "v", "x", "--4", "inf", "3w", "1//2"]
_GAPS = [" ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
_ENDS = ["\n", "\r\n", "\r", "\x1c", "\x1d", "\x1e"]


def _random_token(rng, bad_p):
    if rng.random() < bad_p:
        return rng.choice(_BAD) + rng.choice(["", "v"])
    return rng.choice(_GOOD) + ("v" if rng.random() < 0.3 else "")


def _random_text(rng):
    bad_p = rng.choice([0, 0, 0.02, 0.1])
    width = rng.randint(1, 4)
    lines = []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(["", " ", "\t"]))
            continue
        if r < 0.2:
            lines.append(rng.choice(["", "  ", "\t"]) + "# " + _random_token(rng, 0))
            continue
        n = width if rng.random() < 0.9 else rng.randint(1, 5)
        gaps = [rng.choice(_GAPS) for _ in range(n + 1)]
        lead = gaps[0] if rng.random() < 0.3 else ""
        tail = gaps[-1] if rng.random() < 0.3 else ""
        body = "".join(
            (gaps[i] if i else "") + _random_token(rng, bad_p) for i in range(n)
        )
        lines.append(lead + body + tail)
    return "".join(line + rng.choice(_ENDS) for line in lines)


def _outcome(parse, text):
    try:
        x = parse(text)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    entries = [e for row in x.row_tuples for e in row] if isinstance(x, Mat) else [x]
    return ("ok", getattr(x, "shape", None),
            [(e.value, type(e.value), e.is_ghost()) for e in entries])


def test_parser_matches_reference_on_seeded_texts():
    rng = seeded(1414)
    errors = 0
    for _ in range(6000):
        text = _random_text(rng)
        got = _outcome(parse_matrix, text)
        assert got == _outcome(parse_matrix_reference, text), repr(text)
        if got[0] == "error":
            errors += 1
        else:
            A = parse_matrix(text)
            B = Mat(A.row_list())
            assert A == B and hash(A) == hash(B)
        token = _random_token(rng, 0.3)
        assert _outcome(parse_scalar, token) == _outcome(
            scalar_from_token_reference, token
        ), repr(token)
    # both outcomes are well represented
    assert 1000 < errors < 5000
