"""Text formats for scalars, vectors and matrices.

Scalar grammar: ``-inf`` for zero, a rational for a tangible, a rational
with a ``v`` suffix for a ghost.  Rationals are decimal integers or ``p/q``
with an optional leading sign.  Examples: ``-inf``, ``11``, ``0v``,
``-3/4v``.

Matrix files are plain UTF-8: one row per line, entries separated by
whitespace, lines whose first non-blank character is ``#`` are comments,
blank lines are skipped.  A vector is a one-line matrix file.

A scalar is one token in every format.  On its own it may have blanks
around it, but not inside it: ``3 v`` and ``1 2`` are rejected, as a
matrix row reads them as two tokens.  Printing always produces the
canonical space-free form, and parse(print(x)) == x exactly.

A matrix file is read in one pass: lines split on whitespace, each
distinct token read once, integers read with ``int`` (``Fraction`` only
for ``p/q``), entries and rows built unchecked.  Positions are computed
only on error, by scanning the failing line again, so a ``ParseError``
still carries its line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exceptions import ParseError
from .matrices import _mat
from .scalars import ZERO, _made

__all__ = [
    "parse_scalar",
    "print_scalar",
    "parse_matrix",
    "print_matrix",
    "parse_vector",
    "print_vector",
]

_INT = re.compile(r"[+-]?\d+")
_RAT = re.compile(r"[+-]?\d+/\d+")


def _scalar_from_token(token, line=None, column=None):
    ghost = token.endswith("v")
    body = token[:-1] if ghost else token
    if _INT.fullmatch(body):
        return _made(int(body), ghost)
    if body in ("-inf", "-Inf", "-INF"):
        # the ghost marker on zero is accepted and dropped: there is only
        # one zero
        return ZERO
    if not _RAT.fullmatch(body):
        raise ParseError(f"bad scalar token {token!r}", line, column)
    try:
        q = Fraction(body)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}", line, column)
    return _made(q, ghost)


def parse_scalar(text):
    """Parse one scalar token; blanks around it are ignored, blanks inside
    it are a ``ParseError``."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty scalar text")
    if len(tokens) > 1:
        raise ParseError(f"whitespace inside scalar text {text!r}")
    return _scalar_from_token(tokens[0])


def print_scalar(s):
    return str(s)


def parse_matrix(text):
    """Parse a matrix file; raises ParseError with line and column info."""
    rows = []
    width = None
    # each distinct token is read once per call; a Scalar is immutable,
    # so equal entries share it
    seen = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        try:
            row = tuple([
                seen[t] if t in seen else seen.setdefault(t, _scalar_from_token(t))
                for t in tokens
            ])
        except ParseError:
            # the same tokens again, with their columns, to place the error
            for m in re.finditer(r"\S+", line):
                _scalar_from_token(m.group(), ln, m.start() + 1)
            raise
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"row has {len(row)} entries, expected {width}", ln, 1)
        rows.append(row)
    if not rows:
        raise ParseError("no rows found")
    return _mat(tuple(rows))


def print_matrix(A):
    return str(A)


def parse_vector(text):
    """Parse a one-line matrix file as a vector."""
    A = parse_matrix(text)
    if A.rows != 1:
        raise ParseError(f"expected a single row, got {A.rows}")
    return A.row(0)


def print_vector(v):
    return str(v)
