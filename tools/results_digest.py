"""Print the results of the family-taking library calls, of the
permanent-based matrix calls and of the matrix products on seeded
inputs, one line each, and a sha256 over all of them.

Two checkouts that print the same final hash give the same results on
these inputs.  The script imports only the public API, so it runs
unchanged on an older checkout:

    PYTHONPATH=src python tools/results_digest.py | tail -1

Each line is ``<draw> <call>: <repr of the result>``, or
``<draw> <call>: <ErrorClass>: <message>`` when the call raises.  The
family inputs are small (at most 3 members in at most 3 coordinates,
values -2..2, zero 0.15, ghost 0.3).  The matrix draws come after them,
from their own seed, so adding them left the family lines as they were:
square matrices of size 1 to 10, half with tie-heavy values -2..2
(zero 0.15, ghost 0.3) and half tangible with values -20..20 (zero
0.05), some of them with halves and thirds.  The wide draws follow,
from a third seed: `depends_on`, `saturate` and `saturate_by_sup` on
tangible 3x3 families with values -3..5 and targets built on all three
members, and `is_dependent` on four tangible vectors in three
coordinates, whose candidate grids run to thousands of tuples.  The
product draws follow, from a fourth seed: a rectangular ``A @ B`` and
``A.apply(x)`` with sides 1 to 6, and ``dual_base`` and ``reconstruct``
on the closure of a nonsingular square base of size 2 to 6 (entries with
halves, zero 0.15, ghost 0.3 for the products and tangible for the
base).  The span draws follow, from a fifth seed: ``spans`` on a
target built from the members and on a free one, ``is_critical`` of
every member and ``s_base``, on families of 4 to 6 members in 3 or 4
coordinates (values -3..5, zero 0.15, ghost 0.3).  The text draws
follow, from a sixth seed: ``parse_matrix`` and ``parse_vector`` on a
seeded matrix text of 0 to 5 lines (tabs, ``\r\n``, no-break spaces,
the separators ``\x1c``-``\x1f``, comments, blank lines, the zero
spellings, signs, leading zeros, ``p/q``, Unicode digits, an
occasional bad token or ragged row) and ``parse_scalar`` on one token;
each prints the value types of the entries, or the ``ParseError`` with
its line and column.  The walk draws come last, from a seventh seed:
``depends_on``, ``saturate`` and ``saturate_by_sup`` on families of 4
or 5 members in as many coordinates or 5, tangible (values -3..5) or
mixed (values -2..3, zero 0.15, ghost 0.3) and redrawn up to 20 times
until independent, with a target built on every member or drawn
freely, so that grid walks of four and more members with a target are
covered.  Each seed's draws come after all earlier ones, so the lines
of the earlier draws stay as they were.  The whole run takes
under a minute.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction

from supertropical import (
    ZERO,
    DepWitness,
    GramForm,
    Mat,
    ParseError,
    Vec,
    adjoint,
    annihilator_set,
    close_base,
    d_base,
    depends_on,
    dual_base,
    extend_with_tangible,
    ghost,
    gram_dependence,
    gram_of_dot,
    is_almost_tangible,
    is_critical,
    is_dependent,
    is_ghost_monic,
    is_iso,
    is_orthogonal_symmetric,
    is_supertropically_symmetric,
    is_nonsingular,
    is_thick,
    max_rank,
    nabla,
    parse_matrix,
    parse_scalar,
    parse_vector,
    permanent,
    quasi_identity,
    rank,
    reconstruct,
    s_base,
    saturate,
    saturate_by_sup,
    spans,
    sum_saturated,
    sup_witness,
    tangible,
)

SEED = 20261018
DRAWS = 4000
MATRIX_SEED = 20261019
MATRIX_DRAWS = 12  # per size
MATRIX_SIZES = range(1, 11)
WIDE_SEED = 20261020
WIDE_DRAWS = 150
PRODUCT_SEED = 20261021
PRODUCT_DRAWS = 300
SPAN_SEED = 20261022
SPAN_DRAWS = 300
TEXT_SEED = 20261023
TEXT_DRAWS = 400
TEXT_TOKENS = ("0", "3", "-4", "+5", "-0", "007", "4/2", "3/6", "-7/3",
               "\u0663", "-inf", "-Inf", "-INF")
TEXT_BAD = ("3/0", "1_0", "1.5", "v", "1/", "x")
TEXT_GAPS = (" ", "  ", "\t", "\xa0", "\x1f")
TEXT_ENDS = ("\n", "\r\n", "\r", "\x1c", "\x1d", "\x1e")
WALK_SEED = 20261024
WALK_DRAWS = 600


def scalar(rng, tangible_only=False):
    if rng.random() < 0.15:
        return ZERO
    v = Fraction(rng.randint(-2, 2))
    if not tangible_only and rng.random() < 0.3:
        return ghost(v)
    return tangible(v)


def vector(rng, n, tangible_only=False):
    return Vec([scalar(rng, tangible_only) for _ in range(n)])


def family(rng, k, n, tangible_only=False):
    return [vector(rng, n, tangible_only) for _ in range(k)]


def form(rng, n):
    return GramForm(Mat([[scalar(rng) for _ in range(n)] for _ in range(n)]))


def draw(rng, out):
    """Append ``(call, thunk)`` pairs for one seeded draw."""
    k = rng.randint(1, 3)
    n = rng.randint(1, 3)
    tangible_only = rng.random() < 0.4
    S = family(rng, k, n, tangible_only)
    v = vector(rng, n)
    u = vector(rng, n)
    t = vector(rng, n, tangible_only=True)
    S2 = family(rng, rng.randint(1, 3), n)

    out.append(("is_dependent", lambda: is_dependent(S)))
    out.append(("max_rank", lambda: max_rank(S)))
    out.append(("rank", lambda: rank(Mat(S))))
    out.append(("d_base", lambda: d_base(S)))
    out.append(("d_base reversed", lambda: d_base(S, order=range(k)[::-1])))
    out.append(("extend_with_tangible", lambda: extend_with_tangible(S, t)))
    out.append(("is_thick", lambda: is_thick(S, S2)))
    out.append(("annihilator_set", lambda: annihilator_set(Mat(S))))
    out.append(("spans", lambda: spans(S, v)))
    out.append(("s_base", lambda: s_base(S)))
    for i in range(k):
        out.append((f"is_critical {i}", lambda i=i: is_critical(i, S)))
    out.append(("is_almost_tangible", lambda: is_almost_tangible(v, S)))
    out.append(("gram_of_dot", lambda: gram_of_dot(S)))
    F = form(rng, n)
    out.append(("gram_dependence", lambda: gram_dependence(S, F)))
    if k <= 2:
        out.append(("gram_dependence strict",
                    lambda: gram_dependence(S, F, strict=True)))

    witnesses = {}
    for name, target in (("v", v), ("u", u)):
        w = depends_on(target, S)
        out.append((f"depends_on {name}", lambda w=w: w))
        if w is None:
            continue
        out.append((f"is_valid {name}", lambda w=w: w.is_valid(S)))
        out.append((f"saturate {name}",
                    lambda w=w, x=target: saturate(x, S, w)))
        try:
            sat = saturate_by_sup(target, S, w)
        except Exception as exc:  # recorded like any other result
            out.append((f"saturate_by_sup {name}", lambda e=exc: _raise(e)))
            continue
        out.append((f"saturate_by_sup {name}", lambda s=sat: s))
        out.append((f"sup_witness {name}",
                    lambda w=w, s=sat: sup_witness(w, s, S)))
        witnesses[name] = sat
    if len(witnesses) == 2:
        out.append(("sum_saturated",
                    lambda: sum_saturated(witnesses["v"], witnesses["u"], S)))
        out.append(("sum_saturated unchecked",
                    lambda: sum_saturated(witnesses["v"], witnesses["u"])))
    if k == n:
        out.append(("close_base", lambda: close_base(S)))
    if k <= 2 and n <= 2:
        out.append(("is_ghost_monic", lambda: is_ghost_monic(Mat(S), S2[:2])))
        out.append(("is_iso", lambda: is_iso(Mat(S))))
    if k <= 2:
        Fk = form(rng, k)
        rng_seed = rng.randint(0, 10**6)
        out.append(("is_orthogonal_symmetric",
                    lambda: is_orthogonal_symmetric(Fk, budget=3)))
        out.append(("is_supertropically_symmetric",
                    lambda: is_supertropically_symmetric(Fk, budget=3)))
        out.append(("is_supertropically_symmetric seeded",
                    lambda: is_supertropically_symmetric(
                        Fk, budget=3, rng=random.Random(rng_seed))))
    # a hand-built witness of full support for the target v
    coeffs = tuple(scalar(rng, tangible_only=True) for _ in range(k))
    if all(not c.is_zero() for c in coeffs):
        w = DepWitness(coeffs, tuple(range(k)), v)
        out.append(("DepWitness.is_valid", lambda: w.is_valid(S)))


def matrix_draw(rng, n, out):
    """Append ``(call, thunk)`` pairs for one seeded square matrix."""
    tie_heavy = rng.random() < 0.5
    lo, hi, zero_p, ghost_p = (-2, 2, 0.15, 0.3) if tie_heavy else (-20, 20, 0.05, 0)
    denoms = (1, 2, 3) if rng.random() < 0.3 else (1,)
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < zero_p:
                row.append(ZERO)
                continue
            v = Fraction(rng.randint(lo, hi), rng.choice(denoms))
            row.append(ghost(v) if rng.random() < ghost_p else tangible(v))
        grid.append(row)
    A = Mat(grid)
    out.append(("permanent", lambda: permanent(A)))
    out.append(("is_nonsingular", lambda: is_nonsingular(A)))
    out.append(("adjoint", lambda: adjoint(A)))
    out.append(("nabla", lambda: nabla(A)))
    out.append(("quasi_identity", lambda: quasi_identity(A)))
    out.append(("rank", lambda: rank(A)))


def wide_draw(rng, out):
    """Append ``(call, thunk)`` pairs for one seeded draw on wider grids:
    a tangible 3x3 family with values -3..5 and a target built on all
    three members, and four tangible vectors in three coordinates."""
    def wide(k):
        return [Vec([tangible(rng.randint(-3, 5)) for _ in range(3)]) for _ in range(k)]

    S = wide(3)
    c = [tangible(rng.randint(-3, 5)) for _ in range(3)]
    v = Vec([(c[0] * S[0][j] + c[1] * S[1][j] + c[2] * S[2][j]).nu_hat() for j in range(3)])
    w = depends_on(v, S)
    out.append(("depends_on", lambda: w))
    if w is not None:
        out.append(("saturate", lambda: saturate(v, S, w)))
        out.append(("saturate_by_sup", lambda: saturate_by_sup(v, S, w)))
    F = wide(4)
    out.append(("is_dependent 4x3", lambda: is_dependent(F)))


def product_draw(rng, out):
    """Append ``(call, thunk)`` pairs for one seeded draw of the matrix
    products: a rectangular product and application, and the dual base
    and reconstruction of a closed base."""
    def entry(tangible_only=False):
        if rng.random() < 0.15:
            return ZERO
        v = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        if not tangible_only and rng.random() < 0.3:
            return ghost(v)
        return tangible(v)

    def rows(m, n, tangible_only=False):
        return [[entry(tangible_only) for _ in range(n)] for _ in range(m)]

    m, k, l = (rng.randint(1, 6) for _ in range(3))
    A, B = Mat(rows(m, k)), Mat(rows(k, l))
    x = Vec(rows(1, k)[0])
    out.append(("A @ B", lambda: A @ B))
    out.append(("A.apply", lambda: A.apply(x)))
    n = rng.randint(2, 6)
    for _ in range(20):
        S = [Vec(r) for r in rows(n, n, tangible_only=True)]
        if is_nonsingular(Mat(S)):
            break
    closed = close_base(S)[1]
    v = Mat(closed).apply(Vec(rows(1, n, tangible_only=True)[0]))
    y = Vec(rows(1, n)[0])
    out.append(("dual_base", lambda: dual_base(closed)))
    out.append(("reconstruct", lambda: reconstruct(closed, v)))
    out.append(("reconstruct other", lambda: reconstruct(closed, y)))


def span_draw(rng, out):
    """Append ``(call, thunk)`` pairs for one seeded draw of the spanning
    calls on a family of 4 to 6 members in 3 or 4 coordinates."""
    def entry():
        if rng.random() < 0.15:
            return ZERO
        v = rng.randint(-3, 5)
        return ghost(v) if rng.random() < 0.3 else tangible(v)

    k, n = rng.randint(4, 6), rng.randint(3, 4)
    S = [Vec([entry() for _ in range(n)]) for _ in range(k)]
    built = Vec([ZERO] * n)
    for w in S:
        if rng.random() < 0.7:
            built = built + tangible(rng.randint(-2, 2)) * w
    free = Vec([entry() for _ in range(n)])
    out.append(("spans built", lambda: spans(S, built)))
    out.append(("spans free", lambda: spans(S, free)))
    for i in range(k):
        out.append((f"is_critical {i}", lambda i=i: is_critical(i, S)))
    out.append(("s_base", lambda: s_base(S)))


def text_draw(rng, out):
    """Append ``(call, thunk)`` pairs for one seeded text: a matrix text
    read as a matrix and as a vector, and one token read as a scalar."""
    def token(bad_p):
        pool = TEXT_BAD if rng.random() < bad_p else TEXT_TOKENS
        return rng.choice(pool) + ("v" if rng.random() < 0.3 else "")

    def row(n, bad_p):
        gaps = [rng.choice(TEXT_GAPS) for _ in range(n)]
        lead = rng.choice(("", "", " ", "\t"))
        return lead + "".join(
            (gaps[i] if i else "") + token(bad_p) for i in range(n))

    bad_p = rng.choice((0, 0, 0.05))
    width = rng.randint(1, 4)
    lines = []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("", " ", "\t")))
        elif r < 0.2:
            lines.append(rng.choice(("", "  ")) + "# " + token(0))
        else:
            n = width if rng.random() < 0.9 else rng.randint(1, 5)
            lines.append(row(n, bad_p))
    text = "".join(line + rng.choice(TEXT_ENDS) for line in lines)
    tok = token(0.3)
    out.append(("parse_matrix", lambda: parsed(parse_matrix, text)))
    out.append(("parse_vector", lambda: parsed(parse_vector, text)))
    out.append(("parse_scalar", lambda: parsed(parse_scalar, tok)))


def walk_draw(rng, out):
    """Append ``(call, thunk)`` pairs for one seeded draw of the longer
    grid walks: a family of 4 or 5 members, tangible or mixed and
    independent when 20 tries give one, and a target built on every
    member or drawn freely."""
    mixed = rng.random() < 0.5

    def entry():
        if not mixed:
            return tangible(rng.randint(-3, 5))
        if rng.random() < 0.15:
            return ZERO
        v = rng.randint(-2, 3)
        return ghost(v) if rng.random() < 0.3 else tangible(v)

    k = rng.choice((4, 5))
    n = rng.randint(k, 5)
    for _ in range(20):  # an independent family, when one comes up
        S = [Vec([entry() for _ in range(n)]) for _ in range(k)]
        if max_rank(S) == k:
            break
    if rng.random() < 0.5:
        v = Vec([ZERO] * n)
        for w in S:
            v = v + tangible(rng.randint(-2, 2)) * w
        v = v.nu_hat()
    else:
        v = Vec([entry() for _ in range(n)])
    w = depends_on(v, S)
    out.append(("depends_on", lambda: w))
    if w is not None:
        out.append(("saturate", lambda: saturate(v, S, w)))
        out.append(("saturate_by_sup", lambda: saturate_by_sup(v, S, w)))


def parsed(parse, text):
    """The text, then what ``parse`` made of it: the result and the value
    type of each entry (``i`` int, ``F`` Fraction, ``z`` zero), or the
    ``ParseError`` with its line and column."""
    try:
        x = parse(text)
    except ParseError as exc:
        return f"{text!r} -> ParseError line={exc.line} column={exc.column}: {exc}"
    if isinstance(x, Mat):
        rows = x.row_tuples
    else:
        rows = [x.entries] if isinstance(x, Vec) else [[x]]
    types = "/".join(
        "".join("z" if e.value is None else "i" if type(e.value) is int else "F"
                for e in r)
        for r in rows)
    return f"{text!r} -> {x!r} {types}"


def _raise(exc):
    raise exc


def line(label, thunk):
    try:
        result = thunk()
    except Exception as exc:
        return f"{label}: {type(exc).__name__}: {exc}"
    return f"{label}: {result!r}"


def draws():
    """``(label, fill)`` for every draw, where ``fill(out)`` appends its
    calls; the matrix, wide, product, span, text and walk draws each use
    their own generator."""
    rng = random.Random(SEED)
    for d in range(DRAWS):
        yield str(d), lambda out: draw(rng, out)
    mrng = random.Random(MATRIX_SEED)
    for n in MATRIX_SIZES:
        for d in range(MATRIX_DRAWS):
            yield f"m{n}.{d}", lambda out, n=n: matrix_draw(mrng, n, out)
    wrng = random.Random(WIDE_SEED)
    for d in range(WIDE_DRAWS):
        yield f"w{d}", lambda out: wide_draw(wrng, out)
    prng = random.Random(PRODUCT_SEED)
    for d in range(PRODUCT_DRAWS):
        yield f"p{d}", lambda out: product_draw(prng, out)
    srng = random.Random(SPAN_SEED)
    for d in range(SPAN_DRAWS):
        yield f"s{d}", lambda out: span_draw(srng, out)
    trng = random.Random(TEXT_SEED)
    for d in range(TEXT_DRAWS):
        yield f"t{d}", lambda out: text_draw(trng, out)
    grng = random.Random(WALK_SEED)
    for d in range(WALK_DRAWS):
        yield f"g{d}", lambda out: walk_draw(grng, out)


def main():
    digest = hashlib.sha256()
    count = 0
    for label, fill in draws():
        calls = []
        try:
            fill(calls)
        except Exception as exc:
            calls.append(("draw", lambda e=exc: _raise(e)))
        for call, thunk in calls:
            text = line(f"{label} {call}", thunk)
            print(text)
            digest.update(text.encode() + b"\n")
            count += 1
    print(f"sha256 {digest.hexdigest()} over {count} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
