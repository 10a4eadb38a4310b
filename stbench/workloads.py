"""Seeded instance lists, the timed operations on them, and their checks.

Every workload is built the same way.  Instances are drawn from the seed
as reference pairs (see ``reference.py``), written out as matrix text and
parsed back through ``supertropical.textio``; the parsed objects are the
inputs of the timed operations.  A round is a fixed list of operations per
class, so every run attempts the same number of each, whatever the seed.

An operation is a closure over library modules, which are looked up when
the closure runs, so that the tracer's wrappers are seen.  Each has a
check that returns ``None`` when the output is right and a short reason
otherwise.  The checks use the reference evaluator, ``oracles.py`` where
its size limits allow, and properties stated by the paper and the
docstrings; none compares against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import reference as ref

G = True
T = False

# The six-value grid of criterion 15: zero, tangibles 0..2, ghosts 0..1.
GRID6 = (None, (0, T), (1, T), (2, T), (0, G), (1, G))

# Fault 1: depends_on on five tangible vectors in five coordinates has no
# budget; for this fixed input the full-support grid has 1.6e9 tuples and
# the call does not finish in 60 s.
FAULT1_FAMILY = (
    "2 -3 4 0 1\n"
    "-1 5 2 3 -2\n"
    "3 0 -2 5 4\n"
    "0 2 1 -3 5\n"
    "4 1 5 2 -1"
)
FAULT1_TARGET = "1 3 -2 4 0"
FAULT1_DEADLINE_S = 0.25

# Fault 2: s_base drops both ghost members, so nothing spans the family.
FAULT2_FAMILY = "3v 5v\n1v 1v"


class Op:
    """One timed call.  ``fault`` names a kept fault: its failure is
    expected and leaves the run correct.  ``deadline`` (seconds) stops the
    call from outside the library."""

    __slots__ = ("cls", "run", "check", "fault", "deadline", "size")

    def __init__(self, cls, run, check, fault=None, deadline=None, size=None):
        self.cls = cls
        self.run = run
        self.check = check
        self.fault = fault
        self.deadline = deadline
        self.size = size


# -- plain values and text ---------------------------------------------


def fmt(x):
    if x is None:
        return "-inf"
    return f"{x[0]}v" if x[1] else str(x[0])


def text_of(rows):
    return "\n".join(" ".join(fmt(x) for x in r) for r in rows)


def token_pair(tok):
    if tok.endswith("v"):
        tok, ghost = tok[:-1], True
    else:
        ghost = False
    if tok == "-inf":
        return None
    q = Fraction(tok)
    return (q.numerator if q.denominator == 1 else q, ghost)


def json_pair(obj):
    if obj["v"] == "-inf":
        return None
    q = Fraction(obj["v"])
    return (q.numerator if q.denominator == 1 else q, obj["ghost"])


def spair(s):
    """A library Scalar as a reference pair."""
    return None if s.is_zero() else (s.value, s.is_ghost())


def vpair(v):
    return tuple(spair(x) for x in v)


def mpair(A):
    return tuple(tuple(spair(x) for x in r) for r in A.row_tuples)


def entry(rng, lo, hi, zero_p, ghost_p):
    if rng.random() < zero_p:
        return None
    return (rng.randint(lo, hi), rng.random() < ghost_p)


def rand_rows(rng, m, n, lo=-3, hi=5, zero_p=0.15, ghost_p=0.3):
    return tuple(
        tuple(entry(rng, lo, hi, zero_p, ghost_p) for _ in range(n))
        for _ in range(m)
    )


def grid_rows(rng, m, n, grid=GRID6):
    return tuple(tuple(rng.choice(grid) for _ in range(n)) for _ in range(m))


def nonzero_rows(rng, m, n, **kw):
    while True:
        rows = rand_rows(rng, m, n, **kw)
        if all(any(x is not None for x in r) for r in rows):
            return rows


def nonsingular(rng, n, **kw):
    while True:
        rows = rand_rows(rng, n, n, **kw)
        if ref.is_tangible(ref.permanent(rows)):
            return rows


def is_all_ghost(row):
    return all(ref.is_ghost0(x) for x in row) and any(x is not None for x in row)


def family_2g(rng, k, n):
    """2..6-style family with at most one nonzero all-ghost member.  Two or
    more of them are the class where s_base fails (fault 2); that fault is
    measured on its fixed repro instead, so its share stays the same."""
    while True:
        rows = rand_rows(rng, k, n)
        if sum(is_all_ghost(r) for r in rows) <= 1:
            return rows


class Codec:
    """Writes reference instances as text and parses them back through
    textio.  A mismatch is recorded and makes the run incorrect."""

    def __init__(self, lib):
        self.lib = lib
        self.errors = []

    def mat(self, rows):
        A = self.lib.textio.parse_matrix(text_of(rows))
        if mpair(A) != tuple(rows):
            self.errors.append(f"textio round trip changed {rows!r}")
        return A

    def rows(self, rows):
        return self.mat(rows).row_list()

    def vec(self, v):
        return self.mat((v,)).row(0)


# -- checks shared by several workloads --------------------------------


def dep_witness_problem(coeffs, support, family, target=None):
    """Reference check of a dependence witness given as pairs."""
    if not support:
        return "empty support"
    for i, c in enumerate(coeffs):
        if (i in support) != ref.is_tangible(c):
            return f"coefficient {i} is {c!r} with support {support}"
        if i not in support and c is not None:
            return f"coefficient {i} off the support is nonzero"
    if not ref.ghost_combination(coeffs, family, target):
        return "combination is not ghost"
    return None


def dep_result_problem(w, family, target, lib, normalized):
    """Check an is_dependent/depends_on result against the reference and,
    within its limits, the oracle."""
    small = len(family) <= 4 and len(family[0]) <= 4
    if w is None:
        if target is None:
            if not ref.independent(family):
                return "None for a dependent family"
        if small:
            S = [lib.matrices.Vec(r) for r in _scalars(lib, family)]
            t = None if target is None else lib.matrices.Vec(_scalars(lib, [target])[0])
            if lib.oracles.brute_dependence(S, t) is not None:
                return "None but the oracle finds a witness"
        return None
    coeffs = tuple(spair(c) for c in w.coeffs)
    bad = dep_witness_problem(coeffs, w.support, family, target)
    if bad:
        return bad
    if normalized and coeffs[w.support[0]] != ref.ONE:
        return "witness is not normalized to the unit"
    if target is None and ref.independent(family):
        return "witness for an independent family"
    return None


def _scalars(lib, rows):
    S = lib.scalars.Scalar
    return [
        [S() if x is None else S(x[0], x[1]) for x in r] for r in rows
    ]


def span_witness_problem(coeffs, support, ghost_part, family, v):
    if not support:
        return "empty support"
    for i, c in enumerate(coeffs):
        if (i in support) != ref.is_tangible(c):
            return f"span coefficient {i} is {c!r}"
    if not all(ref.is_ghost0(x) for x in ghost_part):
        return "ghost part has a tangible entry"
    comb = ref.combination(coeffs, family)
    if ref.vec_add(comb, ghost_part) != tuple(v):
        return "combination plus ghost part is not the target"
    return None


def spanned_by(lib, kept_rows, v):
    """Whether v is spanned by the rows, with the library's witness
    re-checked by the reference."""
    if not kept_rows:
        return False
    S = [lib.matrices.Vec(r) for r in _scalars(lib, kept_rows)]
    w = lib.span.spans(S, lib.matrices.Vec(_scalars(lib, [v])[0]))
    if w is None:
        return False
    coeffs = tuple(spair(c) for c in w.coeffs)
    return span_witness_problem(coeffs, w.support, vpair(w.ghost_part), kept_rows, v) is None


def sbase_problem(lib, family, indices, normalized):
    kept = [family[i] for i in indices]
    for v in family:
        if any(x is not None for x in v) and not spanned_by(lib, kept, v):
            return f"member {fmt_row(v)} is not spanned by the kept members {list(indices)}"
    for i, nv in zip(indices, normalized):
        nv = vpair(nv)
        if ref.ratio(nv, family[i]) is None or next(x for x in nv if x is not None)[0] != 0:
            return f"normalized member {i} is not a unit-led multiple"
    return None


def fmt_row(v):
    return " ".join(fmt(x) for x in v)


def normalized_set(rep):
    return {vpair(v) for v in rep.normalized}


def critical_problem(lib, family, i, flag):
    if flag:
        return None
    v = family[i]
    if all(x is None for x in v):
        return None
    others = [w for w in family if ref.ratio(w, v) is None]
    if not spanned_by(lib, others, v):
        return f"member {i} is not critical but nothing outside its class spans it"
    return None


def dual_problem(A, covectors):
    """Rows of nabla(A) A nabla(A); unit on the own column, ghost or zero
    on the others."""
    nb = ref.nabla(A)
    want = ref.matmul(ref.matmul(nb, A), nb)
    if tuple(covectors) != want:
        return "dual covectors differ from nabla(A) A nabla(A)"
    cols = ref.transpose(A)
    for i, e in enumerate(covectors):
        for j, c in enumerate(cols):
            val = ref.dot(e, c)
            if i == j and val != ref.ONE:
                return f"functional {i} gives {val!r} on its own vector"
            if i != j and not ref.is_ghost0(val):
                return f"functional {i} is tangible on vector {j}"
    return None


def closure(A):
    return ref.matmul(ref.matmul(A, ref.nabla(A)), A)


def normalize_row(v):
    lead = next(x for x in v if x is not None)
    return ref.scale((-lead[0], False), v)


def dbase_problem(family, indices):
    kept = []
    for i, v in enumerate(family):
        if i in indices:
            kept.append(v)
            if not ref.independent(kept):
                return f"kept member {i} makes the base dependent"
        elif ref.independent(kept + [v]):
            return f"member {i} was dropped but is independent of the kept ones"
    return None


def sym_rows(W):
    return tuple(tuple(ref.dot(v, w) for w in W) for v in W)


# -- small_batch -------------------------------------------------------

# Matrix sizes by weight per hundred: mostly at most 3, as in criterion 15.
_SMALL_SIZES = sum(([n] * w for n, w in ((1, 20), (2, 30), (3, 35), (4, 8), (5, 4), (6, 2), (7, 1))), [])


def small_batch(lib, rng, round_no):
    codec = Codec(lib)
    mx, dep = lib.matrices, lib.dependence
    ops = []
    for _ in range(3000):
        n = rng.choice(_SMALL_SIZES)
        rows = grid_rows(rng, n, n)
        scalar_rows = [list(r) for r in codec.mat(rows).row_tuples]

        def run(scalar_rows=scalar_rows):
            return mx.permanent(mx.Mat(scalar_rows))

        def check(p, rows=rows, scalar_rows=scalar_rows):
            want = ref.permanent(rows)
            if spair(p) != want:
                return f"permanent {p} of {text_of(rows)!r}, reference {want!r}"
            if lib.oracles.brute_permanent(mx.Mat(scalar_rows)) != p:
                return "permanent differs from the oracle"
            return None

        ops.append(Op("permanent", run, check))
    for _ in range(1000):
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = grid_rows(rng, k, n)
        scalar_rows = [list(r) for r in codec.mat(rows).row_tuples]

        def run(scalar_rows=scalar_rows):
            return dep.is_dependent([mx.Vec(r) for r in scalar_rows])

        def check(w, rows=rows):
            return dep_result_problem(w, rows, None, lib, normalized=True)

        ops.append(Op("is_dependent", run, check))
    return ops, codec.errors


# -- dense -------------------------------------------------------------


def dense(lib, rng, round_no):
    codec = Codec(lib)
    mx, dep, du, bl = lib.matrices, lib.dependence, lib.dual, lib.bilinear
    ops = []
    for n in (9, 9, 10, 10, 10, 11, 11, 12, 12, 13):
        rows = rand_rows(rng, n, n)
        A = codec.mat(rows)

        def check(p, rows=rows):
            want = ref.permanent(rows)
            return None if spair(p) == want else f"permanent {p}, reference {want!r}"

        ops.append(Op("permanent", lambda A=A: mx.permanent(A), check))
    for n in (6, 6, 7, 7, 8):
        rows = nonsingular(rng, n, ghost_p=0.2)
        A = codec.mat(rows)
        known = {}

        def adj_per(rows=rows, known=known):
            if not known:
                known["adj"], known["per"] = ref.adjoint(rows), ref.permanent(rows)
            return known["adj"], known["per"]

        def check_adj(out, rows=rows, adj_per=adj_per):
            adj, p = adj_per()
            got = mpair(out)
            if got != adj:
                return "adjoint differs from the reference minors"
            diag = [ref.dot(rows[i], [r[i] for r in got]) for i in range(len(rows))]
            if any(d != p for d in diag):
                return "diagonal of A adj(A) is not the permanent"
            return None

        def check_nabla(out, adj_per=adj_per):
            adj, p = adj_per()
            want = tuple(tuple(ref.div(x, p) for x in r) for r in adj)
            return None if mpair(out) == want else "nabla is not adj(A) / per(A)"

        def check_qid(out, rows=rows, adj_per=adj_per):
            adj, p = adj_per()
            nb = tuple(tuple(ref.div(x, p) for x in r) for r in adj)
            want = (ref.matmul(rows, nb), ref.matmul(nb, rows))
            for side, (got, w) in enumerate(zip(out, want)):
                Q = mpair(got)
                if Q != w:
                    return f"quasi-identity {side} differs from the reference product"
                if ref.matmul(Q, Q) != Q:
                    return f"quasi-identity {side} is not idempotent"
                if not ref.is_tangible(ref.permanent(Q)):
                    return f"quasi-identity {side} is singular"
                for i, r in enumerate(Q):
                    for j, x in enumerate(r):
                        if not ref.surpasses(x, ref.ONE if i == j else None):
                            return f"quasi-identity {side} does not surpass the identity"
            return None

        ops.append(Op("adjoint", lambda A=A: mx.adjoint(A), check_adj))
        ops.append(Op("nabla", lambda A=A: mx.nabla(A), check_nabla))
        ops.append(Op("quasi_identity", lambda A=A: mx.quasi_identity(A), check_qid))
    for m, n in ((4, 6), (5, 5), (6, 4), (5, 6), (6, 5)):
        rows = rand_rows(rng, m, n, ghost_p=0.4, zero_p=0.25)
        A = codec.mat(rows)

        def check(r, rows=rows):
            want = ref.rank(rows)
            return None if r == want else f"rank {r}, reference {want}"

        ops.append(Op("rank", lambda A=A: dep.rank(A), check))
    for k, n in ((6, 4), (7, 5), (5, 5)):
        rows = nonzero_rows(rng, k, n, ghost_p=0.4)
        S = codec.rows(rows)

        def check(rep, rows=rows):
            bad = dbase_problem(rows, rep.indices)
            if bad:
                return bad
            want = tuple(normalize_row(rows[i]) for i in rep.indices)
            if tuple(vpair(v) for v in rep.normalized) != want:
                return "d-base normalized members differ"
            return None

        ops.append(Op("d_base", lambda S=S: dep.d_base(S), check))
    for n in (4, 5, 5, 6):
        rows = nonsingular(rng, n, ghost_p=0.15, zero_p=0.1)
        closed = closure(rows)
        B = codec.rows(rows)
        CB = codec.rows(closed)
        x = tuple((rng.randint(-3, 5), T) for _ in range(n))
        v = ref.apply(closed, x)
        vv = codec.vec(v)

        def check_close(out, closed=closed):
            A_B, members = out
            if mpair(A_B) != closed:
                return "closed base differs from I_A A"
            if tuple(vpair(r) for r in members) != closed:
                return "closed rows differ from the closed matrix"
            return None

        def check_dual(eps, closed=closed):
            return dual_problem(closed, [vpair(e.covector) for e in eps])

        def check_rec(out, v=v, closed=closed):
            if vpair(out) != v:
                return "reconstruction is not the input vector"
            I_A = ref.matmul(closed, ref.nabla(closed))
            if ref.apply(I_A, v) != v:
                return "input was not a fixed point of the quasi-identity"
            return None

        ops.append(Op("close_base", lambda B=B: du.close_base(B), check_close))
        ops.append(Op("dual_base", lambda CB=CB: du.dual_base(CB), check_dual))
        ops.append(Op("reconstruct", lambda CB=CB, vv=vv: du.reconstruct(CB, vv), check_rec))
    for k, n in ((2, 2), (2, 3), (3, 3), (3, 4)):
        rows = rand_rows(rng, k, n)
        W = codec.rows(rows)
        D = codec.mat(tuple(tuple(ref.ONE if i == j else None for j in range(n)) for i in range(n)))

        def check_gram(F, rows=rows):
            return None if mpair(F.G) == sym_rows(rows) else "Gram entries differ from the dot products"

        def run_dep(W=W, D=D):
            try:
                return bl.gram_dependence(W, bl.GramForm(D))
            except lib.exceptions.DegenerateSpaceError as exc:
                return exc

        def check_gdep(out, rows=rows):
            tangible_gram = ref.is_tangible(ref.permanent(sym_rows(rows)))
            if isinstance(out, Exception):
                if tangible_gram or not ref.independent(rows):
                    return "degenerate-span verdict where it cannot apply"
                return None
            if out is None:
                return None if tangible_gram else "None with a ghost Gram permanent"
            if tangible_gram:
                return "witness with a tangible Gram permanent"
            return dep_result_problem(out, rows, None, lib, normalized=True)

        ops.append(Op("gram_of_dot", lambda W=W: bl.gram_of_dot(W), check_gram))
        ops.append(Op("gram_dependence", run_dep, check_gdep))
    return ops, codec.errors


# -- witness -----------------------------------------------------------


def chain_grid(rows, target, support):
    """Size of each member's candidate set for one support: the unit and
    the target gaps, closed under member difference chains of length up to
    len(support) - 1 (the grid described in dependence.py)."""
    cand = {i: {0} for i in support}
    front = {i: {0} for i in support}
    if target is not None:
        for i in support:
            gaps = {t[0] - x[0] for t, x in zip(target, rows[i]) if t is not None and x is not None}
            front[i] |= gaps - cand[i]
            cand[i] |= gaps
    deltas = {}
    for a in support:
        for b in support:
            if a != b:
                ds = {x[0] - y[0] for x, y in zip(rows[a], rows[b]) if x is not None and y is not None}
                if ds:
                    deltas[(a, b)] = ds
    for _ in range(len(support) - 1):
        new = {i: set() for i in support}
        for (a, b), ds in deltas.items():
            fresh = {x + d for x in front[a] for d in ds} - cand[b]
            new[b] |= fresh
            cand[b] |= fresh
        if not any(new.values()):
            break
        front = new
    out = 1
    for i in support:
        out *= len(cand[i])
    return out


def tangible_family(rng, n, lo, hi, spanned_by=None, band=None):
    """An independent family of n tangible vectors and a tangible target,
    with the support the target was built on.

    With ``spanned_by=m`` the target is the tangible lift of a combination
    of m members, each of which is the unique largest term somewhere, so a
    witness exists on a support of at most m and in practice needs all m.
    With ``band=(lo, hi)`` the draw is repeated until the candidate grid of
    that support has between lo and hi tuples, which fixes the cost of
    walking it to within a factor of two."""
    while True:
        rows = tuple(tuple((rng.randint(lo, hi), T) for _ in range(n)) for _ in range(n))
        if not ref.independent(rows):
            continue
        if spanned_by is None:
            return rows, tuple((rng.randint(lo, hi), T) for _ in range(n)), tuple(range(n))
        picked = tuple(sorted(rng.sample(range(n), spanned_by)))
        cs = {i: rng.randint(lo, hi) for i in picked}
        if not all(
            any(all(cs[i] + rows[i][j][0] > cs[o] + rows[o][j][0] for o in picked if o != i)
                for j in range(n))
            for i in picked
        ):
            continue
        coeffs = [(cs[i], T) if i in cs else None for i in range(n)]
        v = tuple(ref.lift(x) for x in ref.combination(coeffs, rows))
        if band is None or band[0] <= chain_grid(rows, v, picked) <= band[1]:
            return rows, v, picked


def sym_grid(G):
    """Number of candidate coordinate values of a symmetry scan: entry
    values and entry differences, plus a sentinel (see bilinear.py).  A
    consistent form of size n is scanned over all pairs of
    ``sym_grid(G) ** (n - 1)`` arguments."""
    es = [x[0] for r in G for x in r if x is not None]
    return len(set(es) | {a - b for a in es for b in es}) + 1


def built_target(rng, rows):
    """A combination of some members plus a ghost surplus, and whether it
    is spanned (it is unless the combination is zero)."""
    coeffs = tuple((rng.randint(-2, 2), T) if rng.random() < 0.6 else None for _ in rows)
    if all(c is None for c in coeffs):
        coeffs = ((0, T),) + coeffs[1:]
    comb = ref.combination(coeffs, rows)
    extra = tuple((rng.randint(-3, 5), G) if rng.random() < 0.3 else None for _ in rows[0])
    return ref.vec_add(comb, extra), any(x is not None for x in comb)


def witness(lib, rng, round_no):
    codec = Codec(lib)
    mx, dep, sp, bl = lib.matrices, lib.dependence, lib.span, lib.bilinear
    ops = []
    # Targets are built on three members and the grid of that support is
    # held in a band: with free targets an n=k=4 instance needs the full
    # support about one time in five and then takes 1-4 s (depends_on) and
    # 2-7 s (saturate_by_sup), and n=k=3 costs vary tenfold, which no run
    # of this length averages out.
    cases = [(3, -3, 5, (10000, 20000))] * 12 + [(4, -2, 2, (3000, 7000))] * 4
    for case_no, (n, lo, hi, band) in enumerate(cases):
        rows, v, support = tangible_family(rng, n, lo, hi, 3, band)
        grid = chain_grid(rows, v, support)
        S = codec.rows(rows)
        vv = codec.vec(v)
        cell = {}

        def run_dep(S=S, vv=vv, cell=cell):
            cell["w"] = dep.depends_on(vv, S)
            return cell["w"]

        def check_dep(w, rows=rows, v=v):
            if w is None:
                return "no witness for a target over a nonsingular family"
            return dep_result_problem(w, rows, v, lib, normalized=False)

        def run_sat(S=S, vv=vv, cell=cell):
            return dep.saturate(vv, S, cell["w"])

        def run_sup(S=S, vv=vv, cell=cell):
            return dep.saturate_by_sup(vv, S, cell["w"])

        # The oracle re-walks the grid (0.5-1 s for a full n=3 support), so
        # it sees the first chain of a round and every support of at most two.
        def check_sat(out, S=S, rows=rows, v=v, cell=cell, name="saturate", oracle=case_no == 0):
            w0 = cell["w"]
            cell[name] = out
            coeffs = tuple(spair(c) for c in out.coeffs)
            bad = dep_witness_problem(coeffs, out.support, rows, v)
            if bad:
                return bad
            if out.support != w0.support:
                return "saturation changed the support"
            for c, c0 in zip(coeffs, w0.coeffs):
                if c is not None and c[0] < c0.value:
                    return "saturated coefficient below the input witness"
            other = cell.get("saturate" if name == "saturate_by_sup" else "saturate_by_sup")
            if other is not None:
                if other.coeffs != out.coeffs:
                    return "saturate and saturate_by_sup disagree"
                if (oracle or len(out.support) <= 2) and not lib.oracles.check_saturated(out, S, out.target):
                    return "oracle finds a larger same-support witness"
            return None

        def check_sup(out, c=check_sat):
            return c(out, name="saturate_by_sup")

        ops.append(Op("depends_on", run_dep, check_dep, size=grid))
        ops.append(Op("saturate", run_sat, check_sat, size=grid))
        ops.append(Op("saturate_by_sup", run_sup, check_sup, size=grid))
    # More vectors than coordinates are always dependent, so the grid is
    # walked; with values -3..5 four vectors in three coordinates take up
    # to 0.9 s, so the walked families use narrower values.
    # The small families also keep the run's median latency inside the
    # tight cluster of n=3 saturations rather than at its edge.
    for n, k, lo, hi, ghost_p in ((2, 3, -3, 5, 0.2),) * 5 + (
            (3, 4, -1, 1, 0.2), (3, 4, -1, 1, 0.2), (3, 4, -1, 1, 0.0),
            (3, 3, -3, 5, 0.0), (3, 3, -3, 5, 0.0)) + ((2, 2, -3, 5, 0.0),) * 4:
        if k > n:
            rows = rand_rows(rng, k, n, lo=lo, hi=hi, ghost_p=ghost_p, zero_p=0.1)
        else:
            rows = tangible_family(rng, n, lo, hi)[0]
        S = codec.rows(rows)

        def check(w, rows=rows):
            if len(rows) > len(rows[0]) and w is None:
                return "None for more vectors than coordinates"
            return dep_result_problem(w, rows, None, lib, normalized=True)

        grid = chain_grid(rows, None, tuple(range(k)))
        ops.append(Op("is_dependent", lambda S=S: dep.is_dependent(S), check, size=grid))
    # Values -1..1 at three rows: with -3..5 a 3x4 matrix takes 1.5 s at
    # the 90th percentile, a tail no run of this length averages out.
    for m, n, lo, hi in ((2, 3, -3, 5), (2, 5, -3, 5), (3, 4, -1, 1), (3, 5, -1, 1)):
        rows = rand_rows(rng, m, n, lo=lo, hi=hi, ghost_p=0.0, zero_p=0.1)
        A = codec.mat(rows)

        def check_ann(us, rows=rows):
            cols = ref.transpose(rows)
            base = []
            for c in cols:
                if ref.independent(base + [c]):
                    base.append(c)
            if len(us) != len(cols) - len(base):
                return f"{len(us)} annihilators for {len(cols) - len(base)} dependent columns"
            for u in us:
                u = vpair(u)
                if any(x is not None and x[1] for x in u):
                    return "annihilator has a ghost entry"
                if not all(ref.is_ghost0(x) for x in ref.apply(rows, u)):
                    return "A u is not ghost"
            if us and not ref.independent([vpair(u) for u in us]):
                return "annihilators are dependent"
            return None

        ops.append(Op("annihilator_set", lambda A=A: dep.annihilator_set(A), check_ann))
    for k, n in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (6, 4)):
        rows = family_2g(rng, k, n)
        S = codec.rows(rows)
        targets = [built_target(rng, rows) for _ in range(2)]
        targets.append((tuple(entry(rng, -3, 5, 0.15, 0.3) for _ in range(n)), False))
        shuffle = list(range(k))
        rng.shuffle(shuffle)
        shifts = [rng.randint(-3, 3) for _ in range(k)]
        moved = tuple(ref.scale((shifts[i], T), rows[shuffle[i]]) for i in range(k))
        S_moved = codec.rows(moved)
        # over five or six members spans can walk every support (up to
        # 1.2 s for a free target), so only the smaller families get targets
        for target, must in targets if k <= 4 else ():
            tv = codec.vec(target)

            def check_span(w, rows=rows, target=target, must=must):
                if w is None:
                    if must:
                        return "no span witness for a constructed combination"
                    # zero members are not generators (spans skips them)
                    for r in (r for r in rows if any(x is not None for x in r)):
                        cands = {t[0] - x[0] for t, x in zip(target, r) if t is not None and x is not None}
                        for c in cands | {min(cands, default=0) - 1}:
                            if all(ref.surpasses(a, b) for a, b in zip(target, ref.scale((c, T), r))):
                                return "None but a single member spans the target"
                    return None
                coeffs = tuple(spair(c) for c in w.coeffs)
                return span_witness_problem(coeffs, w.support, vpair(w.ghost_part), rows, target)

            ops.append(Op("spans", lambda S=S, tv=tv: sp.spans(S, tv), check_span))

        def check_sbase(rep, rows=rows, S_moved=S_moved):
            bad = sbase_problem(lib, rows, rep.indices, rep.normalized)
            if bad:
                return bad
            if normalized_set(sp.s_base(S_moved)) != normalized_set(rep):
                return "s-base changed under shuffling and tangible scaling"
            return None

        ops.append(Op("s_base", lambda S=S: sp.s_base(S), check_sbase))
        for i in rng.sample(range(k), min(k, 3)):
            ops.append(Op(
                "is_critical",
                lambda S=S, i=i: sp.is_critical(i, S),
                lambda flag, rows=rows, i=i: critical_problem(lib, rows, i, flag),
            ))
    # The scan cost grows with the (n-1)-th power of the value grid, so the
    # grid size is fixed: 14 values at size 3 (about 0.1 s), 6 at size 4
    # (about 0.15 s; 8 to 10 values take 1-3 s).
    for size, lo, hi, values in ((3, -3, 5, 14), (3, -3, 5, 14), (4, -1, 1, 6)):
        while True:
            W = tuple(tuple((rng.randint(lo, hi), T) for _ in range(size)) for _ in range(size))
            if sym_grid(sym_rows(W)) == values:
                break
        F = bl.GramForm(codec.mat(sym_rows(W)))

        def check_sym(verdict):
            if not verdict.consistent or not verdict.grid_complete:
                return "a symmetric Gram form was reported asymmetric"
            return None

        ops.append(Op("is_orthogonal_symmetric", lambda F=F: bl.is_orthogonal_symmetric(F), check_sym))
        ops.append(Op("is_supertropically_symmetric", lambda F=F: bl.is_supertropically_symmetric(F), check_sym))
    # the two kept faults
    S5 = lib.textio.parse_matrix(FAULT1_FAMILY).row_list()
    v5 = lib.textio.parse_vector(FAULT1_TARGET)
    f1 = Op(
        "fault_depends_on_5x5",
        lambda: dep.depends_on(v5, S5),
        lambda w: dep_result_problem(w, mpair(mx.Mat(S5)), vpair(v5), lib, normalized=False),
        fault="depends_on on 5 vectors in 5 coordinates has no budget",
        deadline=FAULT1_DEADLINE_S,
    )
    ops.append(f1)
    S2 = lib.textio.parse_matrix(FAULT2_FAMILY).row_list()
    rows2 = mpair(mx.Mat(S2))
    ops.append(Op(
        "fault_s_base_ghosts",
        lambda: sp.s_base(S2),
        lambda rep: sbase_problem(lib, rows2, rep.indices, rep.normalized),
        fault="s_base drops both ghost members of a two-member family",
    ))
    return ops, codec.errors


# -- cli ---------------------------------------------------------------


def _cli_scalar(out, as_json):
    if as_json:
        return json_pair(json.loads(out)["value"])
    return token_pair(out.strip())


def _cli_matrix(out, as_json):
    if as_json:
        return tuple(tuple(json_pair(x) for x in r) for r in json.loads(out)["value"])
    return tuple(tuple(token_pair(t) for t in line.split()) for line in out.strip().splitlines())


def _cli_witness(out, as_json, k):
    """(coeffs as pairs, support, ghost part or None), or None for 'none'."""
    if as_json:
        doc = json.loads(out)
        if doc["kind"] == "none":
            return None
        w = doc["witness"]
        support = tuple(w["support"])
        vals = [json_pair(c) for c in w["coeffs"]]
        ghost = tuple(json_pair(x) for x in w["ghost"]) if "ghost" in w else None
    else:
        lines = out.strip().splitlines()
        if lines == ["none"]:
            return None
        fields = dict(line.split(": ", 1) for line in lines)
        support = tuple(int(t) for t in fields["support"].split())
        vals = [token_pair(t) for t in fields["coeffs"].split()]
        ghost = tuple(token_pair(t) for t in fields["ghost"].split()) if "ghost" in fields else None
    coeffs = [None] * k
    for i, c in zip(support, vals):
        coeffs[i] = c
    return tuple(coeffs), support, ghost


def _cli_indices(out, as_json):
    if as_json:
        doc = json.loads(out)["value"]
        return tuple(doc["indices"] if isinstance(doc, dict) else doc)
    line = out.strip().splitlines()[0]
    return tuple(int(t) for t in line.split(":", 1)[1].split())


def cli(lib, rng, round_no, workdir, fixtures):
    """Fixture files for one round, and one ``main(argv)`` call per
    (command, fixture); every other call of a command adds ``--json``.
    Each fixture's text is parsed back here and recorded in ``fixtures``
    (path -> text); the caller writes the files after the timed set-up,
    so that set-up time holds no file-system writes."""
    codec = Codec(lib)
    ops = []
    counter = [0]

    def put(rows):
        counter[0] += 1
        path = os.path.join(workdir, f"r{round_no}-{counter[0]}.mat")
        text = text_of(rows) + "\n"
        A = lib.textio.parse_matrix(text)
        if mpair(A) != tuple(rows):
            codec.errors.append(f"fixture {path} did not round-trip")
        fixtures[path] = text
        return path

    def add(name, argv, check, as_json):
        argv = list(argv) + (["--json"] if as_json else [])

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            return code, buf.getvalue()

        def checked(result, check=check, as_json=as_json):
            code, out = result
            if code != 0:
                return f"exit code {code}: {out.strip()[:200]}"
            return check(out, as_json)

        ops.append(Op(f"cli.{name}", run, checked))

    for rep in range(4):
        as_json = rep % 2 == 1
        rows = rand_rows(rng, 4, 4)
        want = ref.permanent(rows)
        add("det", ["det", put(rows)],
            lambda out, j, want=want: None if _cli_scalar(out, j) == want else "det differs", as_json)
        rows = rand_rows(rng, 4, 4)
        want_adj = ref.adjoint(rows)
        add("adj", ["adj", put(rows)],
            lambda out, j, w=want_adj: None if _cli_matrix(out, j) == w else "adj differs", as_json)
        rows = rand_rows(rng, 3, 5, ghost_p=0.4)
        want_r = ref.rank(rows)
        add("rank", ["rank", put(rows)],
            lambda out, j, w=want_r: None if int(json.loads(out)["value"] if j else out) == w else "rank differs",
            as_json)
        rows = rand_rows(rng, 3, 3, ghost_p=0.2)

        def check_dep(out, j, rows=rows):
            w = _cli_witness(out, j, len(rows))
            if w is None:
                return None if ref.independent(rows) else "none for a dependent family"
            bad = dep_witness_problem(w[0], w[1], rows)
            if bad:
                return bad
            return "witness for an independent family" if ref.independent(rows) else None

        add("dep", ["dep", put(rows)], check_dep, as_json)
        rows, v, _ = tangible_family(rng, 3, -2, 2)
        mpath, vpath = put(rows), put((v,))

        def check_sat(out, j, rows=rows, v=v):
            w = _cli_witness(out, j, len(rows))
            if w is None:
                return "no witness"
            bad = dep_witness_problem(w[0], w[1], rows, v)
            if bad:
                return bad
            S = [lib.matrices.Vec(r) for r in _scalars(lib, rows)]
            coeffs = [lib.scalars.Scalar() if c is None else lib.scalars.Scalar(c[0]) for c in w[0]]
            vv = lib.matrices.Vec(_scalars(lib, [v])[0])
            wit = lib.dependence.DepWitness(tuple(coeffs), w[1], vv)
            if lib.dependence.saturate_by_sup(vv, S, wit).coeffs != wit.coeffs:
                return "saturate and saturate_by_sup disagree"
            return None

        add("saturate", ["saturate", mpath, "--target", vpath], check_sat, as_json)
        rows = family_2g(rng, 3, 3)
        v = tuple(entry(rng, -3, 5, 0.1, 0.3) for _ in range(3))

        def check_span(out, j, rows=rows, v=v):
            w = _cli_witness(out, j, len(rows))
            if w is None:
                return None
            return span_witness_problem(w[0], w[1], w[2], rows, v)

        add("span", ["span", put(rows), "--target", put((v,))], check_span, as_json)
        rows = family_2g(rng, 4, 3)

        def check_sbase(out, j, rows=rows):
            return sbase_problem(lib, rows, _cli_indices(out, j), [])

        add("sbase", ["sbase", put(rows)], check_sbase, as_json)
        rows = family_2g(rng, 4, 3)

        def check_crit(out, j, rows=rows):
            idx = _cli_indices(out, j)
            for i in range(len(rows)):
                bad = critical_problem(lib, rows, i, i in idx)
                if bad:
                    return bad
            return None

        add("critical", ["critical", put(rows)], check_crit, as_json)
        rows = nonzero_rows(rng, 5, 4, ghost_p=0.4)
        add("dbase", ["dbase", put(rows)],
            lambda out, j, rows=rows: dbase_problem(rows, _cli_indices(out, j)), as_json)
        closed = closure(nonsingular(rng, 3, ghost_p=0.15, zero_p=0.1))
        add("dual", ["dual", put(closed)],
            lambda out, j, c=closed: dual_problem(c, _cli_matrix(out, j)), as_json)
        rows = rand_rows(rng, 3, 3)
        add("gram", ["gram", put(rows)],
            lambda out, j, rows=rows: None if _cli_matrix(out, j) == sym_rows(rows) else "gram differs",
            as_json)
        W = tuple(tuple((rng.randint(-1, 1), T) for _ in range(3)) for _ in range(3))
        flag = ["--supertropical"] if rep < 2 else []

        def check_sym(out, j):
            ok = json.loads(out)["value"]["consistent"] if j else out.strip() == "consistent"
            return None if ok else "symmetric Gram form reported asymmetric"

        add("orthosym", ["orthosym", put(sym_rows(W))] + flag, check_sym, as_json)
        rows = rand_rows(rng, 3, 3, zero_p=0.0)
        perm = list(range(3))
        rng.shuffle(perm)
        P = tuple(
            tuple((rng.randint(-3, 3), T) if c == perm[r] else None for c in range(3))
            for r in range(3)
        )
        moved = ref.matmul(P, rows)

        def check_cb(out, j, rows=rows, moved=moved):
            got = _cli_matrix(out, j)
            if ref.matmul(got, rows) != moved:
                return "P A is not the second base"
            if any(sum(x is not None for x in r) != 1 or any(x is not None and x[1] for x in r) for r in got):
                return "P is not a generalized permutation"
            return None

        add("changebase", ["changebase", put(rows), put(moved)], check_cb, as_json)
        Gm = rand_rows(rng, 3, 3)
        x = tuple(entry(rng, -3, 5, 0.2, 0.0) for _ in range(3))
        val = ref.dot(x, ref.apply(Gm, x))
        word = "strictly_isotropic" if val is None else ("isotropic" if val[1] else "nonisotropic")

        def check_iso(out, j, word=word):
            got = json.loads(out)["value"] if j else out.strip()
            return None if got == word else f"isotropy {got}, reference {word}"

        add("isotropy", ["isotropy", put(Gm), put((x,))], check_iso, as_json)
    return ops, codec.errors


WORKLOADS = {
    "small_batch": small_batch,
    "dense": dense,
    "witness": witness,
    "cli": cli,
}
