"""Time the library's exponential searches by size, on two checkouts.

    python3 tools/size_sweep.py --parent DIR --change DIR --out SWEEP_N.json

``--parent`` and ``--change`` are roots of two checkouts.  Every draw
of every row of ``ROWS`` runs once per side, in a child process of its
own (``python3 tools/size_sweep.py --run --row SEARCH --size N --draw
D``, with ``DIR/src`` first on ``PYTHONPATH``), so it imports only that
checkout's ``supertropical``; the child prints the draw's result as one
JSON object.  The children run one after another, never two at once,
and the side that runs first alternates from draw to draw, the parent
first on the first one, so that a host that slows down or speeds up
during the sweep, even within one row, does not read as a change.  Each
side is recorded by ``bench_pairs._commit``.

Every (search, size) row draws ``DRAWS`` seeded inputs, each from its
own ``random.Random("<search>/<size>/<draw>")`` (``saturate_built``
from ``depends_on_built``'s, so that it runs on the same draws), so a
row's inputs do not depend on the other rows or on the checkout.  The
child makes the call ``1 + REPEATS`` times, each time on an input
freshly built from that seed: the first call warms the interpreter,
and the draw's time is the median of the others.  Each of those starts
cold: the library's kept results (``MEMOS``, where the checkout has
them) are emptied after the input is built and before the clock
starts, so that no call reads what an earlier one on equal inputs
left.  Each call is timed with ``time.thread_time`` and capped at
``CAP_S`` seconds of the process's own CPU time by
``signal.setitimer(signal.ITIMER_VIRTUAL, ...)``; a call that reaches
the cap is stopped and counted as over it, and a draw with a call
that reaches it is not called again.  Per row and side the file holds
every draw's time (None: over the cap), the median (None when half or
more of the draws are over the cap), the largest finished time and
the number over the cap.  Per row,
``ratios`` holds the median over the draws that finished on both sides
of the change's time over the parent's.  Tangible values are -3..5:

- ``is_dependent``: n+1 tangible vectors in n coordinates;
- ``annihilator_set``: a tangible n x (n+1) matrix;
- ``depends_on``: k = n tangible vectors and a free tangible target;
- ``depends_on_built``: k = n independent tangible vectors and the
  tangible lift of a combination of all of them with tangible
  coefficients, each member's term the unique largest at some
  coordinate, so that the witness needs every member: the shape of
  stbench's ``witness`` workload (redrawn until it holds);
- ``saturate_built``: ``saturate(v, S, depends_on(v, S))`` as one call
  on the ``depends_on_built`` draws, the chain of the ``witness``
  workload;
- ``spans``: k members and a free target in 5 coordinates, with ghost
  0.3 and zero 0.15;
- ``is_almost_tangible``: a vector that is neither tangible nor ghost
  and k members in 4 coordinates, with ghost 0.3 and zero 0.15;
- ``rank``: the n x n matrix of tangible zeros, one call;
- ``gram_dependence``: ``strict=True`` on k members in 4 coordinates,
  with ghost 0.3 and zero 0.15, under a tangible 4 x 4 form (a
  degenerate span's ``DegenerateSpaceError`` is a finished call);
- ``is_ghost_monic``: a 3 x 3 matrix and k generators in 3 coordinates,
  with ghost 0.3 and zero 0.15;
- ``permanent``: an n x n matrix with ghost 0.3 and zero 0.15, the
  entries of stbench's ``dense`` workload;
- ``adjoint``: an n x n matrix of tangible values 0..2, whose optimal
  assignment is tied;
- ``nabla``: an n x n matrix of tangible values -10**6..10**6, whose
  optimal assignment is unique unless two permutations tie by chance (a
  singular draw's ``SingularMatrixError`` is a finished call);
- ``dual``: ``close_base``, ``dual_base`` on the closed rows and 8
  ``reconstruct`` calls on them, at fixed points of their
  quasi-identity, for an n x n base of tangible values -10**6..10**6
  (redrawn until it and its closure are nonsingular).  The base and the
  points are built on matrices of the sweep's own, so the timed calls
  start from nothing kept.

The ``adjoint`` and ``nabla`` rows also hold ``unique``, the number of
draws whose whole optimum is unique (whose permanent is tangible): the
adjoint takes its minors' layers from a path count on those, and takes
each minor as a permanent of its own on the others.

Nothing outside the two processes is measured or changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

DRAWS = 8
REPEATS = 5
SIDES = ("parent", "change")
CAP_S = 5.0
# (search, sizes, draws per size or None for DRAWS)
ROWS = (
    ("is_dependent", (5, 6, 7), None),
    ("annihilator_set", (5, 6, 8), None),
    ("depends_on", (5, 6, 8), None),
    ("depends_on_built", (3, 4, 5, 6), None),
    ("saturate_built", (3, 4, 5, 6), None),
    ("spans", (14, 18), None),
    ("is_almost_tangible", (10, 12, 16, 24), None),
    ("rank", (9,), 1),
    ("gram_dependence", (3, 4, 5), None),
    ("is_ghost_monic", (2, 3, 4), None),
    ("permanent", (9, 13, 18, 24, 32), None),
    ("adjoint", (5, 6, 8, 12, 18, 24), None),
    ("nabla", (12, 18, 24), None),
    ("dual", (8, 12, 16, 24), None),
)
# the (lo, hi) of the tangible values of the square rows
SQUARE = {"adjoint": (0, 2), "nabla": (-10**6, 10**6)}
# rows that draw the inputs of another row
SEED_OF = {"saturate_built": "depends_on_built"}
# the library's kept results, (module, cache): emptied before each timed call
MEMOS = (("dependence", "_chain_candidates"), ("dual", "_shared"))


class _Cap(BaseException):
    """Raised by the CPU-time timer; a BaseException, so that no
    ``except Exception`` in the library can swallow it."""


def _on_cap(signum, frame):
    raise _Cap


def _scalar(st, rng, ghost_p=0.0, zero_p=0.0):
    if rng.random() < zero_p:
        return st.ZERO
    return st.Scalar(rng.randint(-3, 5), rng.random() < ghost_p)


def _vec(st, rng, n, **kw):
    return st.Vec([_scalar(st, rng, **kw) for _ in range(n)])


def _call(st, search, size, rng):
    """The call of one draw, with its input built."""
    if search == "is_dependent":
        S = [_vec(st, rng, size) for _ in range(size + 1)]
        return lambda: st.is_dependent(S)
    if search == "annihilator_set":
        A = st.Mat([[_scalar(st, rng) for _ in range(size + 1)] for _ in range(size)])
        return lambda: st.annihilator_set(A)
    if search == "depends_on":
        S = [_vec(st, rng, size) for _ in range(size)]
        v = _vec(st, rng, size)
        return lambda: st.depends_on(v, S)
    if search == "depends_on_built":
        v, S = _built(st, size, rng)
        return lambda: st.depends_on(v, S)
    if search == "saturate_built":
        v, S = _built(st, size, rng)
        return lambda: st.saturate(v, S, st.depends_on(v, S))
    if search == "spans":
        S = [_vec(st, rng, 5, ghost_p=0.3, zero_p=0.15) for _ in range(size)]
        v = _vec(st, rng, 5, ghost_p=0.3, zero_p=0.15)
        return lambda: st.spans(S, v)
    if search == "is_almost_tangible":
        v = _vec(st, rng, 4, ghost_p=0.3, zero_p=0.15)
        while v.is_zero() or v.is_tangible() or v.is_ghost():
            v = _vec(st, rng, 4, ghost_p=0.3, zero_p=0.15)
        S = [_vec(st, rng, 4, ghost_p=0.3, zero_p=0.15) for _ in range(size)]
        return lambda: st.is_almost_tangible(v, S)
    if search == "rank":
        A = st.Mat([[st.Scalar(0)] * size for _ in range(size)])
        return lambda: st.rank(A)
    if search == "gram_dependence":
        W = [_vec(st, rng, 4, ghost_p=0.3, zero_p=0.15) for _ in range(size)]
        F = st.GramForm(st.Mat([_vec(st, rng, 4) for _ in range(4)]))

        def call():
            try:
                st.gram_dependence(W, F, strict=True)
            except st.DegenerateSpaceError:
                pass

        return call
    if search == "is_ghost_monic":
        M = st.Mat([_vec(st, rng, 3, ghost_p=0.3, zero_p=0.15) for _ in range(3)])
        S = [_vec(st, rng, 3, ghost_p=0.3, zero_p=0.15) for _ in range(size)]
        return lambda: st.is_ghost_monic(M, S)
    if search == "permanent":
        A = st.Mat([_vec(st, rng, size, ghost_p=0.3, zero_p=0.15) for _ in range(size)])
        return lambda: st.permanent(A)
    if search == "adjoint":
        A = _square(st, search, size, rng)
        return lambda: st.adjoint(A)
    if search == "nabla":
        A = _square(st, search, size, rng)

        def call():
            try:
                st.nabla(A)
            except st.SingularMatrixError:
                pass

        return call
    if search == "dual":
        B, points = _closable(st, size, rng)

        def call():
            _, closed = st.close_base(B)
            st.dual_base(closed)
            for v in points:
                st.reconstruct(closed, v)

        return call
    raise ValueError(search)


def _built(st, size, rng):
    """A ``depends_on_built`` draw: the target and the family."""
    while True:
        S = [_vec(st, rng, size) for _ in range(size)]
        terms = [w.scale(_scalar(st, rng)) for w in S]
        if st.max_rank(S) == size and all(
            any(all(t[j].value > o[j].value for o in terms if o is not t)
                for j in range(size))
            for t in terms
        ):
            return sum(terms[1:], terms[0]).nu_hat(), S


def _square(st, search, size, rng):
    lo, hi = SQUARE[search]
    return st.Mat([[st.Scalar(rng.randint(lo, hi)) for _ in range(size)]
                   for _ in range(size)])


def _closable(st, size, rng):
    """The rows of a ``dual`` row's base, and 8 fixed points of its
    closure's quasi-identity."""
    while True:
        A = st.Mat([[st.Scalar(rng.randint(-10**6, 10**6)) for _ in range(size)]
                    for _ in range(size)])
        try:
            closure = A @ st.nabla(A) @ A
            IA = closure @ st.nabla(closure)
        except st.SingularMatrixError:
            continue
        return A.row_list(), [IA.apply(_vec(st, rng, size)) for _ in range(8)]


def _timed(call):
    """Thread CPU seconds of one call, or None when it reached the cap."""
    t0 = time.thread_time()
    signal.setitimer(signal.ITIMER_VIRTUAL, CAP_S)
    try:
        call()
    except _Cap:
        return None
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    return time.thread_time() - t0


def _cold(st):
    """Empty each of ``MEMOS`` that the imported library keeps (an
    older checkout may have the function, but not kept)."""
    for module, name in MEMOS:
        memo = getattr(getattr(st, module, None), name, None)
        clear = getattr(memo, "cache_clear", None)
        if clear is not None:
            clear()


def run(search, size, draw):
    """One draw of one row on the imported ``supertropical``:
    ``time_s``, the median thread CPU seconds of ``REPEATS`` cold calls
    after a warm-up (None: a call over the cap), and for the square rows
    ``unique``, whether the input's whole optimum is unique."""
    import supertropical as st

    signal.signal(signal.SIGVTALRM, _on_cap)
    seed = f"{SEED_OF.get(search, search)}/{size}/{draw}"
    times = []
    for _ in range(1 + REPEATS):  # the first is the warm-up
        call = _call(st, search, size, random.Random(seed))
        _cold(st)
        t = _timed(call)
        if t is None:
            break
        times.append(t)
    out = {"time_s": None if t is None else statistics.median(times[1:])}
    if search in SQUARE:
        out["unique"] = st.permanent(_square(st, search, size, random.Random(seed))).is_tangible()
    return out


def _side(root, search, size, draw):
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(root), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.abspath(__file__), "--run", "--row", search,
           "--size", str(size), "--draw", str(draw)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _row(search, size, results):
    """One side's row from the results of its draws."""
    times = [r["time_s"] for r in results]
    done = sorted(t for t in times if t is not None)
    over = len(times) - len(done)
    # over-cap draws sort above every finished one
    median = None if 2 * over >= len(times) else statistics.median(
        done + [float("inf")] * over)
    row = {
        "search": search, "size": size, "draws": len(times),
        "median_s": median, "max_s": done[-1] if done else None,
        "over_cap": over, "times_s": times,
    }
    if search in SQUARE:
        row["unique"] = sum(r["unique"] for r in results)
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--out")
    ap.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--row", choices=[search for search, _, _ in ROWS],
                    help=argparse.SUPPRESS)
    ap.add_argument("--size", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--draw", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:
        if not args.row or args.size is None or args.draw is None:
            ap.error("--run needs --row, --size and --draw")
        json.dump(run(args.row, args.size, args.draw), sys.stdout)
        return 0
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_pairs import _commit

    doc = {
        "command": "python3 tools/size_sweep.py",
        "draws": DRAWS,
        "cap_s": CAP_S,
        "host": f"Python {platform.python_version()}, {os.cpu_count()} CPUs",
        "timing": f"time.thread_time, per draw the median of {REPEATS} cold calls "
                  "after a warm-up, each after the library's kept results "
                  f"({', '.join('.'.join(m) for m in MEMOS)}) are emptied; one child "
                  "per side and draw, the sides alternating from draw to draw; a "
                  "call is stopped at the cap by ITIMER_VIRTUAL on its own process",
        "commits": {side: _commit(getattr(args, side)) for side in SIDES},
        "rows": {side: [] for side in SIDES},
        "ratios": [],
    }
    k = 0
    for search, sizes, fixed in ROWS:
        for size in sizes:
            results = {side: [] for side in SIDES}
            for draw in range(fixed or DRAWS):
                for side in SIDES[::-1] if k % 2 else SIDES:
                    results[side].append(_side(getattr(args, side), search, size, draw))
                k += 1
            for side in SIDES:
                doc["rows"][side].append(_row(search, size, results[side]))
            pairs = zip(results["parent"], results["change"])
            ratios = [b["time_s"] / a["time_s"] for a, b in pairs
                      if a["time_s"] and b["time_s"] is not None]
            ratio = statistics.median(ratios) if ratios else None
            doc["ratios"].append({"search": search, "size": size, "ratio": ratio})
            print(f"{search} {size}: change/parent {ratio}", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
