"""Command-line front end.

One subcommand per library operation, file-based matrix and vector
input, canonical text output by default and a single JSON document with
``--json``.  Randomized verdicts take an explicit ``--seed`` and default
to seed 0, never to wall-clock entropy, so identical invocations give
byte-identical output.  Each command returns a library result, and
``_render`` picks its text lines and JSON value by the result's type.

Exit codes: 0 on success, 1 on a domain error (singular input, no
change of base, and so on), 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .bilinear import (
    GramForm,
    SymmetryVerdict,
    gram_of_dot,
    is_orthogonal_symmetric,
    is_supertropically_symmetric,
    isotropy,
)
from .dependence import (
    BaseReport,
    DepWitness,
    d_base,
    depends_on,
    is_dependent,
    rank,
    saturate,
)
from .dual import dual_base
from .exceptions import (
    InvalidInputError,
    ParseError,
    ShapeError,
    SingularMatrixError,
    SupertropicalError,
)
from .matrices import Mat, adjoint, nabla, permanent, quasi_identity
from .oracles import brute_dependence, brute_permanent, check_saturated
from .scalars import ZERO, Scalar
from .span import SpanWitness, change_of_base, is_critical, is_thick, s_base, spans
from .textio import parse_matrix, parse_scalar, parse_vector

__all__ = ["main"]


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 at byte {exc.start}"
        ) from exc


def _load_matrix(path):
    return parse_matrix(_read_text(path))


def _load_vector(path):
    return parse_vector(_read_text(path))


def _rows_of(path):
    return _load_matrix(path).row_list()


def _row_index(i, S):
    if not 0 <= i < len(S):
        raise ParseError(f"row index {i} out of range for {len(S)} rows")
    return i


# -- rendering ---------------------------------------------------------


def _scalar_obj(s):
    if s.is_zero():
        return {"v": "-inf", "ghost": False}
    return {"v": str(s.value), "ghost": s.is_ghost()}


def _vec_obj(v):
    return [_scalar_obj(x) for x in v]


def _indices_line(indices):
    return "indices: " + " ".join(str(i) for i in indices)


def _render(result):
    """A command's result as ``(kind, JSON value, text lines, extra JSON
    keys)``, chosen by its type; ``None`` is the no-witness answer."""
    if result is None:
        return "none", None, ["none"], {"witness": None}
    if isinstance(result, Scalar):
        return "scalar", _scalar_obj(result), [str(result)], {}
    if isinstance(result, Mat):
        return "matrix", [_vec_obj(r) for r in result.row_tuples], [str(result)], {}
    if isinstance(result, bool):  # before int: a bool is an int
        return "bool", result, ["true" if result else "false"], {}
    if isinstance(result, int):
        return "int", result, [str(result)], {}
    if isinstance(result, str):
        return "class", result, [result], {}
    if isinstance(result, list):
        return "indices", result, [_indices_line(result)], {}
    if isinstance(result, BaseReport):
        value = {"indices": list(result.indices), "rank": result.rank}
        lines = [_indices_line(result.indices)]
        if result.kind == "s-base":
            value["normalized"] = [_vec_obj(v) for v in result.normalized]
            lines += [str(v) for v in result.normalized]
        else:
            lines.append(f"rank: {result.rank}")
        return "base", value, lines, {}
    if isinstance(result, SymmetryVerdict):
        value = {"consistent": result.consistent, "samples": result.samples}
        if result.consistent:
            return "verdict", value, ["consistent"], {}
        x, y = result.witness
        value.update(x=_vec_obj(x), y=_vec_obj(y))
        return "verdict", value, ["violated", f"x: {x}", f"y: {y}"], {}
    # a DepWitness or a SpanWitness
    sup = result.support
    lines = [
        "support: " + " ".join(str(i) for i in sup),
        "coeffs: " + " ".join(str(result.coeffs[i]) for i in sup),
    ]
    obj = {
        "support": list(sup),
        "coeffs": [_scalar_obj(result.coeffs[i]) for i in sup],
    }
    if isinstance(result, SpanWitness):
        lines.append(f"ghost: {result.ghost_part}")
        obj["ghost"] = _vec_obj(result.ghost_part)
    return "witness", True, lines, {"witness": obj}


# -- subcommand bodies -------------------------------------------------


def _cmd_qid(args):
    left, right = quasi_identity(_load_matrix(args.matrix))
    return right if args.right else left


def _cmd_dep(args):
    S = _rows_of(args.matrix)
    if args.target:
        return depends_on(_load_vector(args.target), S)
    return is_dependent(S)


def _cmd_saturate(args):
    S = _rows_of(args.matrix)
    v = _load_vector(args.target)
    w = depends_on(v, S)
    return w if w is None else saturate(v, S, w)


def _cmd_critical(args):
    S = _rows_of(args.matrix)
    if args.index is not None:
        return is_critical(_row_index(args.index, S), S)
    return [i for i in range(len(S)) if is_critical(i, S)]


def _parse_order(text, count):
    try:
        order = [int(t) - 1 for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad order {text!r}") from exc
    if sorted(order) != list(range(count)):
        raise ParseError(
            f"order must be a permutation of 1..{count}, got {text!r}"
        )
    return order


def _cmd_dbase(args):
    S = _rows_of(args.matrix)
    order = _parse_order(args.order, len(S)) if args.order else None
    return d_base(S, order=order)


def _cmd_dual(args):
    eps = dual_base(_rows_of(args.matrix))
    return Mat([e.covector.entries for e in eps])


def _cmd_orthosym(args):
    F = GramForm(_load_matrix(args.matrix))
    check = (
        is_supertropically_symmetric if args.supertropical
        else is_orthogonal_symmetric
    )
    return check(F, budget=args.budget, rng=random.Random(args.seed))


def _cmd_oracle(args):
    if args.oracle_op == "det":
        return brute_permanent(_load_matrix(args.matrix))
    if args.oracle_op == "dep":
        S = _rows_of(args.matrix)
        target = _load_vector(args.target) if args.target else None
        return brute_dependence(S, target)
    # satcheck
    if not args.support or not args.coeffs:
        raise ParseError("satcheck needs --support and --coeffs")
    S = _rows_of(args.matrix)
    v = _load_vector(args.target) if args.target else None
    if v is not None and v.dim != S[0].dim:
        raise ShapeError("target dimension mismatch")
    try:
        support = tuple(int(t) for t in args.support.split(","))
    except ValueError as exc:
        raise ParseError(f"bad support {args.support!r}") from exc
    coeff_vals = [parse_scalar(t) for t in args.coeffs.split(",")]
    if len(coeff_vals) != len(support):
        raise ParseError("coeffs and support have different lengths")
    coeffs = [ZERO] * len(S)
    for i, c in zip(support, coeff_vals):
        coeffs[_row_index(i, S)] = c
    w = DepWitness(tuple(coeffs), support, v)
    if not w.is_valid(S):
        raise InvalidInputError("not a valid dependence witness")
    return check_saturated(w, S, v)


# -- parser ------------------------------------------------------------


@functools.cache
def _build_parser():
    """The parser, built on first use and shared by every later call:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="supertropical",
        description="Exact supertropical linear algebra on text matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *positionals):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(fn=fn)
        for pos in positionals:
            p.add_argument(pos)
        return p

    add("det", lambda a: permanent(_load_matrix(a.matrix)),
        "permanent determinant", "matrix")
    add("adj", lambda a: adjoint(_load_matrix(a.matrix)),
        "adjoint matrix", "matrix")
    add("nabla", lambda a: nabla(_load_matrix(a.matrix)),
        "adjoint over the permanent", "matrix")
    p = add("qid", _cmd_qid, "quasi-identity", "matrix")
    p.add_argument("--right", action="store_true",
                   help="use the right-hand quasi-identity")
    add("rank", lambda a: rank(_load_matrix(a.matrix)),
        "largest nonsingular submatrix size", "matrix")
    p = add("dep", _cmd_dep, "dependence witness for the rows", "matrix")
    p.add_argument("--target", help="vector file: express this vector instead")
    p = add("saturate", _cmd_saturate, "coefficientwise largest witness", "matrix")
    p.add_argument("--target", required=True, help="vector file")
    p = add("span", lambda a: spans(_rows_of(a.matrix), _load_vector(a.target)),
            "spanning witness with ghost surplus", "matrix")
    p.add_argument("--target", required=True, help="vector file")
    add("sbase", lambda a: s_base(_rows_of(a.matrix)),
        "minimal spanning subset", "matrix")
    p = add("critical", _cmd_critical, "critical row indices", "matrix")
    p.add_argument("--index", type=int, help="test one row only")
    p = add("dbase", _cmd_dbase, "greedy independent subset", "matrix")
    p.add_argument("--order", help="1-based visit order, e.g. 2,3,1")
    add("thick", lambda a: is_thick(_rows_of(a.first), _rows_of(a.second)),
        "equal-rank test for two families", "first", "second")
    add("changebase",
        lambda a: change_of_base(_load_matrix(a.matrix), _load_matrix(a.target_matrix)),
        "generalized permutation between bases", "matrix", "target_matrix")
    add("dual", _cmd_dual, "dual functional covectors of a closed base", "matrix")
    add("gram", lambda a: gram_of_dot(_rows_of(a.matrix)).G,
        "Gram matrix of the rows under the dot form", "matrix")
    p = add("orthosym", _cmd_orthosym, "symmetry verdict for a Gram form", "matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=0,
                   help="extra random argument pairs")
    p.add_argument("--supertropical", action="store_true",
                   help="also require value agreement on tangible pairs")
    add("isotropy",
        lambda a: isotropy(GramForm(_load_matrix(a.matrix)), _load_vector(a.vector)),
        "classify a vector against a form", "matrix", "vector")
    p = add("oracle", _cmd_oracle, "brute-force reference computations")
    p.add_argument("oracle_op", choices=["det", "dep", "satcheck"])
    p.add_argument("matrix")
    p.add_argument("--target", help="vector file")
    p.add_argument("--support", help="comma-separated indices (satcheck)")
    p.add_argument("--coeffs", help="comma-separated scalars (satcheck); "
                   "write a negative first one as --coeffs=-1,0")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        kind, value, lines, extra = _render(args.fn(args))
    except ParseError as exc:
        print(f"error: {exc}")
        return 2
    except SingularMatrixError:
        print("error: singular matrix")
        return 1
    except SupertropicalError as exc:
        print(f"error: {exc}")
        return 1
    if args.json:
        print(json.dumps({"kind": kind, "value": value, **extra}, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
