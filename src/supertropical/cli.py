"""Command-line front end.

One subcommand per library operation, file-based matrix and vector
input, canonical text output by default and a single JSON document with
``--json``.  Randomized verdicts take an explicit ``--seed`` and default
to seed 0, never to wall-clock entropy, so identical invocations give
byte-identical output.

Exit codes: 0 on success, 1 on a domain error (singular input, no
change of base, and so on), 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bilinear import (
    GramForm,
    gram_of_dot,
    is_orthogonal_symmetric,
    is_supertropically_symmetric,
    isotropy,
)
from .dependence import (
    DepWitness,
    d_base,
    depends_on,
    is_dependent,
    rank,
    saturate,
)
from .dual import dual_base
from .exceptions import (
    ParseError,
    SingularMatrixError,
    SupertropicalError,
)
from .matrices import Mat, adjoint, nabla, permanent, quasi_identity
from .oracles import brute_dependence, brute_permanent, check_saturated
from .scalars import ZERO
from .span import change_of_base, is_critical, is_thick, s_base, spans
from .textio import (
    parse_matrix,
    parse_scalar,
    parse_vector,
    print_matrix,
    print_scalar,
    print_vector,
)

__all__ = ["main"]


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _load_matrix(path):
    return parse_matrix(_read_text(path))


def _load_vector(path):
    return parse_vector(_read_text(path))


# -- serialization -----------------------------------------------------


def _scalar_obj(s):
    if s.is_zero():
        return {"v": "-inf", "ghost": False}
    return {"v": str(s.value), "ghost": s.is_ghost()}


def _vec_obj(v):
    return [_scalar_obj(x) for x in v]


def _mat_obj(A):
    return [_vec_obj(A.row(i)) for i in range(A.rows)]


def _emit(args, kind, value, lines, **extra):
    """Print the text lines, or with ``--json`` one document holding the
    kind, the value and any extra keys."""
    if getattr(args, "json", False):
        doc = {"kind": kind, "value": value, **extra}
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_witness(args, w, extra_lines=(), **extra):
    """Print a witness's support and coefficients, then the extra lines
    (text) or keys (JSON); ``none`` when there is no witness."""
    if w is None:
        _emit(args, "none", None, ["none"], witness=None)
        return
    lines = [
        "support: " + " ".join(str(i) for i in w.support),
        "coeffs: " + " ".join(print_scalar(w.coeffs[i]) for i in w.support),
        *extra_lines,
    ]
    obj = {
        "support": list(w.support),
        "coeffs": [_scalar_obj(w.coeffs[i]) for i in w.support],
        **extra,
    }
    _emit(args, "witness", True, lines, witness=obj)


# -- subcommand bodies -------------------------------------------------


def _cmd_det(args):
    p = permanent(_load_matrix(args.matrix))
    _emit(args, "scalar", _scalar_obj(p), [print_scalar(p)])


def _cmd_adj(args):
    A = adjoint(_load_matrix(args.matrix))
    _emit(args, "matrix", _mat_obj(A), [print_matrix(A)])


def _cmd_nabla(args):
    A = nabla(_load_matrix(args.matrix))
    _emit(args, "matrix", _mat_obj(A), [print_matrix(A)])


def _cmd_qid(args):
    left, right = quasi_identity(_load_matrix(args.matrix))
    A = right if args.right else left
    _emit(args, "matrix", _mat_obj(A), [print_matrix(A)])


def _cmd_rank(args):
    r = rank(_load_matrix(args.matrix))
    _emit(args, "int", r, [str(r)])


def _rows_of(path):
    return _load_matrix(path).row_list()


def _cmd_dep(args):
    S = _rows_of(args.matrix)
    if args.target:
        w = depends_on(_load_vector(args.target), S)
    else:
        w = is_dependent(S)
    _emit_witness(args, w)


def _cmd_saturate(args):
    S = _rows_of(args.matrix)
    v = _load_vector(args.target)
    w = depends_on(v, S)
    _emit_witness(args, w if w is None else saturate(v, S, w))


def _cmd_span(args):
    S = _rows_of(args.matrix)
    v = _load_vector(args.target)
    w = spans(S, v)
    if w is None:
        _emit_witness(args, w)
    else:
        g = w.ghost_part
        _emit_witness(args, w, ["ghost: " + print_vector(g)], ghost=_vec_obj(g))


def _cmd_sbase(args):
    rep = s_base(_rows_of(args.matrix))
    lines = ["indices: " + " ".join(str(i) for i in rep.indices)]
    lines += [print_vector(v) for v in rep.normalized]
    obj = {
        "indices": list(rep.indices),
        "rank": rep.rank,
        "normalized": [_vec_obj(v) for v in rep.normalized],
    }
    _emit(args, "base", obj, lines)


def _cmd_critical(args):
    S = _rows_of(args.matrix)
    if args.index is not None:
        flag = is_critical(args.index, S)
        _emit(args, "bool", flag, ["true" if flag else "false"])
        return
    idx = [i for i in range(len(S)) if is_critical(i, S)]
    _emit(args, "indices", idx, ["indices: " + " ".join(str(i) for i in idx)])


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
    rep = d_base(S, order=order)
    lines = [
        "indices: " + " ".join(str(i) for i in rep.indices),
        f"rank: {rep.rank}",
    ]
    obj = {"indices": list(rep.indices), "rank": rep.rank}
    _emit(args, "base", obj, lines)


def _cmd_thick(args):
    flag = is_thick(_rows_of(args.first), _rows_of(args.second))
    _emit(args, "bool", flag, ["true" if flag else "false"])


def _cmd_changebase(args):
    P = change_of_base(_load_matrix(args.matrix), _load_matrix(args.target_matrix))
    _emit(args, "matrix", _mat_obj(P), [print_matrix(P)])


def _cmd_dual(args):
    eps = dual_base(_rows_of(args.matrix))
    E = Mat([e.covector.entries for e in eps])
    _emit(args, "matrix", _mat_obj(E), [print_matrix(E)])


def _cmd_gram(args):
    F = gram_of_dot(_rows_of(args.matrix))
    _emit(args, "matrix", _mat_obj(F.G), [print_matrix(F.G)])


def _cmd_orthosym(args):
    F = GramForm(_load_matrix(args.matrix))
    rng = random.Random(args.seed)
    check = (
        is_supertropically_symmetric if args.supertropical
        else is_orthogonal_symmetric
    )
    verdict = check(F, budget=args.budget, rng=rng)
    if verdict.consistent:
        obj = {"consistent": True, "samples": verdict.samples}
        _emit(args, "verdict", obj, ["consistent"])
    else:
        x, y = verdict.witness
        obj = {
            "consistent": False,
            "samples": verdict.samples,
            "x": _vec_obj(x),
            "y": _vec_obj(y),
        }
        lines = ["violated", "x: " + print_vector(x), "y: " + print_vector(y)]
        _emit(args, "verdict", obj, lines)


def _cmd_isotropy(args):
    F = GramForm(_load_matrix(args.matrix))
    word = isotropy(F, _load_vector(args.vector))
    _emit(args, "class", word, [word])


def _cmd_oracle(args):
    if args.oracle_op == "det":
        p = brute_permanent(_load_matrix(args.matrix))
        _emit(args, "scalar", _scalar_obj(p), [print_scalar(p)])
        return
    if args.oracle_op == "dep":
        S = _rows_of(args.matrix)
        target = _load_vector(args.target) if args.target else None
        _emit_witness(args, brute_dependence(S, target))
        return
    # satcheck
    if not args.support or not args.coeffs:
        raise ParseError("satcheck needs --support and --coeffs")
    S = _rows_of(args.matrix)
    v = _load_vector(args.target) if args.target else None
    support = tuple(int(t) for t in args.support.split(","))
    coeff_vals = [parse_scalar(t) for t in args.coeffs.split(",")]
    if len(coeff_vals) != len(support):
        raise ParseError("coeffs and support have different lengths")
    coeffs = [ZERO] * len(S)
    for i, c in zip(support, coeff_vals):
        coeffs[i] = c
    w = DepWitness(tuple(coeffs), support, v)
    flag = check_saturated(w, S, v)
    _emit(args, "bool", flag, ["true" if flag else "false"])


# -- parser ------------------------------------------------------------


def _build_parser():
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

    add("det", _cmd_det, "permanent determinant", "matrix")
    add("adj", _cmd_adj, "adjoint matrix", "matrix")
    add("nabla", _cmd_nabla, "adjoint over the permanent", "matrix")
    p = add("qid", _cmd_qid, "quasi-identity", "matrix")
    p.add_argument("--right", action="store_true",
                   help="use the right-hand quasi-identity")
    add("rank", _cmd_rank, "largest nonsingular submatrix size", "matrix")
    p = add("dep", _cmd_dep, "dependence witness for the rows", "matrix")
    p.add_argument("--target", help="vector file: express this vector instead")
    p = add("saturate", _cmd_saturate, "coefficientwise largest witness", "matrix")
    p.add_argument("--target", required=True, help="vector file")
    p = add("span", _cmd_span, "spanning witness with ghost surplus", "matrix")
    p.add_argument("--target", required=True, help="vector file")
    add("sbase", _cmd_sbase, "minimal spanning subset", "matrix")
    p = add("critical", _cmd_critical, "critical row indices", "matrix")
    p.add_argument("--index", type=int, help="test one row only")
    p = add("dbase", _cmd_dbase, "greedy independent subset", "matrix")
    p.add_argument("--order", help="1-based visit order, e.g. 2,3,1")
    add("thick", _cmd_thick, "equal-rank test for two families", "first", "second")
    add("changebase", _cmd_changebase, "generalized permutation between bases",
        "matrix", "target_matrix")
    add("dual", _cmd_dual, "dual functional covectors of a closed base", "matrix")
    add("gram", _cmd_gram, "Gram matrix of the rows under the dot form", "matrix")
    p = add("orthosym", _cmd_orthosym, "symmetry verdict for a Gram form", "matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=0,
                   help="extra random argument pairs")
    p.add_argument("--supertropical", action="store_true",
                   help="also require value agreement on tangible pairs")
    add("isotropy", _cmd_isotropy, "classify a vector against a form",
        "matrix", "vector")
    p = add("oracle", _cmd_oracle, "brute-force reference computations")
    p.add_argument("oracle_op", choices=["det", "dep", "satcheck"])
    p.add_argument("matrix")
    p.add_argument("--target", help="vector file")
    p.add_argument("--support", help="comma-separated indices (satcheck)")
    p.add_argument("--coeffs", help="comma-separated scalars (satcheck)")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}")
        return 2
    except SingularMatrixError:
        print("error: singular matrix")
        return 1
    except SupertropicalError as exc:
        print(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
