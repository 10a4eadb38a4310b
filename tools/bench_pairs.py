"""Run stbench on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads dense,small_batch,witness,cli --seeds 3001-3010 \\
        --seconds 10 [--traced dense --trace-seed 3011-3014] --out BENCH_N.json

``--parent`` and ``--change`` are roots of two checkouts, for example a
``git clone`` of the repository with the parent commit checked out and
one with the change.  Pair i runs every workload with the i-th seed on
both sides, each workload's two runs back to back: odd pairs run the
parent first, even pairs the change first.  Each run is

    python3 stbench/run.py --workload W --seed S --seconds T --trace 0

in the checkout's root, and its last line of standard output is kept as
it is, together with the ``sum_s`` and ``median_ms`` of each operation
class from the run's ``stbench/out/result-<w>-<seed>-trace<t>.json``.
After the pairs, each ``--traced`` workload runs with ``--trace 1``
once per side for each seed of ``--trace-seed`` (a range or list like
``--seeds``), in pairs that alternate the same way.

The output file holds every result line, and per workload and
end-to-end metric of ``BENCHMARK.json`` (read from the parent) each
side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the change's median over the parent's, the
parent's quartile spread, whether the change's median is within the
metric's bound, and the pairs the change won (ties count for neither);
per operation class, each side's median ``sum_s`` and ``median_ms`` over
its runs, which shows where a workload's time went; and per traced
workload and per-layer metric of ``BENCHMARK.json``, each side's median
and quartiles over the traced runs and the traced pairs the change won.
The file is rewritten after every run, so an interrupted session keeps
what it measured.  Nothing in either checkout is modified; stbench writes
its own result files under its ``out/`` directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
CLASS_KEYS = ("sum_s", "median_ms")


def _seeds(text):
    """``3001-3010`` or ``3001,3005,3007``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _commit(root):
    """The checkout's short commit, or for a checkout without ``.git``
    (one made with ``git archive``, say) ``src:<12 hex>``: a sha256 over
    the sorted paths and bytes of its ``src/``, ``__pycache__`` left
    out, so that two copies of the same sources get the same id."""
    if os.path.exists(os.path.join(root, ".git")):
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if out.stdout.strip():
            return out.stdout.strip()
    src = os.path.join(root, "src")
    paths = sorted(
        os.path.relpath(os.path.join(d, name), src)
        for d, dirs, names in os.walk(src)
        if "__pycache__" not in os.path.relpath(d, src).split(os.sep)
        for name in names
    )
    h = hashlib.sha256()
    for path in paths:
        with open(os.path.join(src, path), "rb") as f:
            data = f.read()
        h.update(f"{path}\0{len(data)}\0".encode() + data)
    return f"src:{h.hexdigest()[:12]}"


def _run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "stbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if trace:
        result["trace_lines"] = lines[:-1]
    path = os.path.join(root, "stbench", "out", f"result-{workload}-{seed}-trace{trace}.json")
    try:
        with open(path) as f:
            classes = json.load(f)["classes"]
    except (OSError, KeyError, json.JSONDecodeError):
        return result
    result["classes"] = {c: {k: row[k] for k in CLASS_KEYS} for c, row in classes.items()}
    return result


def _pair(k, seed, roots, workload, seconds, trace):
    """Pair k on one seed: both sides back to back, the parent first in
    odd pairs and the change first in even ones."""
    order = SIDES if k % 2 else SIDES[::-1]
    row = {"pair": k, "seed": seed, "order": ", ".join(order)}
    for side in order:
        row[side] = _run(roots[side], workload, seed, seconds, trace)
        got = row[side].get("metrics", {}).get("ops_per_s", {}).get("value")
        print(f"pair {k} seed {seed} {workload} trace {trace} {side}: ops_per_s {got}",
              file=sys.stderr)
    return row


def _quartiles(xs):
    if len(xs) < 2:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def _class_medians(rows):
    """Median of each ``CLASS_KEYS`` value over the runs that have one (a
    class whose operations all failed has no ``median_ms``)."""
    out = {}
    for k in CLASS_KEYS:
        xs = [row[k] for row in rows if row[k] is not None]
        out[k] = statistics.median(xs) if xs else None
    return out


def _done(runs):
    return [r for r in runs if all("metrics" in r[s] for s in SIDES)]


def _compare(vals, lower):
    """Each side's quartiles of ``vals`` (per side, one value per pair),
    the change's median over the parent's, the parent's quartile spread
    and the pairs the change won."""
    q = {s: _quartiles(vals[s]) for s in SIDES}
    p, c = q["parent"]["median"], q["change"]["median"]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(vals["parent"], vals["change"]))
    return {
        **q,
        "change_over_parent": c / p if p else None,
        "change_wins": f"{wins}/{len(vals['parent'])}",
        "parent_iqr": q["parent"]["q3"] - q["parent"]["q1"],
    }


def _layer_summary(runs, layers):
    """Per per-layer metric, ``_compare`` over the traced pairs."""
    done = _done(runs)
    out = {"pairs": len(done)}
    for m in layers:
        name = m["name"]
        if done and all(name in r[s]["metrics"] for r in done for s in SIDES):
            vals = {s: [r[s]["metrics"][name]["value"] for r in done] for s in SIDES}
            out[name] = {"unit": m["unit"], "better": m["better"],
                         **_compare(vals, m["better"] == "lower")}
    return out


def _summary(runs, metrics):
    """Per-side counts and, per end-to-end metric, quartiles and wins."""
    done = _done(runs)
    out = {key: {s: [r[s][key] for r in done] for s in SIDES}
           for key in ("attempted", "failed", "correct")}
    out["pairs"] = len(done)
    if not done:
        return out
    rows = {s: [r[s].get("classes", {}) for r in done] for s in SIDES}
    names = sorted({c for s in SIDES for t in rows[s] for c in t})
    out["classes"] = {c: {s: _class_medians([t[c] for t in rows[s] if c in t])
                          for s in SIDES} for c in names}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r[s]["metrics"][name]["value"] for r in done] for s in SIDES}
        cmp = _compare(vals, lower)
        p, c = cmp["parent"]["median"], cmp["change"]["median"]
        limit = p * (1 + m["bound"]) if lower else p * (1 - m["bound"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **cmp,
            "within_bound": c <= limit if lower else c >= limit,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", default="")
    ap.add_argument("--trace-seed", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    workloads = args.workloads.split(",")
    traced = [w for w in args.traced.split(",") if w]
    if traced and not args.trace_seed:
        ap.error("--traced needs --trace-seed")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, layers = bench["end_to_end"], bench["per_layer"]

    doc = {
        "command": f"python3 stbench/run.py --workload <w> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0, run from the root of each checkout",
        "host": f"Python {platform.python_version()}, {os.cpu_count()} CPUs",
        "commits": {s: _commit(roots[s]) for s in SIDES},
        "order": "pair i uses the i-th seed on both sides; odd pairs run the parent "
                 "first, even pairs the change; each workload's two runs are back to back",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of a side",
        "summary": {},
        "runs": {w: [] for w in workloads},
        "traced": {},
    }

    def save():
        doc["summary"] = {w: _summary(doc["runs"][w], metrics) for w in workloads}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    for k, seed in enumerate(_seeds(args.seeds), 1):
        for w in workloads:
            doc["runs"][w].append(_pair(k, seed, roots, w, args.seconds, 0))
            save()
    for w in traced:
        runs = []
        doc["traced"][w] = {"runs": runs, "summary": {}}
        for k, seed in enumerate(_seeds(args.trace_seed), 1):
            runs.append(_pair(k, seed, roots, w, args.seconds, 1))
            doc["traced"][w]["summary"] = _layer_summary(runs, layers)
            save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
