"""Benchmark command for the supertropical package.

    python3 stbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload as a closed loop with one caller.  The run
draws ``rounds = max(1, round(S / ROUND_SECONDS[NAME]))`` rounds of seeded
operations and works through that list ``PASSES[NAME]`` times: the work
done is fixed by the seed and ``--seconds``, not by how fast the program
is.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Their times are thread CPU times scaled to a
nominal host speed by a probe timed every 10 ms (``speed.py``); the raw CPU
and wall times go to the result file.  With ``--trace 1`` the last line
holds the per-layer metrics of an outside-in traced pass (see
``tracing.py``), and a line before it compares that pass's ``ops_per_s``
with an untraced pass over the same operations (both raw CPU time, without
the probe).  A per-class summary goes to standard error, and the full
result to ``stbench/out/``.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

# Seconds of --seconds per round: a run has round(S / ROUND_SECONDS)
# rounds.  Chosen so that a 10-second run of each workload (set-up, checks
# and probes included) ends within about 30 s on a 2-CPU shared host whose
# speed halves at times (see speed.py); the scaled seconds a run actually
# times are in its result file (``timed_s``).
ROUND_SECONDS = {
    "small_batch": 2.5,
    "dense": 0.4,
    "witness": 1.6,
    "cli": 0.25,
}

# small_batch repeats its list so that set-up, which parses every instance,
# stays near a second; a repeated operation's output is checked by
# comparing it with its first output.
PASSES = {"small_batch": 15, "dense": 1, "witness": 1, "cli": 1}

# Set-up is repeated and its median reported; the first repetition also
# pays for writing bytecode caches in a fresh checkout.
SETUP_REPEATS = 3


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


class Lib:
    """The package's modules, as imported by the latest set-up."""

    def __init__(self, with_cli):
        self.package = importlib.import_module("supertropical")
        for name in ("scalars", "matrices", "dependence", "span", "dual",
                     "bilinear", "textio", "exceptions", "oracles"):
            setattr(self, name, importlib.import_module(f"supertropical.{name}"))
        self.cli = importlib.import_module("supertropical.cli") if with_cli else None


def purge():
    for name in [n for n in sys.modules if n == "supertropical" or n.startswith("supertropical.")]:
        del sys.modules[name]


def import_fresh(with_cli):
    purge()
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    return Lib(with_cli)


def build(workload, lib, seed, rounds, workdir, fixtures):
    """The seeded operations of every round; ``cli`` records its fixture
    files in ``fixtures`` (path -> text) for ``write_fixtures``."""
    make = workloads.WORKLOADS[workload]
    ops, errors = [], []
    for r in range(rounds):
        rng = random.Random(f"{workload}/{seed}/{r}")
        args = (lib, rng, r, workdir, fixtures) if workload == "cli" else (lib, rng, r)
        o, e = make(*args)
        ops += o
        errors += e
    return ops, errors


def write_fixtures(fixtures):
    for path, text in fixtures.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class Intervals:
    """Measured intervals, kept in flat arrays (``small_batch`` times
    240,000 operations): thread-time bounds ``t0``/``t1``, thread CPU time
    without the probes (``cpu``) and wall time (``wall``), all in ns."""

    def __init__(self):
        self.t0, self.t1, self.cpu, self.wall = (array.array("q") for _ in range(4))

    def add(self, t0, t1, cpu, wall):
        self.t0.append(t0)
        self.t1.append(t1)
        self.cpu.append(cpu)
        self.wall.append(wall)

    def __len__(self):
        return len(self.cpu)

    def scaled(self, speed):
        """Each CPU time scaled by the probes around its interval."""
        return array.array("d", (c * speed.factor(a, b) for a, b, c in zip(self.t0, self.t1, self.cpu)))


def setup(workload, seed, rounds, workdir, speed):
    """Import, generate, write as text and parse back, SETUP_REPEATS
    times, each from a collected heap; then write the fixture files.
    Returns the repetitions' Intervals and the last repetition's result."""
    reps = Intervals()
    for _ in range(SETUP_REPEATS):
        lib = ops = errors = fixtures = None
        gc.collect()
        fixtures = {}
        w0 = time.perf_counter_ns()
        t0 = time.thread_time_ns()
        s0 = speed.spent_ns
        lib = import_fresh(workload == "cli")
        ops, errors = build(workload, lib, seed, rounds, workdir, fixtures)
        s1 = speed.spent_ns
        t1 = time.thread_time_ns()
        reps.add(t0, t1, t1 - t0 - (s1 - s0), time.perf_counter_ns() - w0)
    write_fixtures(fixtures)
    return reps, lib, ops, errors


def run_ops(ops, passes, speed=None, tracer=None, check=True):
    """Run the operations in order, ``passes`` times.  Returns the
    Intervals of the completed operations (``cpu`` without the probes of
    ``speed``), a list of failures and per-class statistics (latencies as
    indices into the Intervals).  With ``check=False`` outputs are not
    checked and the kept faults count as failed."""
    done = Intervals()
    failures = []
    by_class = {}
    first = {}
    for op_id, op in ((i, op) for _ in range(passes) for i, op in enumerate(ops)):
        snap = None
        if tracer is not None:
            tracer.op_id = op_id
            if op.deadline is not None:
                snap = tracer.snapshot()
            tracer.active = True
        error = None
        out = None
        if op.deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
        w0 = time.perf_counter_ns()
        t0 = time.thread_time_ns()
        s0 = speed.spent_ns if speed else 0
        try:
            out = op.run()
        except Deadline:
            error = f"stopped at the {op.deadline} s deadline"
        except Exception as exc:  # a library error fails this operation only
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if op.deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        s1 = speed.spent_ns if speed else 0
        t1 = time.thread_time_ns()
        w1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = False
            if snap is not None and error is not None:
                tracer.restore(snap)
        c0 = time.perf_counter_ns()
        if error is None and not check and op.fault:
            error = "kept fault, not checked"
        if check and error is None and not (op_id in first and first[op_id] == out):
            try:
                error = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is None and passes > 1:
                first[op_id] = out
        stat = by_class.setdefault(op.cls, [0, 0, array.array("l"), [], 0])
        stat[4] += time.perf_counter_ns() - c0
        stat[0] += 1
        if op.size is not None:
            stat[3].append(op.size)
        if error is None:
            stat[2].append(len(done))
            done.add(t0, t1, t1 - t0 - (s1 - s0), w1 - w0)
        else:
            stat[1] += 1
            failures.append((op.cls, error, op.fault))
    return done, failures, by_class


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def summarize(latencies):
    lat = sorted(latencies)
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_p90_ms": nearest_rank(lat, 0.9) / 1e6,
    }


def class_table(by_class):
    rows = {}
    for cls, (attempted, failed, lat, sizes, check_ns) in by_class.items():
        lat = sorted(lat)
        rows[cls] = {
            "attempted": attempted,
            "failed": failed,
            "median_ms": statistics.median(lat) / 1e6 if lat else None,
            "max_ms": lat[-1] / 1e6 if lat else None,
            "sum_s": sum(lat) / 1e9,
            "check_s": check_ns / 1e9,
        }
        if sizes:
            rows[cls]["grid_min_median_max"] = [min(sizes), statistics.median(sizes), max(sizes)]
    return rows


def report_failures(failures):
    for cls, why, fault in failures:
        tag = "kept fault" if fault else "FAILED"
        print(f"{tag}: {cls}: {why}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "supertropical", "__init__.py")):
        parser.exit(2, "error: run from a checkout that has src/supertropical\n")

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    workdir = os.path.join(OUT, f"fixtures-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        result = traced(args, rounds, workdir) if args.trace else untraced(args, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced(args, rounds, workdir):
    """Timed set-up, then every operation with its check; end-to-end
    metrics, with times scaled to the nominal host speed (``speed.py``)."""
    speed = Speed()
    speed.start()
    try:
        reps, lib, ops, setup_errors = setup(args.workload, args.seed, rounds, workdir, speed)
        gc.collect()
        gc.freeze()
        done, failures, by_class = run_ops(ops, PASSES[args.workload], speed)
    finally:
        speed.stop()
    latencies = done.scaled(speed)
    m = summarize(latencies)
    metrics = {
        "setup_s": (statistics.median(reps.scaled(speed)) / 1e9, "s"),
        "ops_per_s": (m["ops_per_s"], "1/s"),
        "latency_p50_ms": (m["latency_p50_ms"], "ms"),
        "latency_p90_ms": (m["latency_p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    result = {
        "correct": not setup_errors and all(f[2] for f in failures),
        "attempted": len(ops) * PASSES[args.workload],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for stat in by_class.values():
        stat[2] = array.array("d", (latencies[i] for i in stat[2]))
    detail = {"rounds": rounds, "completed": len(done), "timed_s": sum(latencies) / 1e9,
              "raw_cpu": {"setup_s": statistics.median(reps.cpu) / 1e9, **summarize(done.cpu)},
              "wall": {"setup_s": statistics.median(reps.wall) / 1e9, **summarize(done.wall)},
              "speed": speed.summary(),
              "classes": class_table(by_class), "setup_errors": setup_errors}
    for cls, row in sorted(detail["classes"].items()):
        print(f"{cls:32s} {row['attempted']:6d} ops {row['failed']:3d} failed"
              f"  median {row['median_ms'] or 0:9.3f} ms  sum {row['sum_s']:8.3f} s"
              f"  checks {row['check_s']:7.3f} s",
              file=sys.stderr)
    report_failures(failures)
    for e in setup_errors:
        print(f"SETUP: {e}", file=sys.stderr)
    if len(done) < 100:
        print("warning: fewer than 100 completed operations; p90 has "
              "fewer than ten samples beyond it", file=sys.stderr)
    write_result(args, result, detail)
    return result


def traced(args, rounds, workdir):
    """One untraced pass for the overhead baseline, then a traced pass over
    the same operations with set-up traced too."""
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        lib = import_fresh(with_cli=True)
        imports.append(time.perf_counter() - t0)
    fixtures = {}
    ops, _ = build(args.workload, lib, args.seed, rounds, workdir, fixtures)
    write_fixtures(fixtures)
    # the traced pass checks the same outputs
    base_done = run_ops(ops, PASSES[args.workload], check=False)[0]
    base = summarize(base_done.cpu)["ops_per_s"]

    tracer = Tracer()
    tracer.values["cli.import_s"] = statistics.median(imports)
    tracer.install(lib.package)
    tracer.active = True
    ops, setup_errors = build(args.workload, lib, args.seed, rounds, workdir, {})
    tracer.active = False
    gc.collect()
    gc.freeze()
    done, failures, by_class = run_ops(ops, PASSES[args.workload], tracer=tracer)
    for stat in by_class.values():
        stat[2] = array.array("q", (done.cpu[i] for i in stat[2]))
    traced_ops = summarize(done.cpu)["ops_per_s"]
    overhead = {"traced_ops_per_s": traced_ops, "untraced_ops_per_s": base,
                "slowdown": base / traced_ops}
    print("trace overhead: " + json.dumps(overhead))
    if tracer.absent:
        print("trace: absent (reported as 0): " + ", ".join(tracer.absent))
    report_failures(failures)
    result = {
        "correct": not setup_errors and all(f[2] for f in failures),
        "attempted": len(ops) * PASSES[args.workload],
        "failed": len(failures),
        "metrics": tracer.metrics(),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(
        os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "rounds": rounds,
         "ops": [op.cls for op in ops], "overhead": overhead},
    )
    write_result(args, result, {"rounds": rounds, "overhead": overhead,
                                "classes": class_table(by_class)})
    return result


def write_result(args, result, detail):
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), **result, **detail}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
