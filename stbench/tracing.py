"""Outside-in tracing of the supertropical package.

Nothing in the package is edited.  The tracer replaces, at run time,

* each public function of the per-layer table in its defining module and
  in every package module that bound the same object by name (so
  ``bilinear.permanent`` and ``dual.nabla`` are traced as
  ``matrices.permanent`` and ``matrices.nabla``), and
* ``Scalar.__add__``, ``Scalar.__mul__``, ``Scalar.__init__`` and
  ``Mat.__init__``, which are counted.

A span is ``(name, start_ns, end_ns, parent span index, operation id)``.
Spans are kept in memory and written out by :meth:`Tracer.dump`.  A
span's self time is its duration minus the time covered by its child
spans; ``scalar_ops`` counts the Scalar additions and multiplications
made while the span was open, nested spans included.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# (defining module, public name) for every spanned function.
SPANNED = [
    ("matrices", "Mat.__init__"),
    ("matrices", "permanent"),
    ("matrices", "adjoint"),
    ("matrices", "nabla"),
    ("matrices", "quasi_identity"),
    ("dependence", "rank"),
    ("dependence", "d_base"),
    ("dependence", "depends_on"),
    ("dependence", "is_dependent"),
    ("dependence", "saturate"),
    ("dependence", "saturate_by_sup"),
    ("dependence", "annihilator_set"),
    ("span", "spans"),
    ("span", "s_base"),
    ("span", "is_critical"),
    ("dual", "close_base"),
    ("dual", "dual_base"),
    ("dual", "reconstruct"),
    ("bilinear", "gram_of_dot"),
    ("bilinear", "gram_dependence"),
    ("bilinear", "is_orthogonal_symmetric"),
    ("bilinear", "is_supertropically_symmetric"),
    ("textio", "parse_matrix"),
    ("cli", "main"),
]

# Metric name -> unit: the ``per_layer`` metrics of BENCHMARK.json.
PER_LAYER = {
    "scalars.add.calls": "count",
    "scalars.mul.calls": "count",
    "scalars.Scalar.calls": "count",
    "matrices.Mat.calls": "count",
    "matrices.Mat.self_s": "s",
    "matrices.permanent.calls": "count",
    "matrices.permanent.self_s": "s",
    "matrices.permanent.scalar_ops": "count",
    "matrices.adjoint.self_s": "s",
    "matrices.nabla.self_s": "s",
    "matrices.quasi_identity.self_s": "s",
    "dependence.rank.self_s": "s",
    "dependence.rank.scalar_ops": "count",
    "dependence.d_base.self_s": "s",
    "dependence.depends_on.self_s": "s",
    "dependence.depends_on.scalar_ops": "count",
    "dependence.is_dependent.self_s": "s",
    "dependence.is_dependent.scalar_ops": "count",
    "dependence.saturate.self_s": "s",
    "dependence.saturate_by_sup.self_s": "s",
    "dependence.annihilator_set.self_s": "s",
    "span.spans.self_s": "s",
    "span.s_base.self_s": "s",
    "span.is_critical.self_s": "s",
    "dual.close_base.self_s": "s",
    "dual.dual_base.self_s": "s",
    "dual.reconstruct.self_s": "s",
    "bilinear.gram_dependence.self_s": "s",
    "bilinear.is_orthogonal_symmetric.self_s": "s",
    "bilinear.is_supertropically_symmetric.self_s": "s",
    "textio.parse_matrix.calls": "count",
    "textio.parse_matrix.self_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
}

_SPAN_ALIAS = {"matrices.Mat.__init__": "matrices.Mat"}


class Tracer:
    """Span and counter store for one run.  ``active`` is False while the
    benchmark checks results, so checks add nothing to the numbers."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []
        self._stack = []
        self._counts = [0, 0, 0]  # Scalar add, mul, __init__
        self.stats = {}  # span name -> [calls, self_ns, scalar_ops]
        self.absent = []
        self.values = {}

    # -- installation --------------------------------------------------

    def install(self, package):
        """Wrap the traced names of an imported package in place."""
        mods = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if mod is not None
            and (name == package.__name__ or name.startswith(package.__name__ + "."))
        }
        mods[""] = package
        for modname, attr in SPANNED:
            key = _SPAN_ALIAS.get(f"{modname}.{attr}", f"{modname}.{attr}")
            self.stats[key] = [0, 0, 0]
            owner = mods.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                setattr(cls, meth, self._spanned(key, fn))
                continue
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._spanned(key, fn)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
        scalar_cls = getattr(mods.get("scalars"), "Scalar", None)
        if scalar_cls is None:
            self.absent.append("scalars.Scalar")
            return
        for slot, meth in enumerate(("__add__", "__mul__", "__init__")):
            fn = getattr(scalar_cls, meth, None)
            if fn is None:
                self.absent.append(f"scalars.Scalar.{meth}")
                continue
            setattr(scalar_cls, meth, self._counted(slot, fn))

    def _counted(self, slot, fn):
        counts = self._counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                counts[slot] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, key, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        counts = self._counts
        stat = self.stats[key]

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0, counts[0] + counts[1]]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (key, start, end, parent, tracer.op_id)
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[1]
                stat[2] += counts[0] + counts[1] - frame[2]
                if stack:
                    stack[-1][1] += dur

        return spanned

    # -- operation boundaries ------------------------------------------

    def snapshot(self):
        return (
            len(self.spans),
            list(self._counts),
            {k: list(v) for k, v in self.stats.items()},
        )

    def restore(self, snap):
        """Forget everything recorded since the snapshot (used for an
        attempt stopped at its deadline, whose partial work varies)."""
        n, counts, stats = snap
        del self.spans[n:]
        del self._stack[:]
        self._counts[:] = counts
        for k, v in stats.items():
            self.stats[k][:] = v

    # -- results -------------------------------------------------------

    def metrics(self):
        add, mul, init = self._counts
        found = {
            "scalars.add.calls": add,
            "scalars.mul.calls": mul,
            "scalars.Scalar.calls": init,
            "cli.import_s": self.values.get("cli.import_s", 0.0),
        }
        for key, (calls, self_ns, ops) in self.stats.items():
            found[f"{key}.calls"] = calls
            found[f"{key}.self_s"] = self_ns / 1e9
            found[f"{key}.scalar_ops"] = ops
        return {
            name: {"value": found.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "absent": self.absent,
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
