"""List the lines of ``src/supertropical`` that never run under the tests.

A pytest plugin on ``sys.settrace``, standard library only.  Run it from
the root of a checkout, with ``tools`` on the path so that ``-p`` finds
it:

    PYTHONPATH=src:tools python -m pytest -p linecov -q [pytest args]

At the end of the session it prints, per module, the line numbers that
have code but never ran, then the total over all modules.  A line has
code when the compiled module attributes an instruction to it (the
``co_lines`` tables of every code object in it); a line that runs only
in a subprocess counts as never run, because the tracer does not follow
subprocesses.  The plugin only reports: it changes no test outcome and
no exit status.  Tracing slows the suite several times over.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "supertropical")

_hits: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(PACKAGE):
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _local


def _code_lines(path):
    """The line numbers that carry instructions in the module at path."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _report(write):
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(_code_lines(path) - _hits.get(path, set()))
        total += len(missed)
        if missed:
            write(f"{name}: {len(missed)} never run: {' '.join(map(str, missed))}")
    write(f"linecov: {total} lines of src/supertropical never run")


# started on import, which ``-p`` does before any test module or
# conftest imports the package
threading.settrace(_global)
sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("linecov")
    _report(terminalreporter.write_line)
