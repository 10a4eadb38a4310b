"""The repository's measurement tools, on copies of the sources."""

import importlib.util
import random
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_names_a_checkout_without_git_by_its_sources(tmp_path):
    # a copy without .git, as git archive makes one, gets an id from its
    # src/; a second copy of the same sources gets the same id, compiled
    # caches do not count, and a changed source file changes it
    commit = _tool("bench_pairs")._commit
    ignore = shutil.ignore_patterns("__pycache__")
    a, b = tmp_path / "a", tmp_path / "b"
    for copy in (a, b):
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
    (b / "src" / "supertropical" / "__pycache__").mkdir()
    (b / "src" / "supertropical" / "__pycache__" / "x.pyc").write_bytes(b"\0")
    got = commit(str(a))
    assert got is not None and got.startswith("src:") and len(got) == 16
    assert set(got[4:]) <= set("0123456789abcdef"), got
    assert commit(str(b)) == got
    with open(b / "src" / "supertropical" / "__init__.py", "a") as f:
        f.write("\n")
    assert commit(str(b)) != got


def test_every_sweep_row_builds_its_smallest_input():
    # built, not run: a row's draws may take seconds each
    sweep = _tool("size_sweep")
    import supertropical as st

    for search, sizes, _ in sweep.ROWS:
        size = min(sizes)
        call = sweep._call(st, search, size, random.Random(f"{search}/{size}/0"))
        assert callable(call), search
