"""The repository's measurement tools, on copies of the sources."""

import importlib.util
import json
import random
import shutil
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "seeds",
    [["--seeds", "3001-4"], ["--seeds", "3001", "--traced", "cli", "--trace-seed", "3011-3"],
     ["--seeds", "3001-3005-3010"], ["--seeds", "3001,x"]],
    ids=["seeds", "trace-seed", "two-dashes", "not-an-int"],
)
def test_bench_pairs_rejects_seed_lists_that_name_no_seed(tmp_path, capsys, seeds):
    # a range whose end is below its start, or a malformed one, is a
    # usage error, before any run and before the summary is written
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path),
            "--workloads", "cli", "--seconds", "1", "--out", str(out), *seeds]
    with pytest.raises(SystemExit) as exc:
        _tool("bench_pairs").main(argv)
    assert exc.value.code == 2
    assert "must each name at least one seed" in capsys.readouterr().err
    assert not out.exists()


def test_every_sweep_row_builds_its_smallest_input():
    # built, not run: a row's draws may take seconds each
    sweep = _tool("size_sweep")
    import supertropical as st

    for search, sizes, _ in sweep.ROWS:
        size = min(sizes)
        call = sweep._call(st, search, size, random.Random(f"{search}/{size}/0"))
        assert callable(call), search


def test_sweep_alternates_the_side_that_runs_first(tmp_path, monkeypatch):
    # one child per side per search, the parent first on the first
    # search and the change first on the next; each side's rows keep
    # the order of ROWS
    sweep = _tool("size_sweep")
    calls = []

    def side(root, search):
        calls.append((Path(root).name, search))
        return [{"search": search, "side": Path(root).name}]

    monkeypatch.setattr(sweep, "_side", side)
    parent, change = tmp_path / "parent", tmp_path / "change"
    out = tmp_path / "sweep.json"
    assert sweep.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out)]) == 0
    searches = [search for search, _, _ in sweep.ROWS]
    assert calls == [
        (side, search)
        for k, search in enumerate(searches)
        for side in (("change", "parent") if k % 2 else ("parent", "change"))
    ]
    rows = json.loads(out.read_text())["rows"]
    for name in ("parent", "change"):
        assert rows[name] == [{"search": s, "side": name} for s in searches]
