"""The repository's measurement tools, on copies of the sources."""

import importlib.util
import json
import random
import shutil
import statistics
import subprocess
import types
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


def test_bench_pairs_names_uncommitted_sources_beside_the_commit(tmp_path):
    # a git checkout whose src/ matches its commit gets the short commit;
    # one with a changed or an added source file also gets the id that
    # a copy of those sources without .git gets
    commit = _tool("bench_pairs")._commit
    repo, bare = tmp_path / "repo", tmp_path / "bare"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", repo / "src", ignore=ignore)
    (repo / "NOTES").write_text("outside src\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "x"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    (repo / "NOTES").write_text("changed outside src\n")
    assert commit(str(repo)) == head
    with open(repo / "src" / "supertropical" / "__init__.py", "a") as f:
        f.write("\n")
    shutil.copytree(repo / "src", bare / "src")
    got = commit(str(repo))
    assert got == f"{head}+{commit(str(bare))}", got
    (repo / "src" / "supertropical" / "extra.py").write_text("")
    assert commit(str(repo)) not in (head, got)


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


def test_sweep_times_cold_calls_and_saturates_the_built_draws():
    # the chain grids and the dual's row matrices are emptied before a
    # timed call, and a library that keeps neither is left as it is;
    # saturate_built saturates the witness of depends_on_built's draw
    sweep = _tool("size_sweep")
    import supertropical as st
    from supertropical import dependence, dual

    seed = f"{sweep.SEED_OF['saturate_built']}/4/0"
    w = sweep._call(st, "depends_on_built", 4, random.Random(seed))()
    assert len(w.support) == 4
    s = sweep._call(st, "saturate_built", 4, random.Random(seed))()
    assert s.support == w.support and s.target == w.target
    assert dependence._chain_candidates.cache_info().currsize
    st.dual_base([st.Vec([st.Scalar(0)])])
    assert dual._shared.cache_info().currsize
    sweep._cold(st)
    assert dependence._chain_candidates.cache_info().currsize == 0
    assert dual._shared.cache_info().currsize == 0
    kept_by_none = types.SimpleNamespace(dependence=types.SimpleNamespace(
        _chain_candidates=lambda rows, tvals: None))
    sweep._cold(kept_by_none)


def test_sweep_alternates_the_side_that_runs_first(tmp_path, monkeypatch):
    # one child per side per draw, one after the other, the parent first
    # on the first draw and the change first on the next; each side's
    # rows keep the order of ROWS, each row its draws in order, and each
    # row's ratio pairs the draws that finished on both sides
    sweep = _tool("size_sweep")
    calls = []
    timed = {"parent": 1.0, "change": 2.0}

    def side(root, search, size, draw):
        name = Path(root).name
        calls.append((name, search, size, draw))
        over = name == "change" and draw == 1
        return {"time_s": None if over else timed[name] + draw, "unique": draw < 2}

    monkeypatch.setattr(sweep, "_side", side)
    parent, change = tmp_path / "parent", tmp_path / "change"
    out = tmp_path / "sweep.json"
    assert sweep.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out)]) == 0
    draws = [(search, size, d) for search, sizes, fixed in sweep.ROWS
             for size in sizes for d in range(fixed or sweep.DRAWS)]
    assert calls == [
        (side, *draw)
        for k, draw in enumerate(draws)
        for side in (("change", "parent") if k % 2 else ("parent", "change"))
    ]
    doc = json.loads(out.read_text())
    sizes = [(search, size) for search, sizes, _ in sweep.ROWS for size in sizes]
    for name, t in timed.items():
        rows = doc["rows"][name]
        assert [(r["search"], r["size"]) for r in rows] == sizes
        for r in rows:
            want = [None if name == "change" and d == 1 else t + d for d in range(r["draws"])]
            assert r["times_s"] == want, r
            assert r["over_cap"] == want.count(None), r
            assert ("unique" in r) == (r["search"] in sweep.SQUARE), r
            if "unique" in r:
                assert r["unique"] == 2, r
    assert [(r["search"], r["size"]) for r in doc["ratios"]] == sizes
    for r, row in zip(doc["ratios"], doc["rows"]["parent"]):
        # draw 1 is over the cap on the change's side
        want = [(2.0 + d) / (1.0 + d) for d in range(row["draws"]) if d != 1]
        assert r["ratio"] == statistics.median(want), r
