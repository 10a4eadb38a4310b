"""End-to-end command line tests.

Most cases drive ``main`` in process and read captured stdout; one
runs every subcommand in text and JSON mode against the pinned
transcript ``tests/cli_golden.out``.  Two smoke tests run the console
script declared in ``pyproject.toml`` and ``python -m supertropical``
as subprocesses against the checkout, a third runs
``demos/cli_tour.sh`` against its pinned transcript, and each Python
demo runs once as a subprocess.
The math behind each command is covered by the module tests, so these
focus on wiring: argument handling, formatting, exit codes, JSON shape.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supertropical
from supertropical.cli import main

SRC_DIR = Path(supertropical.__file__).resolve().parents[1]

SUM10_INDEP = "5 5 4\n0 1 4\n0 2 4\n"
SUM10_DEP = "5 5 0\n5 5 4\n0 1 4\n"
SAT_MAT = "1 1 2\n1 1 3\n"
SPAN_MAT = "1 1\n2 3\n"
QID_MAT = "0 0v\n-inf 0\n"
REDUN = "0 -inf\n-inf 0\n5 5\n"
DIAG = "3 -inf\n-inf 1\n"


@pytest.fixture
def cli(tmp_path, capsys):
    """Returns a runner: cli(argv, **files) writes each file into a
    temp dir (bytes as they are), substitutes its path for the bare name in argv, runs
    main, and hands back (exit_code, stdout_lines)."""

    def run(argv, **files):
        paths = {}
        for name, text in files.items():
            p = tmp_path / f"{name}.txt"
            if isinstance(text, bytes):
                p.write_bytes(text)
            else:
                p.write_text(text)
            paths[name] = str(p)
        argv = [paths.get(a, a) for a in argv]
        rc = main(argv)
        out = capsys.readouterr().out
        return rc, out.splitlines()

    return run


class TestScalarAndMatrixCommands:
    def test_det_tangible(self, cli):
        rc, out = cli(["det", "m"], m=SUM10_INDEP)
        assert (rc, out) == (0, ["11"])

    def test_det_ghost(self, cli):
        rc, out = cli(["det", "m"], m=SUM10_DEP)
        assert (rc, out) == (0, ["14v"])

    def test_det_json(self, cli):
        rc, out = cli(["det", "--json", "m"], m=SUM10_INDEP)
        assert rc == 0
        assert json.loads(out[0]) == {
            "kind": "scalar",
            "value": {"ghost": False, "v": "11"},
        }

    def test_adj_fixed_point(self, cli):
        rc, out = cli(["adj", "m"], m=QID_MAT)
        assert (rc, out) == (0, ["0 0v", "-inf 0"])

    def test_nabla_singular_exits_1(self, cli):
        rc, out = cli(["nabla", "m"], m=SUM10_DEP)
        assert (rc, out) == (1, ["error: singular matrix"])

    def test_qid_both_sides(self, cli):
        rc, out = cli(["qid", "m"], m=SUM10_INDEP)
        assert rc == 0
        assert out == ["0 3v 3v", "-5v 0 -1v", "-5v 0v 0"]
        rc, out = cli(["qid", "m", "--right"], m=SUM10_INDEP)
        assert rc == 0
        assert out == ["0 0v 2v", "-2v 0 2v", "-4v -3v 0"]

    def test_rank(self, cli):
        rc, out = cli(["rank", "m"], m=SUM10_DEP)
        assert (rc, out) == (0, ["2"])


class TestWitnessCommands:
    def test_dep_witness(self, cli):
        rc, out = cli(["dep", "m"], m=SUM10_DEP)
        assert (rc, out) == (0, ["support: 0 1 2", "coeffs: 0 0 0"])

    def test_dep_none(self, cli):
        rc, out = cli(["dep", "m"], m=SPAN_MAT)
        assert (rc, out) == (0, ["none"])

    def test_dep_target(self, cli):
        rc, out = cli(["dep", "m", "--target", "v"], m=SPAN_MAT, v="4 5\n")
        assert (rc, out) == (0, ["support: 1", "coeffs: 2"])

    def test_saturate(self, cli):
        rc, out = cli(
            ["saturate", "m", "--target", "v"], m=SAT_MAT, v="0 1 3\n"
        )
        assert (rc, out) == (0, ["support: 0 1", "coeffs: 0 0"])

    def test_span_witness_with_surplus_line(self, cli):
        rc, out = cli(["span", "m", "--target", "v"], m=SPAN_MAT, v="4 5\n")
        assert rc == 0
        assert out == ["support: 0 1", "coeffs: 2 2", "ghost: -inf -inf"]

    def test_span_json_schema(self, cli):
        rc, out = cli(
            ["span", "--json", "m", "--target", "v"], m=SPAN_MAT, v="4 5\n"
        )
        doc = json.loads(out[0])
        assert doc["kind"] == "witness"
        assert doc["witness"]["support"] == [0, 1]
        assert doc["witness"]["ghost"] == [
            {"ghost": False, "v": "-inf"},
            {"ghost": False, "v": "-inf"},
        ]


class TestBaseCommands:
    def test_sbase_drops_redundant_row(self, cli):
        rc, out = cli(["sbase", "m"], m=REDUN)
        assert rc == 0
        assert out == ["indices: 0 1", "0 -inf", "-inf 0"]

    def test_sbase_keeps_ghost_variants(self, cli):
        rc, out = cli(["sbase", "m"], m="1 1\n1v 1\n1 1v\n")
        assert rc == 0
        assert out == ["indices: 0 1 2", "0 0", "0v 0", "0 0v"]

    def test_critical_listing_and_single(self, cli):
        rc, out = cli(["critical", "m"], m=REDUN)
        assert (rc, out) == (0, ["indices: 0 1"])
        rc, out = cli(["critical", "m", "--index", "2"], m=REDUN)
        assert (rc, out) == (0, ["false"])

    def test_dbase_default_and_order(self, cli):
        rc, out = cli(["dbase", "m"], m=SUM10_DEP)
        assert (rc, out) == (0, ["indices: 0 1", "rank: 2"])
        rc, out = cli(["dbase", "m", "--order", "2,3,1"], m=SUM10_DEP)
        assert (rc, out) == (0, ["indices: 1 2", "rank: 2"])

    def test_dbase_rejects_bad_order(self, cli):
        rc, out = cli(["dbase", "m", "--order", "9,1"], m=SUM10_DEP)
        assert rc == 2
        assert "permutation of 1..3" in out[0]

    def test_thick(self, cli):
        rc, out = cli(["thick", "a", "b"], a=SUM10_DEP, b=SUM10_INDEP)
        assert (rc, out) == (0, ["false"])

    def test_changebase_success(self, cli):
        rc, out = cli(["changebase", "a", "b"], a=DIAG, b="-inf 4\n7 -inf\n")
        assert (rc, out) == (0, ["-inf 3", "4 -inf"])

    def test_changebase_failure_exits_1(self, cli):
        rc, out = cli(["changebase", "a", "b"], a=DIAG, b="0 1\n1 0\n")
        assert rc == 1
        assert out[0].startswith("error: ")

    def test_dual_covectors(self, cli):
        rc, out = cli(["dual", "m"], m=QID_MAT)
        assert (rc, out) == (0, ["0 0v", "-inf 0"])

    def test_dual_requires_closed_base(self, cli):
        rc, out = cli(["dual", "m"], m="0 0\n-inf 0\n")
        assert rc == 1
        assert "not closed" in out[0]


class TestFormCommands:
    def test_gram(self, cli):
        rc, out = cli(["gram", "m"], m=SUM10_DEP)
        assert rc == 0
        assert out == ["10v 10v 6", "10v 10v 8", "6 8 8"]

    def test_orthosym_violation_with_witness(self, cli):
        rc, out = cli(["orthosym", "m"], m="0 1\n3 0\n")
        assert rc == 0
        assert out == ["violated", "x: 0 -4", "y: 0 -3"]

    def test_orthosym_consistent(self, cli):
        rc, out = cli(["orthosym", "m"], m="0 1\n1 0\n")
        assert (rc, out) == (0, ["consistent"])

    def test_orthosym_supertropical_flag(self, cli):
        rc, out = cli(["orthosym", "m", "--supertropical"], m="0 1\n1v 0\n")
        assert rc == 0
        assert out == ["violated", "x: 0 -inf", "y: -inf 0"]

    def test_orthosym_json_reports_samples(self, cli):
        rc, out = cli(
            ["orthosym", "--json", "m", "--budget", "5", "--seed", "3"],
            m="0 1\n3 0\n",
        )
        doc = json.loads(out[0])
        assert doc["value"]["consistent"] is False
        assert doc["value"]["samples"] == 5

    def test_seeded_runs_are_reproducible(self, cli):
        argv = ["orthosym", "--json", "m", "--budget", "25", "--seed", "7"]
        _, out1 = cli(argv, m="0 1\n1 0\n")
        _, out2 = cli(argv, m="0 1\n1 0\n")
        assert out1 == out2

    def test_isotropy(self, cli):
        rc, out = cli(["isotropy", "m", "v"], m="0 1\n1 0\n", v="0 -inf\n")
        assert (rc, out) == (0, ["nonisotropic"])


class TestOracleCommands:
    def test_oracle_det(self, cli):
        rc, out = cli(["oracle", "det", "m"], m=SUM10_INDEP)
        assert (rc, out) == (0, ["11"])

    def test_oracle_dep(self, cli):
        rc, out = cli(["oracle", "dep", "m"], m=SPAN_MAT)
        assert (rc, out) == (0, ["none"])

    def test_oracle_satcheck(self, cli):
        rc, out = cli(
            [
                "oracle", "satcheck", "m",
                "--target", "v", "--support", "0,1", "--coeffs", "0,0",
            ],
            m=SAT_MAT,
            v="0 1 3\n",
        )
        assert (rc, out) == (0, ["true"])

    def test_oracle_satcheck_missing_args(self, cli):
        rc, out = cli(
            ["oracle", "satcheck", "m", "--target", "v"],
            m=SAT_MAT,
            v="0 1 3\n",
        )
        assert rc == 2
        assert "needs --support and --coeffs" in out[0]


class TestErrorHandling:
    def test_parse_error_reports_position(self, cli):
        rc, out = cli(["det", "m"], m="1 2\n3 oops\n")
        assert rc == 2
        assert out == ["error: line 2, column 3: bad scalar token 'oops'"]

    def test_coeffs_item_with_inner_blank_is_rejected(self, cli):
        # "1 2" is two tokens, not the coefficient 12
        rc, out = cli(
            ["oracle", "satcheck", "m", "--support", "0,1", "--coeffs", "0,1 2"],
            m="1 2\n3 4\n",
        )
        assert (rc, out) == (2, ["error: whitespace inside scalar text '1 2'"])

    def test_missing_file(self, cli):
        rc, out = cli(["det", "no-such-file.txt"])
        assert rc == 2
        assert out[0].startswith("error: cannot read")

    @pytest.mark.parametrize(
        "argv, files, rc, first",
        [
            (["critical", "m", "--index", "5"], {"m": REDUN},
             2, "error: row index 5 out of range for 3 rows"),
            (["det", "m"], {"m": b"1 2\n3 \xff\n"},
             2, "error: cannot read {tmp}/m.txt: not UTF-8 at byte 6"),
            (["oracle", "satcheck", "m", "--support", "x", "--coeffs", "0"],
             {"m": "1 2\n3 4\n"}, 2, "error: bad support 'x'"),
            (["oracle", "satcheck", "m", "--support", "5", "--coeffs", "0"],
             {"m": "1 2\n3 4\n"}, 2, "error: row index 5 out of range for 2 rows"),
            (["oracle", "satcheck", "m", "--support", "-1", "--coeffs", "0"],
             {"m": "1 2\n3 4\n"}, 2, "error: row index -1 out of range for 2 rows"),
            (["oracle", "satcheck", "m", "--support", "0", "--coeffs", "0"],
             {"m": "1 2\n3 4\n"}, 1, "error: not a valid dependence witness"),
            (["oracle", "satcheck", "m", "--target", "v",
              "--support", "0", "--coeffs", "0"],
             {"m": "1 2\n3 4\n", "v": "0 1 3\n"},
             1, "error: target dimension mismatch"),
        ],
        ids=[
            "critical-index-out-of-range",
            "non-utf8-file",
            "satcheck-support-not-an-int",
            "satcheck-support-out-of-range",
            "satcheck-support-negative",
            "satcheck-not-a-dependence",
            "satcheck-target-dimension",
        ],
    )
    def test_bad_input_is_reported(self, cli, tmp_path, argv, files, rc, first):
        """Bad input gives an error line and exit 2 (or 1 for an input
        that parses but is not a dependence), never a traceback."""
        got_rc, out = cli(argv, **files)
        assert (got_rc, out[0]) == (rc, first.format(tmp=tmp_path))


def _checkout_env(bin_dir=None):
    """Environment for a child process that imports this checkout's
    package rather than any installed copy; ``bin_dir`` goes first on
    PATH when given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(
            filter(None, [str(bin_dir), env.get("PATH")])
        )
    return env


def test_console_script(tmp_path):
    """Writes the launcher an installer would generate for the
    ``supertropical`` entry of ``[project.scripts]`` and runs it by
    name from PATH."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC_DIR.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, func = scripts["supertropical"].split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "supertropical"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    m = tmp_path / "m.txt"
    m.write_text(SUM10_INDEP)
    r = subprocess.run(
        ["supertropical", "det", str(m)],
        capture_output=True,
        text=True,
        env=_checkout_env(bin_dir),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "11", r.stderr


def test_cli_tour_transcript():
    """``demos/cli_tour.sh`` prints ``demos/cli_tour.out`` byte for byte."""
    demos = SRC_DIR.parent / "demos"
    r = subprocess.run(
        ["sh", str(demos / "cli_tour.sh")],
        capture_output=True,
        env=_checkout_env(),
    )
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout == (demos / "cli_tour.out").read_bytes()


@pytest.mark.parametrize(
    "demo", sorted((SRC_DIR.parent / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(demo):
    """Each Python demo runs against the checkout without error output."""
    r = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env=_checkout_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


def test_module_runner(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text(SUM10_DEP)
    r = subprocess.run(
        [sys.executable, "-m", "supertropical", "det", str(m)],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "14v", r.stderr


GOLDEN_FILES = {
    "indep": SUM10_INDEP,
    "dep": SUM10_DEP,
    "frac": "1/2 -inf 2v\n0v 3 -1/3\n1 1 1\n",
    "sat": SAT_MAT,
    "satv": "0 1 3\n",
    "far": "5 -inf -inf\n",
    "span": SPAN_MAT,
    "spanv": "4 5\n",
    "e1": "0 -inf\n",
    "qid": QID_MAT,
    "redun": REDUN,
    "variants": "1 1\n1v 1\n1 1v\n",
    "diag": DIAG,
    "antidiag": "-inf 4\n7 -inf\n",
    "open": "0 0\n-inf 0\n",
    "sym": "0 1\n1 0\n",
    "skew": "0 1\n3 0\n",
    "halfghost": "0 1\n1v 0\n",
    "bad": "1 2\n3 oops\n",
}

# Each argv runs once as written and once with --json appended.
GOLDEN_ARGVS = [
    ["det", "indep"],
    ["det", "dep"],
    ["det", "frac"],
    ["det", "bad"],
    ["det", "missing"],
    ["adj", "qid"],
    ["adj", "frac"],
    ["nabla", "indep"],
    ["nabla", "dep"],
    ["qid", "indep"],
    ["qid", "indep", "--right"],
    ["rank", "dep"],
    ["rank", "indep"],
    ["dep", "dep"],
    ["dep", "span"],
    ["dep", "span", "--target", "spanv"],
    ["dep", "span", "--target", "e1"],
    ["saturate", "sat", "--target", "satv"],
    ["saturate", "sat", "--target", "far"],
    ["span", "span", "--target", "spanv"],
    ["span", "span", "--target", "e1"],
    ["sbase", "redun"],
    ["sbase", "variants"],
    ["critical", "redun"],
    ["critical", "redun", "--index", "0"],
    ["critical", "redun", "--index", "2"],
    ["dbase", "dep"],
    ["dbase", "dep", "--order", "2,3,1"],
    ["dbase", "dep", "--order", "9,1"],
    ["thick", "dep", "indep"],
    ["thick", "indep", "indep"],
    ["changebase", "diag", "antidiag"],
    ["changebase", "diag", "sym"],
    ["dual", "qid"],
    ["dual", "open"],
    ["gram", "dep"],
    ["gram", "frac"],
    ["orthosym", "skew"],
    ["orthosym", "sym"],
    ["orthosym", "halfghost", "--supertropical"],
    ["orthosym", "skew", "--budget", "5", "--seed", "3"],
    ["orthosym", "sym", "--budget", "25", "--seed", "7"],
    ["isotropy", "sym", "e1"],
    ["isotropy", "skew", "spanv"],
    ["oracle", "det", "indep"],
    ["oracle", "det", "dep"],
    ["oracle", "dep", "dep"],
    ["oracle", "dep", "span"],
    ["oracle", "dep", "span", "--target", "spanv"],
    ["oracle", "satcheck", "sat", "--target", "satv",
     "--support", "0,1", "--coeffs", "0,0"],
    ["oracle", "satcheck", "dep", "--support", "0,1,2", "--coeffs", "0,0,0"],
    ["oracle", "satcheck", "sat", "--target", "satv"],
]


def _golden_transcript():
    """One ``## argv`` block per run: the header, stdout, then ``rc=N``.

    Runs from the current directory, which must hold ``GOLDEN_FILES``.
    Writing its result to ``tests/cli_golden.out`` regenerates the
    golden file after an intended output change.
    """
    blocks = []
    for argv in GOLDEN_ARGVS:
        for run in (argv, argv + ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(run)
            blocks.append(f"## {' '.join(run)}\n{out.getvalue()}rc={rc}\n")
    return "".join(blocks)


def test_cli_golden_transcript(tmp_path, monkeypatch):
    """Every subcommand's text and JSON output and exit code match
    ``tests/cli_golden.out`` byte for byte."""
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    golden = Path(__file__).with_name("cli_golden.out").read_bytes()
    assert _golden_transcript() == golden.decode("utf-8")
