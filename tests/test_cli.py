"""The CLI contract, in one table of command lines (`RUNS`) run as
subprocesses, and `cli.run` in process.  Needs the runtime and pytest alone."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from latpack import bounds, cli, museq
from latpack.acceptance import D_TABLE

ROOT = Path(__file__).resolve().parent.parent


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, which Python's json accepts."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def run_json(capsys, argv):
    code = cli.run(argv)
    return code, strict_loads(capsys.readouterr().out)


class Run(NamedTuple):
    """A `latpack` command line, its exit code and timeout in seconds, and
    `check(outputs or the stderr line, peak RSS in MB)`, which must be true."""
    argv: str
    code: int = 0
    timeout: float = 10
    env: dict = {}
    check: Callable = None
    id: str = None


# Runs the CLI under its timeout (exit 124 past it) and writes its peak RSS in KiB to
# fd.  A process's peak RSS starts from its exec'ing parent's: not pytest's, here.
_WRAPPER = """import os, resource, subprocess, sys
fd, timeout, *argv = sys.argv[1:]
try:
    code = subprocess.run(argv, timeout=float(timeout)).returncode
except subprocess.TimeoutExpired:
    code = 124
os.write(int(fd), b"%d" % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)"""


def run_cli(row, cwd):
    """Run one row as `python -m latpack.cli`: exit 0 with strict JSON on
    stdout, or exit 1 or 2 with one stderr line and no traceback."""
    with tempfile.TemporaryFile() as peak:
        done = subprocess.run(
            [sys.executable, "-S", "-c", _WRAPPER, str(peak.fileno()), str(row.timeout),
             sys.executable, "-m", "latpack.cli", *shlex.split(row.argv)],
            cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            pass_fds=(peak.fileno(),),
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **row.env})
        peak.seek(0)
        peak_mb = int(peak.read()) / 1024
    assert done.returncode != 124, f"latpack {row.argv} ran past {row.timeout} s"
    assert done.returncode == row.code, done.stderr
    if row.code:
        assert done.stdout == "" and len(done.stderr.splitlines()) == 1, done.stderr
        assert "Traceback" not in done.stderr
        answer = done.stderr
    else:
        answer = strict_loads(done.stdout)["outputs"]
    assert row.check is None or row.check(answer, peak_mb), (answer, peak_mb)


def _readme_cli_usage():
    """The command lines of the README's "CLI usage" block, less `latpack`,
    and the `gram.json` that follows them."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI usage")[1]
    commands, gram = re.findall(r"```\n(.*?)```", section.split("\n## ")[0], re.S)
    return [line.removeprefix("latpack ") for line in commands.splitlines()], gram


README_LINES, README_GRAM = _readme_cli_usage()

RUNS = (
    Run("verify paper", check=lambda out, _: out["failed"] == 1 and [
        c["name"] for c in out["checks"] if not c["passed"]] == ["derivative at the fixed point"]),
    # the README's 3x3 gram.json: the grid search takes the generic Gram-Schmidt
    # pass and --verify certifies Lambda(s) from the closed form
    Run("approx --gram gram.json --kappa 500 --verify", check=lambda out, _: (
        out["saturation_det"] == 1 and out["verification"]["kernel_exact"] is True)),
    # Y_2's root is past the Moebius cap: refused before the first sum;
    # Y_3(1e-100) ~ 5.74e149 answers
    Run("bounds y --n 2 --x 1e-12", 2, timeout=5),
    Run("bounds y --n 3 --x 1e-100"),
    # (5, 24) is admitted by the exact ball count; the norm bounds the obstruction stream
    Run("museq greedy --mu 5 --dim 24", timeout=30),
    Run("museq obstructions --s 1,2 --mu 3 --lo 1 --hi 1e300", timeout=30),
    # mu |s|^2 = 900 = 30^2: the cutoff is decided in integers, not one below
    Run("museq obstructions --s 1,3,7,4 --mu 12 --lo 1 --hi 1",
        check=lambda out, _: out["A"] == 30),
    # sigma = hi / (mu^(n/2) V_n) is inf at 520 entries; at 600, mu^(n/2) V_n is 0.0
    *(Run(f"museq obstructions --s {'1,' * (n - 1)}1 --mu 2 --lo 1 --hi 2", 1,
          id=f"museq obstructions --s <{n} ones> --mu 2 --lo 1 --hi 2",
          check=lambda err, _: "sigma" in err) for n in (520, 600)),
    # (20000, 2) streams a long last layer over a small table; rank 10^6 is
    # refused by its Gram-Schmidt steps before the first greedy step
    Run("museq greedy --mu 20000 --dim 2", timeout=30),
    Run("museq greedy --mu 3 --dim 1000000", 2),
    # 844 ones, the largest rank check_rank admits by default: LLL starts from
    # the closed-form Gram-Schmidt data, so no O(n^3) pass runs
    Run(f"museq certify --s {'1,' * 843}1 --mu 2", id="museq certify --s <844 ones> --mu 2",
        check=lambda out, _: out["certified"] is True),
    # each pair +-v is enumerated once: 229 nodes, where the whole tree takes 450
    Run(f"lattice report --s {'1,' * 10}1", env={"LATPACK_ENUM_BUDGET": "300"},
        check=lambda out, _: out["minimum"] == 2),
    # A_150 has 11,325 minimal pairs +-v; the enumeration keeps only the least
    # (norm, witness): about 17 MB peak RSS, where keeping them all took 31 MB
    Run(f"lattice report --s {'1,' * 150}1", timeout=30, id="lattice report --s <151 ones>",
        check=lambda out, peak_mb: (out["minimum"] == 2 and out["witness"][-2:] == [1, -1]
                                    and peak_mb < 24)),
    Run("bounds y --n 2 --x -1", 1),
    Run("bounds cn --n 3 --x 0", 1),
    Run("bounds f --n 2 --x 1 --y nan", 1),
    Run("bounds f --n 2 --x inf --y 1", 1),
    Run("bounds mordell --n 3 --gamma inf", 1),
    Run("bounds mordell --n 3 --gamma 1e308", 1),
    # past the Moebius cap: refused before the first term, not after 1e6
    Run("bounds y --n 2 --x 1e-300", 2),
    Run("bounds cn --n 2 --x 1e-300", 2),
    Run("bounds theorem1 --n 3 --delta-prev 1e-10 --delta 1", 2),
    Run("bounds f --n 2 --x 1 --y 1e300", 2),
    Run("bounds theorem1 --n 3 --delta-prev 1e-300 --delta 1e300", 2),  # h underflows
    Run("theta fit --ladder 1,2,x", 1),
    Run("bounds f --n 3 --x 1e300 --y 1e10", 1),  # F overflows a float
    Run("bounds cn --n 3 --x 1e300", 1),  # F_3 at x/100 overflows
    Run("bounds y --n 25 --x 1e-30", 1),  # Y_25 lies past float range
    # 2^(n-1) overflows, or V_n underflows to 0
    *(Run(f"bounds theorem1 --n 2000 --delta-prev 0.5 --delta 0.5 --form {form}", 1)
      for form in ("center", "hermite", "density")),
    # reduced-basis Gram-Schmidt norms past float range
    Run(f"lattice report --s 1,{10**200},{10**400}", 1, id="huge-entries"),
    # usage errors are input errors
    Run("", 1, id="no arguments"),
    Run("bounds", 1),
    Run("bounds f --n x --x 1 --y 1", 1),
    Run("bounds f --n 2 --x 1", 1,
        check=lambda err, _: "the following arguments are required: --y" in err),
    Run("bounds theorem1 --n 2 --delta-prev 0.5 --delta 0.2886751 --form bogus", 1),
    Run("lattice report --bogus 1", 1),
    Run("museq certify --s 1,2 --mu 0", 1),
    Run("museq certify --s 1,2 --mu -5", 1),
    Run("bounds theorem1 --n 1 --delta-prev 0.5 --delta 0.5", 1,
        check=lambda err, _: "check_theorem1 requires n >= 2, got 1" in err),
    Run("approx --gram bool.json --kappa 10", 1),  # {"gram": [[true]]}
)
RUNS += tuple(Run(line) for line in README_LINES if line not in {row.argv for row in RUNS})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The directory the rows run in: the README's gram.json, and a bool one."""
    path = tmp_path_factory.mktemp("cli")
    (path / "gram.json").write_text(README_GRAM, encoding="utf-8")
    (path / "bool.json").write_text('{"gram": [[true]]}', encoding="utf-8")
    return path


@pytest.mark.parametrize("row", [pytest.param(r, id=r.id or r.argv) for r in RUNS if not r.code])
def test_answers_with_strict_json(row, workdir):
    run_cli(row, workdir)


class TestEnvelope:
    def test_round_trip(self, capsys):
        code, payload = run_json(capsys, ["theta", "fixpoint"])
        assert code == 0
        assert payload["command"] == "theta fixpoint"
        assert json.loads(json.dumps(payload)) == payload
        assert "version" in payload["meta"]
        assert "tolerances" in payload["meta"]

    def test_inputs_echo_parsed_options(self, capsys, tmp_path):
        _, payload = run_json(capsys, ["museq", "certify", "--s", "1,2,3,4,5", "--mu", "3"])
        assert payload["inputs"] == {"s": [1, 2, 3, 4, 5], "mu": 3}
        _, payload = run_json(capsys, ["theta", "fit"])
        assert payload["inputs"] == {"ladder": [128, 256, 512, 1024]}
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [[1.0, 0.0], [0.0, 1.0]]}))
        _, payload = run_json(capsys, ["approx", "--gram", str(path), "--kappa", "10"])
        assert payload["inputs"] == {"gram": str(path), "kappa": 10.0, "verify": False}
        _, payload = run_json(capsys, ["theta", "table", "--max-n", "4"])
        assert payload["inputs"] == {"max_n": 4}  # --csv picks a format, not an input

    def test_strict_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.bounds, "eval_F", lambda n, x, y: float("nan"))
        assert cli.run(["bounds", "f", "--n", "2", "--x", "4", "--y", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1


class TestMuseq:
    def test_greedy(self, capsys):
        code, payload = run_json(
            capsys, ["museq", "greedy", "--mu", "3", "--dim", "4"]
        )
        assert code == 0
        assert payload["outputs"]["s"] == [1, 2, 3, 4, 5]
        assert payload["outputs"]["certified"] is True

    def test_certify_pass(self, capsys):
        code, payload = run_json(
            capsys, ["museq", "certify", "--s", "1,2,3,4,5", "--mu", "3"]
        )
        assert code == 0
        assert payload["outputs"]["certified"] is True
        assert payload["outputs"]["minimum_at_least"] == 3

    def test_certify_fail(self, capsys):
        code, payload = run_json(
            capsys, ["museq", "certify", "--s", "1,1", "--mu", "3"]
        )
        assert code == 0
        assert payload["outputs"]["certified"] is False
        assert payload["outputs"]["violating_norm"] == 2

    def test_obstructions(self, capsys, monkeypatch):
        calls = []
        enumerate_ball = museq.interval_obstructions
        monkeypatch.setattr(museq, "interval_obstructions",
                            lambda *a, **kw: calls.append(a) or enumerate_ball(*a, **kw))
        code, payload = run_json(
            capsys,
            ["museq", "obstructions", "--s", "1,2", "--mu", "3",
             "--lo", "1", "--hi", "10"],
        )
        assert code == 0
        assert payload["outputs"]["obstructed"]["1"] == [1, 2]
        assert payload["outputs"]["union_size"] == 2
        assert payload["outputs"]["smallest_unobstructed"] == 3
        assert len(calls) == 1  # the ball is enumerated once


class TestLattice:
    def test_report(self, capsys):
        code, payload = run_json(capsys, ["lattice", "report", "--s", "1,2,3"])
        assert code == 0
        assert payload["outputs"]["minimum"] == 3
        assert payload["outputs"]["determinant"] == 14
        assert payload["outputs"]["witness"] == [1, 1, -1]


class TestBounds:
    def test_cn(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "cn", "--n", "3", "--x", "1.15470054"]
        )
        assert code == 0
        assert payload["outputs"]["center_density_bound"] == pytest.approx(
            0.1695, abs=5e-4
        )

    def test_cn_beats_minkowski_hlawka_at_n60(self, capsys):
        code, payload = run_json(capsys, ["bounds", "cn", "--n", "60", "--x", "2.0"])
        assert code == 0
        density = bounds.convert("hermite", "density", payload["outputs"]["C"], 60)
        assert density >= 2.0 ** (1 - 60)

    def test_f_requires_y(self, capsys):
        code = cli.run(["bounds", "f", "--n", "2", "--x", "4"])
        assert code == 1

    def test_theorem1(self, capsys):
        code, payload = run_json(
            capsys,
            ["bounds", "theorem1", "--n", "2", "--delta-prev", "0.5",
             "--delta", "0.28867513459481287"],
        )
        assert code == 0
        assert payload["outputs"]["holds"] is True
        assert abs(payload["outputs"]["residual"]) < 1e-12

    def test_mordell(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "mordell", "--n", "3", "--gamma", "1.1547005"]
        )
        assert code == 0
        assert payload["outputs"]["gamma_upper"] == pytest.approx(4.0 / 3.0, rel=1e-6)


class TestTheta:
    def test_table_rows(self, capsys):
        code, payload = run_json(capsys, ["theta", "table", "--max-n", "16"])
        assert code == 0
        rows = {row["n"]: row for row in payload["outputs"]["rows"]}
        assert rows[2]["d"] == pytest.approx(D_TABLE[2][0], abs=1e-6)
        assert rows[8]["d"] == pytest.approx(D_TABLE[8][0], abs=1e-6)
        assert rows[16]["omega_iterate"] == pytest.approx(D_TABLE[16][1], abs=1e-6)

    def test_table_csv(self, capsys):
        code = cli.run(["theta", "table", "--max-n", "4", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,omega_iterate,scaled_diff,A"
        assert len(lines) == 5

    def test_fit(self, capsys):
        code, payload = run_json(capsys, ["theta", "fit"])
        assert code == 0
        assert payload["outputs"]["c0"] == pytest.approx(23.13882534, abs=1e-4)


class TestApprox:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"n": 2, "gram": [[1.0, 0.0], [0.0, 1.0]]}))
        code, payload = run_json(
            capsys, ["approx", "--gram", str(path), "--kappa", "100"]
        )
        assert code == 0
        assert payload["outputs"]["v"] == [1, -100, 10000]
        assert abs(payload["outputs"]["saturation_det"]) == 1

    def test_verify_flag(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [[2.0, 1.0], [1.0, 2.0]]}))
        code, payload = run_json(
            capsys, ["approx", "--gram", str(path), "--kappa", "200",
                     "--verify"],
        )
        assert code == 0
        assert payload["outputs"]["verification"]["kernel_exact"] is True

    def test_bad_n_field(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"n": 3, "gram": [[1.0]]}))
        assert cli.run(["approx", "--gram", str(path), "--kappa", "10"]) == 1

    def test_verify_outside_the_grid(self, capsys, tmp_path):
        """The target's minimum is searched on a 1e-6 grid; one past float
        range, or one that rounds to 0, is refused with one line."""
        path = tmp_path / "gram.json"
        for gram in ([[1e308, 1e308], [1e308, 1.7e308]], [[1e-300]]):
            path.write_text(json.dumps({"gram": gram}))
            argv = ["approx", "--gram", str(path), "--kappa", "10", "--verify"]
            assert cli.run(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and "1e-6 grid" in err

    def test_missing_file(self, capsys):
        assert cli.run(["approx", "--gram", "/no/such/file", "--kappa", "10"]) == 1


class TestExitCodes:
    def test_input_error(self, capsys, monkeypatch, tmp_path):
        assert cli.run(["lattice", "report", "--s", "2,3"]) == 1
        capsys.readouterr()
        for argv in (["lattice", "report", "--s", "1"],
                     ["museq", "certify", "--s", "1", "--mu", "3"]):
            assert cli.run(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: the basis is empty")
        for mu, lo, hi in (("3", "0", "10"), ("3", "1", "1e400"), ("0", "1", "10")):
            assert cli.run(["museq", "obstructions", "--s", "1,2", "--mu", mu,
                            "--lo", lo, "--hi", hi]) == 1
        capsys.readouterr()
        path = tmp_path / "gram.json"
        for text in ('{"gram": [[1, 2], [3]]}', '{"gram": [[1, "x"], ["x", 1]]}',
                     '{"gram": [[Infinity]]}', "5", '"xgramx"', '{"gram": [[1]'):
            path.write_text(text)
            assert cli.run(["approx", "--gram", str(path), "--kappa", "10"]) == 1
            assert capsys.readouterr().err.count("\n") == 1
        path.write_text('{"gram": [[1]]}')
        for kappa in ("nan", "inf"):
            assert cli.run(["approx", "--gram", str(path), "--kappa", kappa]) == 1
            assert capsys.readouterr().err.count("\n") == 1
        for budget in ("abc", "-5"):
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", budget)
            assert cli.run(["lattice", "report", "--s", "1,2,3"]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "LATPACK_ENUM_BUDGET" in err

    def test_huge_mu(self, capsys):
        huge = "1" + "0" * 400
        assert cli.run(["museq", "greedy", "--mu", huge, "--dim", "1"]) == 2
        assert cli.run(["museq", "obstructions", "--s", "1,2", "--mu", huge,
                        "--lo", "1", "--hi", "3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "Traceback" not in err
        # a basis vector of norm 5 lies below mu: the exact verdict, exit 0
        assert cli.run(["museq", "certify", "--s", "1,2", "--mu", huge]) == 0
        outputs = strict_loads(capsys.readouterr().out)["outputs"]
        assert outputs["certified"] is False
        assert outputs["violating_norm"] == 5
        assert outputs["witness"] == [2, -1]

    def test_parse_error(self, capsys):
        assert cli.run(["lattice", "report", "--s", "1,x"]) == 1

    @pytest.mark.parametrize("row", [pytest.param(r, id=r.id or r.argv) for r in RUNS if r.code])
    def test_refused_with_one_line(self, row, workdir):
        run_cli(row, workdir)

    def test_budget_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "2")
        assert cli.run(["lattice", "report", "--s", "1,31,47,59"]) == 2

    def test_budget_bounds_the_reduction(self, capsys, monkeypatch):
        # rank 10^4: 1.7e11 Gram-Schmidt steps, refused before the basis is built
        s = ",".join(["1"] * 10001)
        for argv in (["lattice", "report", "--s", s],
                     ["museq", "certify", "--s", s, "--mu", "3"]):
            assert cli.run(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert "lattice of rank 10000 is too large to reduce" in err
        # rank 3 takes 4 steps: budget 3 refuses the reduction, budget 4 the nodes
        argv = ["lattice", "report", "--s", "1,31,47,59"]
        for budget, reason in (("3", "rank 3 is too large to reduce (estimate 4,"),
                               ("4", "node budget (estimate 6,")):
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", budget)
            assert cli.run(argv) == 2
            assert reason in capsys.readouterr().err

    def test_budget_bounds_the_ball_walks(self, capsys, monkeypatch):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "2")
        for argv in ("museq greedy --mu 3 --dim 2",
                     "museq obstructions --s 1,2 --mu 3 --lo 1 --hi 10"):
            assert cli.run(argv.split()) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert "ball of squared radius 2" in err

    def test_budget_counts_the_readers_work(self, capsys):
        # 7.8e7 ball points at the third step, under the default budget, but
        # 1.2e10 pairs (z, k) for the readers to stream: refused, not run
        assert cli.run(["museq", "greedy", "--mu", "70000", "--dim", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "half-ball of squared radius 69999 in dimension 4" in err

    def test_unknown_flag_rejected(self, capsys):
        assert cli.run(["lattice", "report", "--s", "1,2,3", "--bogus", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: latpack: unrecognized arguments: --bogus 1\n"


@pytest.fixture(scope="module")
def verify_paper():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "paper"])
    return code, strict_loads(out.getvalue())


class TestVerifySweep:
    def test_sweep_reports_known_discrepancy_only(self, verify_paper):
        code, payload = verify_paper
        assert code == 0
        checks = payload["outputs"]["checks"]
        failing = [c["name"] for c in checks if not c["passed"]]
        assert failing == ["derivative at the fixed point"]
        assert payload["outputs"]["passed"] == len(checks) - 1

    def test_sweep_deterministic(self, verify_paper, sweep):
        def untimed(checks):
            return [{k: v for k, v in c.items() if k != "runtime_s"} for c in checks]

        _, payload = verify_paper
        assert untimed(payload["outputs"]["checks"]) == untimed(sweep)


def test_runtime_needs_neither_numpy_nor_scipy():
    """`import latpack.cli` loads neither; blocked, every former call site runs."""
    code = textwrap.dedent("""
        import sys
        import latpack.cli
        assert not {"numpy", "scipy"} & set(sys.modules), sorted(sys.modules)
        sys.modules["numpy"] = sys.modules["scipy"] = None
        from latpack import approx, bounds, thetaflow
        target = approx.TargetGram.from_matrix([[2.0, 1.0], [1.0, 2.0]])
        approx.verify_approximation(target, approx.approximate(target, 50.0))
        # kmax = 707 > 400 terms at n = 9: the Euler-Maclaurin path
        assert bounds.eval_F(9, 2.0, 500.0) > 0.0
        thetaflow.asymptotic_fit(thetaflow.iterate_d(4), (1, 2, 3, 4))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
