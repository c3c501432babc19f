"""The CLI contract, in one table of command lines, `RUNS`.  Each row runs
once: as a subprocess when it guards time (its `timeout`) or memory (its
`peak_mb`), otherwise in process.  It must exit 0 with strict JSON on stdout,
or 1 or 2 with one line on stderr, and pass its `check`, which holds every
assertion on that row; the tests past the table read more than one row.
`test_golden.py` compares the same run with the corpus that
`golden/make_cli.py` writes from this table.  Needs the runtime and pytest
alone."""

import contextlib
import functools
import io
import json
import operator
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from latpack import bounds, cli, museq
from latpack.constants import reference

ROOT = Path(__file__).resolve().parent.parent


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, which Python's json accepts."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


class Run(NamedTuple):
    """A `latpack` command line, its exit code and environment, and
    `check(outputs, or the stderr line)`, which must be true.  A row with a
    `timeout` in seconds runs as a subprocess, which measures its peak RSS
    against `peak_mb`; any other row runs in process, in under 10 s."""
    argv: str
    code: int = 0
    timeout: float = None
    env: dict = {}
    check: Callable = None
    id: str = None
    peak_mb: float = None


def name(row):
    """The row's test id: its environment, then its argv with runs of ones counted."""
    argv = re.sub(r"(1,){9,}1", lambda m: f"<{len(m[0]) // 2 + 1} ones>", row.argv)
    return row.id or " ".join([*(f"{k}={v}" for k, v in row.env.items()), argv])


def _readme_cli_usage():
    """The command lines of the README's "CLI usage" block, less `latpack`,
    and the `gram.json` that follows them."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI usage")[1]
    commands, gram = re.findall(r"```\n(.*?)```", section.split("\n## ")[0], re.S)
    return [line.removeprefix("latpack ") for line in commands.splitlines()], gram


def _approx_targets():
    """30 seeded random positive definite Gram files, each with an `approx` argv.
    Sums run left to right: a float sum() is compensated from Python 3.12."""
    rng = random.Random(20061)
    files, argvs = {}, []
    for t in range(30):
        n = rng.randint(1, 7)
        a = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
        gram = [[functools.reduce(operator.add, (a[i][k] * a[j][k] for k in range(n)), 0.0)
                 + (4.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
        files[f"target_{t:02d}.json"] = json.dumps({"gram": gram})
        kappa = rng.choice((1.0, 3.5, 100.0, 2000.0, 1e5))
        verify = " --verify" if t % 2 else ""
        argvs.append(f"approx --gram target_{t:02d}.json --kappa {kappa!r}{verify}")
    return files, argvs


README_LINES, README_GRAM = _readme_cli_usage()
TARGETS, TARGET_ARGVS = _approx_targets()

#: the files the rows read, from the directory they run in
FILES = {
    "gram.json": README_GRAM,
    "bool.json": '{"gram": [[true]]}',
    "identity.json": '{"n": 2, "gram": [[1.0, 0.0], [0.0, 1.0]]}',
    "hexagonal.json": '{"gram": [[2.0, 1.0], [1.0, 2.0]]}',
    "bad_n.json": '{"n": 3, "gram": [[1.0]]}',
    "huge.json": '{"gram": [[1e308, 1e308], [1e308, 1.7e308]]}',
    "tiny.json": '{"gram": [[1e-300]]}',
    "ragged.json": '{"gram": [[1, 2], [3]]}',
    "strings.json": '{"gram": [[1, "x"], ["x", 1]]}',
    "infinity.json": '{"gram": [[Infinity]]}',
    "number.json": "5",
    "string.json": '"xgramx"',
    "truncated.json": '{"gram": [[1]',
    **TARGETS,
}

RUNS = (
    # the acceptance gate, tests/test_acceptance.py, reads this row's one run
    Run("verify paper"),
    # the README's 3x3 gram.json: the grid search takes the generic Gram-Schmidt
    # pass and --verify certifies Lambda(s) from the closed form
    Run("approx --gram gram.json --kappa 500 --verify", check=lambda out: (
        out["saturation_det"] == 1 and out["verification"]["kernel_exact"] is True)),
    # Y_2's root is past the Moebius cap: refused before the first sum;
    # Y_3(1e-100) ~ 5.74e149 answers
    Run("bounds y --n 2 --x 1e-12", 2, timeout=5),
    Run("bounds y --n 3 --x 1e-100"),
    # the bracket doubled from est = 2 / (pi x) is past the cap, though est is not
    Run("bounds y --n 2 --x 1.3e-12", 2, timeout=2, peak_mb=40,
        check=lambda err: "Y_2(1.3e-12) needs 1.12e+06 terms" in err),
    # about 1.3e5 weights, read from one array: about 18 MB peak RSS, where a
    # cache entry per (k, n) took 38 MB
    Run("bounds y --n 2 --x 1e-10", timeout=5, peak_mb=25),
    # each weight is one int/int ratio, its exponent capped past float resolution
    Run("bounds f --n 1000000 --x 1 --y 200", timeout=2,
        check=lambda out: out["F"] == 3.726117495065839e-06),
    # Y_n(x) for large x lies just above 1/sqrt(x), where the bracket starts
    Run("bounds y --n 3 --x 1e200", timeout=2),
    Run("bounds y --n 2 --x 1e200"),
    # past float resolution the t-samples round to t = 1, where F_n(1, t) is
    # 0.0: they take no part, and C_n(x) is x Y_n(x)^(2/n)
    *(Run(f"bounds cn --n {n} --x {x}") for n, x in ((5, "1e30"), (2, "1e30"), (3, "1e300"))),
    Run("bounds cn --n 25 --x 1e50", 1, check=lambda err: "F_25(1e+48, " in err),
    # (5, 24) is admitted by its steps' work, 4 rows an entry; the norm
    # bounds the obstruction stream
    Run("museq greedy --mu 5 --dim 24", timeout=30),
    Run("museq obstructions --s 1,2 --mu 3 --lo 1 --hi 1e300", timeout=30),
    # mu |s|^2 = 900 = 30^2: the cutoff is decided in integers, not one below
    Run("museq obstructions --s 1,3,7,4 --mu 12 --lo 1 --hi 1",
        check=lambda out: out["A"] == 30),
    # sigma = hi / (mu^(n/2) V_n) is inf at 520 entries; at 600, mu^(n/2) V_n is 0.0
    *(Run(f"museq obstructions --s {'1,' * (n - 1)}1 --mu 2 --lo 1 --hi 2", 1,
          check=lambda err: "sigma" in err) for n in (520, 600)),
    # epsilon = hi / lo - 1 is inf
    Run("museq obstructions --s 1,2 --mu 100 --lo 1e-300 --hi 1e300", 1,
        check=lambda err: "epsilon = hi / lo - 1 lies past float range" in err),
    # (20000, 2) streams a long last layer over a small table; dimension 10^6
    # is refused once the steps done and the work of the steps left, each at
    # least the last one's, pass the budget: after 25 steps at mu = 3, and
    # after 100 at mu = 2, where each step shifts one row once an entry
    Run("museq greedy --mu 20000 --dim 2", timeout=30),
    *(Run(f"museq greedy --mu {mu} --dim 1000000", 2, timeout=10,
          check=lambda err, steps=steps: f"too large after {steps} steps" in err)
      for mu, steps in ((3, 25), (2, 100))),
    # one bitset of dots per norm: about 34, 26 and 111 MB peak RSS, where a
    # table of counts took 124, 89 and 636 MB; (16, 15) and (8, 40), about
    # 224 and 164 MB, were refused by a count of the pairs of that table
    Run("museq greedy --mu 16 --dim 12", timeout=30, peak_mb=50),
    Run("museq greedy --mu 8 --dim 24", timeout=30, peak_mb=40),
    Run("museq greedy --mu 16 --dim 14", timeout=30, peak_mb=150),
    Run("museq greedy --mu 16 --dim 15", timeout=30, peak_mb=260),
    Run("museq greedy --mu 8 --dim 40", timeout=30, peak_mb=200),
    # 844 ones, the largest rank check_rank admits by default: LLL starts from
    # the closed-form Gram-Schmidt data, so no O(n^3) pass runs
    Run(f"museq certify --s {'1,' * 843}1 --mu 2", check=lambda out: out["certified"] is True),
    # each pair +-v is enumerated once: 229 nodes, where the whole tree takes 450
    Run(f"lattice report --s {'1,' * 10}1", env={"LATPACK_ENUM_BUDGET": "300"},
        check=lambda out: out["minimum"] == 2),
    # A_150 has 11,325 minimal pairs +-v; the enumeration keeps only the least
    # (norm, witness): about 17 MB peak RSS, where keeping them all took 31 MB
    Run(f"lattice report --s {'1,' * 150}1", timeout=30, peak_mb=24,
        check=lambda out: out["minimum"] == 2 and out["witness"][-2:] == [1, -1]),
    Run("bounds y --n 2 --x -1", 1),
    Run("bounds cn --n 3 --x 0", 1),
    Run("bounds f --n 2 --x 1 --y nan", 1),
    Run("bounds f --n 2 --x inf --y 1", 1),
    Run("bounds mordell --n 3 --gamma inf", 1),
    Run("bounds mordell --n 3 --gamma 1e308", 1),
    # past the Moebius cap: refused before the first term, not after 1e6
    Run("bounds y --n 2 --x 1e-300", 2, timeout=10),
    Run("bounds cn --n 2 --x 1e-300", 2, timeout=10),
    # the refusal of the Y_2(x/100) solve names the x given
    Run("bounds cn --n 2 --x 1e-10", 2, check=lambda err: "C_2(1e-10) needs Y_2(x/100)" in err),
    Run("bounds theorem1 --n 3 --delta-prev 1e-10 --delta 1", 2, timeout=10),
    Run("bounds f --n 2 --x 1 --y 1e300", 2, timeout=10),
    Run("bounds theorem1 --n 3 --delta-prev 1e-300 --delta 1e300", 2, timeout=10),  # h underflows
    Run("theta fit --ladder 1,2,x", 1),
    # about 1.2e14 cap-sum terms: refused before the first row
    Run("theta table --max-n 1000000000", 2, timeout=10),
    Run("theta fit --ladder 1,2,3,1000000000", 2, timeout=10),
    Run("bounds f --n 3 --x 1e300 --y 1e10", 1),  # F overflows a float
    Run("bounds cn --n 5 --x 5e-324", 1, check=lambda err: "C_5(5e-324)" in err),  # x/100 is 0
    Run("bounds y --n 25 --x 1e-30", 1),  # Y_25 lies past float range
    # 1/V_(n-1) is inf from n = 437, and V_(n-1) is 0.0 from n = 454
    *(Run(f"bounds {command} --n {n} --x {x}", 1, check=lambda err: "lies past float range" in err)
      for command, n, x in (("y", 450, "10"), ("y", 2000, "1e200"), ("cn", 2000, "1e200"))),
    # gamma_1 = 4 delta_1^2 underflows to 0.0
    Run("bounds theorem1 --n 2 --delta-prev 1e-200 --delta 0.5 --form hermite", 1,
        check=lambda err: "the lifting inequality at n = 2 leaves float range" in err),
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
        check=lambda err: "the following arguments are required: --y" in err),
    Run("bounds theorem1 --n 2 --delta-prev 0.5 --delta 0.2886751 --form bogus", 1),
    Run("lattice report --bogus 1", 1),
    Run("lattice report --s 1,2,3 --bogus 1", 1,
        check=lambda err: err == "error: latpack: unrecognized arguments: --bogus 1\n"),
    Run("lattice report --s 1,x", 1, check=lambda err: "could not parse '1,x'" in err),
    Run("museq certify --s 1,2 --mu 0", 1),
    Run("museq certify --s 1,2 --mu -5", 1),
    Run("bounds theorem1 --n 1 --delta-prev 0.5 --delta 0.5", 1,
        check=lambda err: "check_theorem1 requires n >= 2, got 1" in err),
    # input errors
    Run("lattice report --s 2,3", 1, check=lambda err: err.startswith("error: s_0 must be 1")),
    *(Run(argv, 1, check=lambda err: err.startswith("error: the basis is empty"))
      for argv in ("lattice report --s 1", "museq certify --s 1 --mu 3")),
    Run("museq obstructions --s 1,2 --mu 3 --lo 0 --hi 10", 1),
    Run("museq obstructions --s 1,2 --mu 3 --lo 1 --hi 1e400", 1),
    Run("museq obstructions --s 1,2 --mu 0 --lo 1 --hi 10", 1),
    Run("approx --gram /no/such/file --kappa 10", 1, check=lambda err: "No such file" in err),
    Run("approx --gram bool.json --kappa 10", 1),
    Run("approx --gram bad_n.json --kappa 10", 1, check=lambda err: "'n' does not match" in err),
    *(Run(f"approx --gram {gram}.json --kappa 10", 1) for gram in (
        "ragged", "strings", "infinity", "number", "string", "truncated")),
    *(Run(f"approx --gram identity.json --kappa {kappa}", 1) for kappa in ("nan", "inf")),
    # the target's minimum is searched on a 1e-6 grid; one past float range,
    # or one that rounds to 0, is refused with one line
    *(Run(f"approx --gram {gram}.json --kappa 10 --verify", 1,
          check=lambda err: "1e-6 grid" in err) for gram in ("huge", "tiny")),
    *(Run("lattice report --s 1,2,3", 1, env={"LATPACK_ENUM_BUDGET": budget},
          check=lambda err: "LATPACK_ENUM_BUDGET" in err) for budget in ("abc", "-5")),
    # a huge mu is refused, or a basis vector of norm 5 lies below it: the exact verdict
    Run(f"museq greedy --mu {10**400} --dim 1", 2, id="museq greedy --mu 10^400 --dim 1",
        check=lambda err: "the forbidden set's bitsets of 1999" in err),
    Run(f"museq obstructions --s 1,2 --mu {10**400} --lo 1 --hi 3", 1,
        id="museq obstructions --s 1,2 --mu 10^400 --lo 1 --hi 3"),
    Run(f"museq certify --s 1,2 --mu {10**400}", id="museq certify --s 1,2 --mu 10^400",
        check=lambda out: out["certified"] is False and out["violating_norm"] == 5
        and out["witness"] == [2, -1]),
    # rank 10^4: 1.7e11 Gram-Schmidt steps, refused before the basis is built
    *(Run(f"{command} --s {'1,' * 10000}1{mu}", 2,
          check=lambda err: "lattice of rank 10000 is too large to reduce" in err)
      for command, mu in (("lattice report", ""), ("museq certify", " --mu 3"))),
    # rank 3 takes 4 steps: budget 3 refuses the reduction, budget 4 the nodes
    *(Run("lattice report --s 1,31,47,59", 2, env={"LATPACK_ENUM_BUDGET": budget},
          check=lambda err, reason=reason: reason in err)
      for budget, reason in (("2", "budget 2)"),
                             ("3", "rank 3 is too large to reduce (estimate 4,"),
                             ("4", "node budget (estimate 6,"))),
    Run("museq obstructions --s 1,2 --mu 3 --lo 1 --hi 10", 2, env={"LATPACK_ENUM_BUDGET": "2"},
        check=lambda err: "ball of squared radius 2" in err),
    # (14, 8)'s steps cost 4, 32, 156, 208, 260, 312, 728 and 2080 units of
    # 4096 bits shifted: 8 steps of at least 4 are over budgets 2 and 10, and
    # after 3 steps the 192 done and 5 more of at least 208 pass 1000; at
    # (3, 2), 2 steps of at least 2 are over 2
    Run("museq greedy --mu 3 --dim 2", 2, env={"LATPACK_ENUM_BUDGET": "2"},
        check=lambda err: "after 0 steps (estimate 4," in err),
    *(Run("museq greedy --mu 14 --dim 8", 2, env={"LATPACK_ENUM_BUDGET": budget},
          check=lambda err, reason=reason: reason in err)
      for budget, reason in (("2", "after 0 steps (estimate 32,"),
                             ("10", "after 0 steps (estimate 32,"),
                             ("1000", "after 3 steps (estimate 1232,"))),
    Run("museq greedy --mu 14 --dim 8", env={"LATPACK_ENUM_BUDGET": "100000"},
        check=lambda out: out["s"][-1] == 5805),
    # two steps run; the third step's bitsets, 70,263 rows and accumulators
    # of 3.2e7 bits each, are over 64 times the budget
    Run("museq greedy --mu 70000 --dim 3", 2,
        check=lambda err: "bitsets of 2261183278941 bits are too large" in err),
    # the bench greedy ladder, and three larger rungs
    *(Run(f"museq greedy --mu {mu} --dim {dim}") for mu, dim in (
        (2, 10), (3, 8), (3, 60), (4, 12), (4, 40), (6, 9), (8, 9), (8, 16), (10, 9),
        (12, 8), (14, 8), (16, 7))),
    Run("museq certify --s 1,1 --mu 3",
        check=lambda out: out["certified"] is False and out["violating_norm"] == 2),
    Run("lattice report --s 1,2,3", check=lambda out: (
        out["minimum"], out["determinant"], out["witness"]) == (3, 14, [1, 1, -1])),
    Run("museq certify --s 1,2,3 --mu 3"),
    Run("museq certify --s 1,2,3 --mu 5"),
    Run("lattice report --s 1,2,3,4,5"),
    Run("museq certify --s 1,2,3,4,5 --mu 3",
        check=lambda out: out["certified"] is True and out["minimum_at_least"] == 3),
    Run("museq certify --s 1,2,3,4,5 --mu 5"),
    *(Run(f"{command} --s {s}{mu}")
      for s in ("1,31,47,59", "1,3,7,4", "1,1,1,1,1,1", "1,2,4,8,16,32")
      for command, mu in (("lattice report", ""), ("museq certify", " --mu 3"),
                          ("museq certify", " --mu 5"))),
    *(Run(f"bounds y --n {n} --x {x}") for n in (2, 3, 5, 9, 25) for x in ("0.01", "4")),
    *(Run(f"bounds cn --n {n} --x {x}") for n in (2, 3, 5, 9, 25) for x in ("1.5", "2")),
    # C_60(2) beats Minkowski-Hlawka's 2^(1-n) as a density
    Run("bounds cn --n 60 --x 2.0",
        check=lambda out: bounds.convert("hermite", "density", out["C"], 60) >= 2.0 ** -59),
    # F's Moebius weights, correctly rounded where summing the divisor terms was not
    Run("bounds f --n 2 --x 1 --y 1000"),
    Run("bounds f --n 3 --x 2 --y 5000"),
    Run("bounds y --n 2 --x 1e-06"),
    # the tight n = 2 case and the paper's delta pairs, in each form
    *(Run(f"bounds theorem1 --n {n} --delta-prev {reference(n - 1).center_density!r} "
          f"--delta {reference(n).center_density!r} --form {form}")
      for n in (2, 3, 9, 25) for form in ("center", "hermite", "density")),
    Run("bounds mordell --n 3 --gamma 1.1547005",
        check=lambda out: out["gamma_upper"] == pytest.approx(4.0 / 3.0, rel=1e-6)),
    Run("theta fit"),
    Run("theta table --max-n 4"),
    Run("theta table --max-n 4 --csv", check=lambda text: (
        text.splitlines()[0] == "n,d,omega_iterate,scaled_diff,A"
        and len(text.splitlines()) == 5)),
    Run("theta table --max-n 16 --csv"),
    Run("theta table --max-n 300"),
    Run("approx --gram identity.json --kappa 10"),
    Run("approx --gram identity.json --kappa 100", check=lambda out: (
        out["v"] == [1, -100, 10000] and abs(out["saturation_det"]) == 1)),
    Run("approx --gram hexagonal.json --kappa 200 --verify",
        check=lambda out: out["verification"]["kernel_exact"] is True),
    *(Run(argv) for argv in TARGET_ARGVS),
)
RUNS += tuple(Run(line) for line in README_LINES
              if line not in {row.argv for row in RUNS if not row.env})
ROWS = {name(row): row for row in RUNS}

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
    """{code, stdout, stderr, peak_mb} of `python -m latpack.cli` under the row's timeout."""
    with tempfile.TemporaryFile() as peak:
        done = subprocess.run(
            [sys.executable, "-S", "-c", _WRAPPER, str(peak.fileno()), str(row.timeout),
             sys.executable, "-m", "latpack.cli", *shlex.split(row.argv)],
            cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            pass_fds=(peak.fileno(),),
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **row.env})
        peak.seek(0)
        peak_mb = int(peak.read()) / 1024
    assert done.returncode != 124, f"latpack {name(row)} ran past {row.timeout} s"
    return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "peak_mb": peak_mb}


def capture(row, cwd):
    """{code, stdout, stderr} of `cli.run` in process, under the row's env and in
    `cwd`, in under 10 s.  An exception is stored as its last line, code None."""
    out, err = io.StringIO(), io.StringIO()
    here, started = os.getcwd(), time.monotonic()
    os.chdir(cwd)
    try:
        with mock.patch.dict(os.environ, row.env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.run(shlex.split(row.argv))
            except Exception as exc:
                code = None
                print(f"{type(exc).__name__}: {exc}", file=err)
    finally:
        os.chdir(here)
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"latpack {name(row)} took {elapsed:.1f} s in process"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def workdir():
    """The directory every row runs in, holding `FILES`; removed at exit."""
    directory = tempfile.TemporaryDirectory(prefix="latpack-cli-")
    for file, text in FILES.items():
        Path(directory.name, file).write_text(text, encoding="utf-8")
    return directory


@functools.cache
def outcome(row_name):
    """The one run of the row called `row_name`, shared by every test that reads it."""
    row = ROWS[row_name]
    return (run_cli if row.timeout else capture)(row, workdir().name)


def answer(row_name):
    """The outputs (exit 0; a `--csv` row's text) or the stderr line (exit 1
    or 2) of the row called `row_name`, once the exit-code contract holds."""
    row, got = ROWS[row_name], outcome(row_name)
    assert got["code"] == row.code, got["stderr"]
    if row.code:
        assert got["stdout"] == "" and len(got["stderr"].splitlines()) == 1, got["stderr"]
        assert "Traceback" not in got["stderr"]
        return got["stderr"]
    return got["stdout"] if "--csv" in row.argv else strict_loads(got["stdout"])["outputs"]


def envelope(row_name):
    return strict_loads(outcome(row_name)["stdout"])


def check_row(row):
    out = answer(name(row))
    assert row.check is None or row.check(out), out
    if row.peak_mb is not None:
        assert outcome(name(row))["peak_mb"] < row.peak_mb


def test_each_row_is_listed_once():
    assert len({(row.argv, repr(row.env)) for row in RUNS}) == len(ROWS) == len(RUNS)
    assert all(row.timeout for row in RUNS if row.peak_mb)  # RSS is measured in a subprocess


@pytest.mark.parametrize("row", [pytest.param(r, id=name(r)) for r in RUNS if not r.code])
def test_answers_with_strict_json(row):
    check_row(row)


class TestEnvelope:
    def test_round_trip(self):
        payload = envelope("theta fixpoint")
        assert payload["command"] == "theta fixpoint"
        assert json.loads(json.dumps(payload)) == payload
        assert "version" in payload["meta"]
        assert "tolerances" in payload["meta"]

    def test_inputs_echo_parsed_options(self):
        assert envelope("museq certify --s 1,2,3,4,5 --mu 3")["inputs"] == {
            "s": [1, 2, 3, 4, 5], "mu": 3}
        assert envelope("theta fit")["inputs"] == {"ladder": [128, 256, 512, 1024]}
        assert envelope("approx --gram identity.json --kappa 10")["inputs"] == {
            "gram": "identity.json", "kappa": 10.0, "verify": False}
        # --csv picks a format, not an input
        assert envelope("theta table --max-n 4")["inputs"] == {"max_n": 4}

    def test_strict_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.bounds, "eval_F", lambda n, x, y: float("nan"))
        assert cli.run(["bounds", "f", "--n", "2", "--x", "4", "--y", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1


class TestMuseq:
    def test_obstructions(self, capsys, monkeypatch):
        calls = []
        enumerate_ball = museq.interval_obstructions
        monkeypatch.setattr(museq, "interval_obstructions",
                            lambda *a, **kw: calls.append(a) or enumerate_ball(*a, **kw))
        argv = "museq obstructions --s 1,2 --mu 3 --lo 1 --hi 10"
        assert cli.run(argv.split()) == 0
        out = strict_loads(capsys.readouterr().out)["outputs"]
        assert out["obstructed"]["1"] == [1, 2]
        assert out["union_size"] == 2
        assert out["smallest_unobstructed"] == 3
        assert len(calls) == 1  # the ball is enumerated once


class TestExitCodes:
    @pytest.mark.parametrize("row", [pytest.param(r, id=name(r)) for r in RUNS if r.code])
    def test_refused_with_one_line(self, row):
        check_row(row)


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
