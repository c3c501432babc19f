"""Write tests/golden/cli.json: for each argv below, the exit code, the stdout
and the stderr of `latpack.cli.run`, in process.

    PYTHONPATH=src python tests/golden/make_cli.py

A JSON stdout is stored as its envelope less `meta.elapsed_ms` and each
check's `runtime_s`, the only outputs that change from run to run; any
other stdout (CSV) is stored as text.  The argvs are the README's "CLI
usage" lines, the fast exit-0 rows of `tests/test_cli.py::RUNS`, the bench
greedy ladder, `lattice report` and `museq certify` on six vectors,
30 seeded `approx` targets and three refusals.  Floats are compared
exactly, and they depend on the platform's libm, so the corpus records
the Python and machine it was made on.  Regenerating it is a change to a
check: name each line that changes.
"""

import contextlib
import io
import json
import os
import platform
import random
import re
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

from latpack import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: museq greedy ladder of the benchmark's `greedy` workload
GREEDY_LADDER = ((2, 10), (3, 8), (4, 12), (6, 9), (8, 9), (10, 9), (12, 8), (14, 8), (16, 7))
VECTORS = ("1,2,3", "1,2,3,4,5", "1,31,47,59", "1,3,7,4", "1,1,1,1,1,1", "1,2,4,8,16,32")
KAPPAS = (1.0, 3.5, 100.0, 2000.0, 1e5)


def untimed(stdout):
    """The stored form of one stdout: a JSON envelope less its timings, or the text."""
    try:
        envelope = json.loads(stdout)
    except ValueError:
        return stdout
    envelope["meta"].pop("elapsed_ms")
    for check in envelope["outputs"].get("checks", ()):
        check.pop("runtime_s")
    return envelope


def capture(argv, env=None):
    """{code, stdout, stderr} of one `cli.run`, with `env` set for the call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.run(shlex.split(argv))
        except Exception as exc:  # a traceback: stored as its last line, code null
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return {"code": code, "stdout": untimed(out.getvalue()), "stderr": err.getvalue()}


def _random_spd(n, rng):
    a = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    return [[sum(a[i][k] * a[j][k] for k in range(n)) + (4.0 if i == j else 0.0)
             for j in range(n)] for i in range(n)]


def corpus_inputs():
    """(files, [(argv, env)]): the files the argvs read from their directory."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI usage")[1]
    commands, gram = re.findall(r"```\n(.*?)```", section.split("\n## ")[0], re.S)
    files = {"gram.json": gram}
    runs = [(line.removeprefix("latpack "), None) for line in commands.splitlines()]
    runs += [("theta table --max-n 16 --csv", None),
             ("bounds y --n 3 --x 1e-100", None),
             ("museq greedy --mu 5 --dim 24", None),
             ("museq obstructions --s 1,2 --mu 3 --lo 1 --hi 1e300", None),
             ("museq obstructions --s 1,3,7,4 --mu 12 --lo 1 --hi 1", None),
             (f"lattice report --s {'1,' * 10}1", {"LATPACK_ENUM_BUDGET": "300"})]
    runs += [(f"museq greedy --mu {mu} --dim {dim}", None) for mu, dim in GREEDY_LADDER]
    for s in VECTORS:
        runs += [(f"lattice report --s {s}", None)]
        runs += [(f"museq certify --s {s} --mu {mu}", None) for mu in (3, 5)]
    rng = random.Random(20061)
    for i in range(30):
        name = f"target_{i:02d}.json"
        files[name] = json.dumps({"gram": _random_spd(rng.randint(1, 7), rng)})
        verify = " --verify" if i % 2 else ""
        runs += [(f"approx --gram {name} --kappa {rng.choice(KAPPAS)!r}{verify}", None)]
    runs += [("bounds y --n 2 --x 1e-12", None)]
    runs += [(f"museq obstructions --s {'1,' * (n - 1)}1 --mu 2 --lo 1 --hi 2", None)
             for n in (520, 600)]
    return files, runs


def main():
    files, runs = corpus_inputs()
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for argv, env in runs:
                records.append({"argv": argv, **({"env": env} if env else {}),
                                **capture(argv, env)})
        finally:
            os.chdir(cwd)
    machine = " ".join([platform.machine(), platform.system(), *platform.libc_ver()]).strip()
    made_on = {"python": platform.python_version(), "machine": machine}
    corpus = {"made_on": made_on, "files": files, "runs": records}
    text = json.dumps(corpus, indent=1, sort_keys=True, allow_nan=False)
    (HERE / "cli.json").write_text(text + "\n", encoding="utf-8")
    print(f"{len(records)} argvs written to {HERE / 'cli.json'}", file=sys.stderr)


if __name__ == "__main__":
    main()
