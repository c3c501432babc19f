"""Write tests/golden/cli.json from the table `tests/test_cli.py::RUNS`: the
files the rows read, and for each row its argv and env, exit code, stdout
and stderr, from the same run the tests make of it.

    PYTHONPATH=src python tests/golden/make_cli.py

A JSON stdout is stored as its envelope less `meta.elapsed_ms` and each
check's `runtime_s`, the only outputs that change from run to run; any
other stdout (CSV) is stored as text.  Floats are compared exactly, and
they depend on the platform's libm, so the corpus records the Python and
machine it was made on.  Regenerating it is a change to a check: the
script names on stderr each row whose record was added, changed or
removed, against the file it replaces.
"""

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_cli  # noqa: E402  (the table lives with the tests)


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


def record(row):
    """The corpus line of one row, from its one run."""
    got = test_cli.outcome(test_cli.name(row))
    return {"argv": row.argv, **({"env": row.env} if row.env else {}), "code": got["code"],
            "stdout": untimed(got["stdout"]), "stderr": got["stderr"]}


def by_row(runs):
    """Corpus records keyed by their row's argv and env."""
    return {(run["argv"], json.dumps(run.get("env", {}))): run for run in runs}


def changes(old_runs, records):
    """The test id of each row whose record was added, changed or removed."""
    def row_name(argv, env):
        return test_cli.name(test_cli.Run(argv, env=json.loads(env)))

    old, new = by_row(old_runs), by_row(records)
    for key in old.keys() | new.keys():
        if key not in old:
            yield f"added: {row_name(*key)}"
        elif key not in new:
            yield f"removed: {row_name(*key)}"
        elif json.dumps(old[key], sort_keys=True) != json.dumps(new[key], sort_keys=True):
            yield f"changed: {row_name(*key)}"


def main():
    path = HERE / "cli.json"
    old_runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    records = [record(row) for row in test_cli.RUNS]
    machine = " ".join([platform.machine(), platform.system(), *platform.libc_ver()]).strip()
    made_on = {"python": platform.python_version(), "machine": machine}
    corpus = {"made_on": made_on, "files": test_cli.FILES, "runs": records}
    text = json.dumps(corpus, indent=1, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    for line in sorted(changes(old_runs, records)):
        print(line, file=sys.stderr)
    print(f"{len(records)} argvs written to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
