"""Write tests/golden/cli.json from the table `tests/test_cli.py::RUNS`: the
files the rows read, and for each row its argv and env, exit code, stdout
and stderr, from the same run the tests make of it.

    PYTHONPATH=src python tests/golden/make_cli.py

A JSON stdout is stored as its envelope less `meta.elapsed_ms` and each
check's `runtime_s`, the only outputs that change from run to run; any
other stdout (CSV) is stored as text.  Floats are compared exactly, and
they depend on the platform's libm, so the corpus records the Python and
machine it was made on.  Regenerating it is a change to a check: name
each line that changes.
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


def main():
    records = [record(row) for row in test_cli.RUNS]
    machine = " ".join([platform.machine(), platform.system(), *platform.libc_ver()]).strip()
    made_on = {"python": platform.python_version(), "machine": machine}
    corpus = {"made_on": made_on, "files": test_cli.FILES, "runs": records}
    text = json.dumps(corpus, indent=1, sort_keys=True, allow_nan=False)
    (HERE / "cli.json").write_text(text + "\n", encoding="utf-8")
    print(f"{len(records)} argvs written to {HERE / 'cli.json'}", file=sys.stderr)


if __name__ == "__main__":
    main()
