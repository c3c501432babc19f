"""Same outputs as a test: each row of `test_cli.RUNS`, from its one run, gives
the exit code, stdout (less its timings) and stderr recorded in
tests/golden/cli.json, floats compared exactly.  Regenerate the corpus with
`PYTHONPATH=src python tests/golden/make_cli.py`, and name each changed line."""

import importlib.util
import json
from pathlib import Path

import pytest

from test_cli import FILES, RUNS, name

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_cli", GOLDEN / "make_cli.py")
make_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_cli)
CORPUS = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
RECORDED = {(run["argv"], json.dumps(run.get("env", {}))): run for run in CORPUS["runs"]}


def test_the_corpus_is_the_table():
    assert CORPUS["files"] == FILES
    assert [(run["argv"], run.get("env", {})) for run in CORPUS["runs"]] == [
        (row.argv, row.env) for row in RUNS]


@pytest.mark.parametrize("row", [pytest.param(r, id=name(r)) for r in RUNS])
def test_replays_the_corpus(row):
    expected = RECORDED.get((row.argv, json.dumps(row.env)))
    made = CORPUS["made_on"]
    text = [json.dumps(outcome, indent=1, sort_keys=True)
            for outcome in (make_cli.record(row), expected)]
    assert text[0] == text[1], (
        f"`latpack {name(row)}` differs from the corpus, made on Python "
        f"{made['python']}, {made['machine']}: floats depend on the platform's libm")
