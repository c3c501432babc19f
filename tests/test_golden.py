"""Same outputs as a test: each row of `test_cli.RUNS`, from its one run, gives
the exit code, stdout (less its timings) and stderr recorded in
tests/golden/cli.json, floats compared exactly.  Regenerate the corpus with
`PYTHONPATH=src python tests/golden/make_cli.py`, which names each row it
added, changed or removed."""

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
RECORDED = make_cli.by_row(CORPUS["runs"])


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


def test_untimed_drops_only_the_timings():
    stdout = json.dumps({"meta": {"elapsed_ms": 3.2, "command": "verify paper"},
                         "outputs": {"checks": [{"name": "a", "runtime_s": 0.1, "passed": True}]}})
    assert make_cli.untimed(stdout) == {
        "meta": {"command": "verify paper"},
        "outputs": {"checks": [{"name": "a", "passed": True}]}}


def test_untimed_keeps_text_as_text():
    csv = "n,d,omega_iterate,scaled_diff,A\n1,2.0,2.0,0.0,0.0\n"
    assert make_cli.untimed(csv) == csv


def _record(argv, stdout="{}", env=None):
    return {"argv": argv, **({"env": env} if env else {}), "code": 0, "stdout": stdout,
            "stderr": ""}


@pytest.mark.parametrize("old,new,listed", [
    pytest.param([_record("theta fit")], [_record("theta fit")], [], id="unchanged"),
    pytest.param([], [_record("theta fit")], ["added: theta fit"], id="added"),
    pytest.param([_record("theta fit")], [], ["removed: theta fit"], id="removed"),
    pytest.param([_record("theta fit", {"c0": 1.0})], [_record("theta fit", {"c0": 2.0})],
                 ["changed: theta fit"], id="changed"),
    # the corpus is written with sorted keys, so key order is no change
    pytest.param([_record("theta fit", {"a": 1, "b": 2})],
                 [_record("theta fit", {"b": 2, "a": 1})], [], id="key-order"),
    # a row is its argv and its env: the same argv under another env is another row
    pytest.param([_record("lattice report --s 1,2,3")],
                 [_record("lattice report --s 1,2,3"),
                  _record("lattice report --s 1,2,3", env={"LATPACK_ENUM_BUDGET": "2"})],
                 ["added: LATPACK_ENUM_BUDGET=2 lattice report --s 1,2,3"], id="env"),
])
def test_changes_names_each_row_added_changed_or_removed(old, new, listed):
    assert sorted(make_cli.changes(old, new)) == listed
