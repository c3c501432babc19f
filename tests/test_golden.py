"""Same outputs as a test: every argv of tests/golden/cli.json, run through
`cli.run` in process, gives the exit code, stdout (less its timings) and
stderr recorded there, floats compared exactly.  Regenerate the corpus with
`PYTHONPATH=src python tests/golden/make_cli.py`, and name each changed line."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_cli", GOLDEN / "make_cli.py")
make_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_cli)
CORPUS = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def _id(argv):
    return re.sub(r"(1,){9,}1", lambda m: f"<{len(m[0]) // 2 + 1} ones>", argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The files the argvs read: the README's gram.json and the approx targets."""
    path = tmp_path_factory.mktemp("golden")
    for name, text in CORPUS["files"].items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("run", CORPUS["runs"], ids=[_id(run["argv"]) for run in CORPUS["runs"]])
def test_replays_the_corpus(run, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    got = make_cli.capture(run["argv"], run.get("env"))
    expected = {key: run[key] for key in got}
    made = CORPUS["made_on"]
    text = [json.dumps(outcome, indent=1, sort_keys=True) for outcome in (got, expected)]
    assert text[0] == text[1], (
        f"`latpack {_id(run['argv'])}` differs from the corpus, made on Python "
        f"{made['python']}, {made['machine']}: floats depend on the platform's libm")
