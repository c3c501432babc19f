"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/tests -q

Each worker pass takes a few seconds; the whole file runs in about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def worker(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def counts(summary):
    return {prefix: {k: v for k, v in entry.items() if k != "self_ns"}
            for prefix, entry in summary["funcs"].items()}


def test_traced_counts_repeat_exactly(tmp_path):
    spans = str(tmp_path / "spans.json.gz")
    first = worker("--workload", "greedy", "--seed", "3", "--trace", "1", "--spans-out", spans)
    second = worker("--workload", "greedy", "--seed", "3", "--trace", "1", "--spans-out", spans)
    assert counts(first["trace"]) == counts(second["trace"])
    assert counts(first["trace"])["museq.forbidden_values"]["calls"] > 0
    assert not any(errors for _, _, errors in first["tasks"])


def test_corrupted_reference_value_is_a_failure(tmp_path):
    ref = workloads.load_reference(BENCH / "reference.json")
    item = ref["analytic"]["C"][0]
    item["expect"]["C"] *= 1.0 + 1e-9    # just outside the 1e-10 tolerance
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(ref))
    result = worker("--workload", "analytic", "--seed", "1", "--reference", str(corrupted),
                    "--spans-out", str(tmp_path / "spans.json.gz"))
    failed = [label for label, _, errors in result["tasks"] if errors]
    assert failed == [f"eval_C n={item['n']} x={item['x']:.4g}"]


def test_seed_picks_the_svp_inputs():
    ref = workloads.load_reference(BENCH / "reference.json")
    assert workloads.svp_inputs(ref, 1) == workloads.svp_inputs(ref, 1)
    assert workloads.svp_inputs(ref, 1) != workloads.svp_inputs(ref, 2)


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prefixes = {tracer.metric_prefix(m, a) for m, a in tracer.TARGETS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert (name == "trace.overhead_s" or name in run.RATIOS
                or name.rsplit(".", 1)[0] in prefixes), name


def test_calibration_work_is_fixed():
    # Times are scaled by how long this chunk takes, so its work must never
    # change: a different checksum means REFERENCE_CHUNK_S no longer holds.
    assert calibrate.chunk() == 958384


def test_times_are_scaled_by_the_slowdown_around_each_task():
    assert calibrate.slowdown([calibrate.REFERENCE_CHUNK_S] * 3) == 1.0
    p = {"tasks": [["a", 2.0, []], ["b", 1.0, []]], "task_slowdowns": [2.0, 0.5]}
    assert run.scaled_times(p) == [1.0, 2.0]
    assert run.scaled_wall(p) == 3.0


def test_tail_leaves_ten_values_above():
    values = list(range(40))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == 75.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "svp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
