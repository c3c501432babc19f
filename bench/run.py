"""latpack benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload svp --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Load is a closed loop: one client runs the workload's fixed task list one
task after another, with no threads.  Each pass runs in a fresh interpreter
(bench/worker.py), one pass at a time, so import state and the lru_caches
in latpack.numth are cold in every pass, as they are in every CLI call.
Passes repeat until --seconds is used up, with at least MIN_PASSES.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, every time
scaled to the host's nominal speed by the calibration chunks the worker
times next to each task (calibrate.py); --trace 1
alternates untraced and traced passes and prints the per-layer metrics.
The last line of stdout is one JSON object; everything before it is for
people.  Every task's output is checked exactly against reference.json;
a task that raises or misses its check counts as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("svp", "greedy", "analytic", "verify-paper")
MIN_PASSES = 3
RUN_DEADLINE_S = 165.0   # a run must end well inside 180 s
TAIL_BEYOND = 10         # the tail percentile leaves at least this many tasks above it

RATIOS = {
    "bounds.eval_F_per_eval_Y": ("bounds.eval_F", "bounds.eval_Y"),
    "thetaflow.tau_per_psi": ("thetaflow.tau", "thetaflow.psi"),
}


class PassFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workload, seed, traced, deadline):
    """Start one worker, wait for it, and return its result dict."""
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)),
            "--spans-out", str(out_dir / f"{workload}.spans.json.gz")]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{workload} pass killed at the run deadline")
    if proc.returncode != 0:
        raise PassFailed(f"{workload} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise PassFailed(f"{workload} worker printed no result: {exc}") from exc
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    return result


def run_workload(workload, seed, seconds, trace):
    """Run passes until `seconds` are used; return (untraced, traced) passes."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    plain, traced, durations = [], [], []
    i = 0
    while True:
        # Trace runs interleave one untraced pass with two traced ones, so
        # the overhead compares passes of the same run.
        is_traced = trace and i % 3 != 0
        began = time.monotonic()
        result = run_pass(workload, seed, is_traced, deadline)
        durations.append(time.monotonic() - began)
        (traced if is_traced else plain).append(result)
        i += 1
        elapsed = time.monotonic() - start
        if i >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed + max(durations) > RUN_DEADLINE_S:
            break
    return plain, traced


def tail(values):
    """Value at the highest percentile with >= TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def task_failures(passes):
    attempted = failed = 0
    messages = []
    for p in passes:
        for label, _, errors in p["tasks"]:
            attempted += 1
            if errors:
                failed += 1
                messages.append(f"{label}: {'; '.join(errors)[:400]}")
    return attempted, failed, messages


def scaled_times(p):
    """A pass's task times at the host's nominal speed (see calibrate.py)."""
    return [t[1] / v for t, v in zip(p["tasks"], p["task_slowdowns"])]


def scaled_wall(p):
    return sum(scaled_times(p))


def end_to_end(plain):
    """End-to-end metrics; every time is scaled to the host's nominal speed."""
    slowdowns = [v for p in plain for v in p["task_slowdowns"]]
    per_task = [statistics.median(times) for times in zip(*map(scaled_times, plain))]
    tail_value, tail_pct = tail(per_task)
    values = {
        "setup_s": statistics.median(p["setup_s"] / p["setup_slowdown"] for p in plain),
        "wall_s": statistics.median(map(scaled_wall, plain)),
        "task_p50_ms": 1000.0 * statistics.median(per_task),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024.0,
    }
    # Printed, not one of the metrics: a single task's time drifts with the
    # host more than a whole pass does (see README.md, "Noise").
    notes = [
        f"task_tail_ms {1000.0 * tail_value:.6g} ms: p{tail_pct:.1f} of "
        f"{len(per_task)} per-task medians over {len(plain)} passes",
        f"host slowdown {statistics.median(slowdowns):.4g} x nominal (median over tasks, "
        f"range {min(slowdowns):.4g}-{max(slowdowns):.4g}); unscaled wall_s "
        f"{statistics.median(p['wall_s'] for p in plain):.6g} s, setup_s "
        f"{statistics.median(p['setup_s'] for p in plain):.6g} s",
    ]
    return values, notes


def layer_values(names, plain, traced):
    """Per-layer metrics from the traced passes; returns (values, absent, errors)."""
    summaries = [p["trace"] for p in traced]
    funcs = summaries[0]["funcs"]
    absent = set(summaries[0]["absent"])
    errors = []
    for other in summaries[1:]:
        for prefix, entry in funcs.items():
            counts = {k: v for k, v in entry.items() if k != "self_ns"}
            again = {k: v for k, v in other["funcs"][prefix].items() if k != "self_ns"}
            if counts != again:
                errors.append(f"counts of {prefix} differ between traced passes")

    def calls(prefix):
        return funcs.get(prefix, {}).get("calls", 0)

    values, missing = {}, []
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(map(scaled_wall, traced))
                            - statistics.median(map(scaled_wall, plain)))
            continue
        if name in RATIOS:
            num, den = RATIOS[name]
            if num in absent or den in absent:
                missing.append(name)
            values[name] = calls(num) / calls(den) if calls(den) else 0.0
            continue
        prefix, field = name.rsplit(".", 1)
        if prefix in absent or prefix not in funcs:
            missing.append(name)
            values[name] = 0
            continue
        entry = funcs[prefix]
        if field == "self_s":
            values[name] = statistics.median(
                s["funcs"][prefix]["self_ns"] for s in summaries) / 1e9
        elif field == "hit_ratio":
            values[name] = entry["hits"] / entry["calls"] if entry["calls"] else 0.0
        elif field == "useful_ratio":
            ball = funcs.get("museq.ball_points", {}).get(f"points_under:{prefix}", 0)
            values[name] = entry.get("points", 0) / ball if ball else 0.0
        else:
            values[name] = entry.get(field, 0)
    return values, missing, errors


def attribution_lines(traced):
    """Where each traced task's time went, from the first traced pass."""
    lines = []
    tasks = traced[0]["trace"]["tasks"]
    totals = {}
    for task in tasks:
        for name, ns in task["self_ns"].items():
            totals[name] = totals.get(name, 0) + ns
    grand = sum(totals.values()) or 1
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:6]
    lines.append("self time share, whole pass: " + ", ".join(
        f"{name} {100.0 * ns / grand:.1f}%" for name, ns in top))
    durations = [t["total_ns"] for t in tasks]
    cut, pct = tail(durations)
    tail_tasks = [t for t in tasks if t["total_ns"] >= cut]
    tail_totals = {}
    for task in tail_tasks:
        for name, ns in task["self_ns"].items():
            tail_totals[name] = tail_totals.get(name, 0) + ns
    tail_grand = sum(tail_totals.values()) or 1
    top = sorted(tail_totals.items(), key=lambda kv: -kv[1])[:4]
    lines.append(f"self time share, {len(tail_tasks)} tasks at or above p{pct:.1f}: "
                 + ", ".join(f"{name} {100.0 * ns / tail_grand:.1f}%" for name, ns in top))
    for task in tasks:
        total = task["total_ns"] or 1
        top = sorted(task["self_ns"].items(), key=lambda kv: -kv[1])[:2]
        lines.append(f"  {task['task']}: {task['total_ns'] / 1e6:.1f} ms, " + ", ".join(
            f"{name} {100.0 * ns / total:.0f}%" for name, ns in top))
    return lines


def measure(workload, seed, seconds, trace, spec):
    """Run one workload; print its report; return its result object."""
    plain, traced = run_workload(workload, seed, seconds, trace)
    passes = plain + traced
    attempted, failed, messages = task_failures(passes)
    print(f"== {workload} seed={seed} passes={len(plain)} untraced, {len(traced)} traced")
    for message in messages[:20]:
        print(f"FAILED {message}")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} tasks)")
    metrics = {}
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, missing, errors = layer_values(names, plain, traced)
        for line in attribution_lines(traced):
            print(line)
        for error in errors:
            print(f"FAILED {error}")
        failed += len(errors)
        attempted += len(errors)
        if missing:
            print("absent (reported as 0): " + ", ".join(missing))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, notes = end_to_end(plain)
        for note in notes:
            print(note)
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{workload:13s} {name:45s} {values[name]:14.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "latpack" / "__init__.py").is_file():
        print(f"error: no latpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = measure(workload, args.seed, args.seconds,
                                        bool(args.trace), spec)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
