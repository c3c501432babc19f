"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload svp --seed 1 --trace 0

Started by run.py once per pass, so import state and the ``lru_cache``s in
``latpack.numth`` are cold every time.  Prints one JSON line: the moment
the first task could start (``time.monotonic``, shared with the parent),
each task's time and check result, the pass's wall time, peak RSS, the
host's speed right after set-up and around each task (calibrate.py) and,
when traced, the tracer's summary.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHUNKS_SETUP = 6     # calibration chunks right after set-up
CHUNKS_NEAR = 3      # calibration chunks on each side of every task


@dataclass
class Context:
    root: Path
    bench_dir: Path
    traced: bool
    cli_trace: Path
    env: dict
    task_timeout: float
    waiting_chunks: list = field(default_factory=list)  # timed while a subprocess ran


def run_pass(workload, seed, traced, reference, spans_out):
    import latpack

    source = Path(latpack.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"latpack imported from {source}, not from {ROOT / 'src'}")
    import workloads

    ctx = Context(ROOT, BENCH, traced, Path(spans_out + ".raw"),
                  dict(os.environ), task_timeout=150.0)
    tasks = workloads.build(workload, workloads.load_reference(reference), seed, ctx)
    ready = time.monotonic()

    tracer = None
    if traced and workload != "verify-paper":
        tracer = Tracer()
        tracer.install()

    # Calibration chunks right after set-up and on both sides of every task
    # (or, for a task that waits on a subprocess, timed while it waits)
    # measure the host's speed at that moment; their time is not in wall_s.
    setup_chunks = calibrate.timed_chunks(CHUNKS_SETUP)
    before = setup_chunks[-CHUNKS_NEAR:]
    results, slowdowns = [], []
    for task in tasks:
        scope = tracer.task(task.label) if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with scope:
                out = task.run()
            elapsed = time.perf_counter() - started
            errors = task.check(out)
        except Exception as exc:  # a task that raises is a failed task
            elapsed = time.perf_counter() - started
            errors = [f"{type(exc).__name__}: {exc}"]
        results.append([task.label, elapsed, errors])
        after = calibrate.timed_chunks(CHUNKS_NEAR)
        slowdowns.append(calibrate.slowdown(ctx.waiting_chunks or before + after))
        ctx.waiting_chunks = []
        before = after
    wall = sum(elapsed for _, elapsed, _ in results)

    summary = None
    if traced:
        if tracer is None:
            tracer = Tracer.load(ctx.cli_trace)
            ctx.cli_trace.unlink()
        summary = tracer.summary()
        tracer.dump(spans_out)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "ready": ready,
        "wall_s": wall,
        "tasks": results,
        "maxrss_kb": rss_kb,
        "setup_slowdown": calibrate.slowdown(setup_chunks),
        "task_slowdowns": slowdowns,
        "trace": summary,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(BENCH / "reference.json"))
    parser.add_argument("--spans-out", default=str(BENCH / "out" / "spans.json.gz"))
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, bool(args.trace), args.reference,
                      args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
