"""The four benchmark workloads: inputs, tasks and exact output checks.

Every input comes from ``reference.json``.  ``make_reference.py`` draws a
pool of inputs once from a fixed master seed and records the program's
outputs for each; a run's ``--seed`` then picks its inputs from the pools,
so any seed gives inputs whose exact outputs are known.  Every draw is
stratified (a fixed number of inputs per dimension, size or regime), so
the amount of work in a pass does not depend on the seed beyond the spread
of the inputs themselves.

A task's ``run`` calls the program through module attributes only (so the
tracer sees every call); its ``check`` returns a list of mismatches and
calls nothing that the tracer wraps.
"""

import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import calibrate
from latpack import approx, bounds, lattice, museq, thetaflow

# svp: instances per (dimension, entry size) cell in one pass.
SVP_PER_CELL = {4: 4, 5: 4, 6: 3, 7: 1}
SVP_SIZES = (10**2, 10**3, 10**6)
APPROX_DIMS = (3, 4, 5, 6)

# greedy: the (mu, dim) ladder; mu = 2, 3 rows have closed forms.
GREEDY_ROWS = (
    (2, 10), (3, 8), (4, 12), (6, 9), (8, 9),
    (10, 9), (12, 8), (14, 8), (16, 7),
)

# analytic: points drawn per seed.  Each eval_Y task takes points from a
# narrow band around one x; eval_F and tau/psi batches take the same number
# of points from every stratum (dimension, or band of x) of their pool.  So
# a task's cost barely depends on the draw.
ANALYTIC_Y_PER_TASK = 4
ANALYTIC_F_PER_BATCH = 40
ANALYTIC_THETA_BATCHES = 2

# Tolerances, none looser than the tier-1 tests use for the same values.
REL_EXACT = 1e-12   # direct evaluations: F, Y, tau, psi, densities
REL_ENVELOPE = 1e-10  # eval_C (golden-section to 1e-10), the d_n flow, the fit


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def load_reference(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def diff(actual, expected, rel, abs_tol=0.0, path="out"):
    """Mismatches between two JSON-like values; floats compared with isclose."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{path}: {actual!r} != {expected!r}"]
        if math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_tol):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel {rel})"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        out = []
        for key in expected:
            out += diff(actual[key], expected[key], rel, abs_tol, f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += diff(a, e, rel, abs_tol, f"{path}[{i}]")
        return out
    if actual != expected or type(actual) is not type(expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# --------------------------------------------------------------------- svp


def svp_compute(entries):
    s = lattice.SVector(tuple(entries))
    report = lattice.density_report(s)
    return {
        "minimum": report.minimum,
        "witness": list(report.witness),
        "determinant": report.determinant,
        "center_density": report.center_density,
        "certify_m": museq.certify(s, report.minimum),
        "certify_m1": museq.certify(s, report.minimum + 1),
    }


def svp_check(entries, out, expected):
    errors = []
    w = out["witness"]
    if _dot(w, entries) != 0 or not any(w):
        errors.append("witness is not a nonzero vector of the lattice")
    if _dot(w, w) != out["minimum"]:
        errors.append("witness norm differs from the minimum")
    if out["determinant"] != _dot(entries, entries):
        errors.append("determinant differs from sum of squares")
    if out["certify_m"] is not True or out["certify_m1"] is not False:
        errors.append("certify(s, m) / certify(s, m+1) verdicts wrong")
    return errors + diff(out, expected, REL_EXACT)


def approx_compute(gram, kappa):
    target = approx.TargetGram.from_matrix(gram)
    result = approx.approximate(target, kappa)
    report = approx.verify_approximation(target, result)
    return {
        "B": [list(row) for row in result.B],
        "v": list(result.v),
        "s": list(result.s),
        "gram_error": result.gram_error,
        "kernel_exact": report.kernel_exact,
        "saturation_det": report.saturation_det,
        "target_center_density": report.target_center_density,
        "lattice_center_density": report.lattice_center_density,
    }


def approx_check(out, expected):
    errors = []
    if any(_dot(row, out["v"]) != 0 for row in out["B"]) or out["v"][0] != 1:
        errors.append("B v != 0 or v_0 != 1")
    if abs(out["saturation_det"]) != 1 or out["kernel_exact"] is not True:
        errors.append("sublattice not saturated or kernel not exact")
    return errors + diff(out, expected, REL_EXACT)


def svp_inputs(ref, seed):
    """The seed's draw: SVP_PER_CELL instances per cell, one approx target per dim."""
    rng = random.Random(f"svp/{seed}")
    cells = []
    for n, count in SVP_PER_CELL.items():
        for size in SVP_SIZES:
            pool = ref["svp"]["cells"][f"{n}:{size}"]
            cells += [(f"svp n={n} size={size}", item) for item in rng.sample(pool, count)]
    targets = []
    for n in APPROX_DIMS:
        pool = [t for t in ref["svp"]["approx"] if len(t["gram"]) == n]
        targets.append((f"approx n={n}", rng.choice(pool)))
    return cells, targets


def build_svp(ref, seed, ctx):
    cells, targets = svp_inputs(ref, seed)
    tasks = []
    for label, item in cells:
        tasks.append(Task(
            label,
            lambda e=item["s"]: svp_compute(e),
            lambda out, item=item: svp_check(item["s"], out, item["expect"]),
        ))
    for label, item in targets:
        tasks.append(Task(
            f"{label} kappa={item['kappa']:g}",
            lambda item=item: approx_compute(item["gram"], item["kappa"]),
            lambda out, item=item: approx_check(out, item["expect"]),
        ))
    return tasks


# ------------------------------------------------------------------ greedy


def greedy_compute(mu, dim):
    seq = museq.greedy_sequence(mu, dim)
    return {"s": list(seq.s.entries), "certified": seq.certified}


def greedy_check(mu, dim, out, expected):
    errors = []
    s = out["s"]
    if mu == 2 and s != [1] * (dim + 1):
        errors.append("mu=2 closed form (all ones) fails")
    if mu == 3 and s != list(range(1, dim + 2)):
        errors.append("mu=3 closed form (1, 2, ..., n+1) fails")
    if out["certified"] is not True:
        errors.append("sequence not certified")
    for n in range(1, min(dim, len(s) - 1) + 1):
        first, second = museq.greedy_entry_bounds(mu, n)
        if s[n] > first + 1e-9 or s[n] > second + 1e-9:
            errors.append(f"entry {n} exceeds the greedy entry bounds")
    return errors + diff(out, expected, REL_EXACT)


def report_compute(entries):
    report = lattice.density_report(lattice.SVector(tuple(entries)))
    return {
        "minimum": report.minimum,
        "witness": list(report.witness),
        "center_density": report.center_density,
    }


def report_check(mu, dim, entries, out, expected):
    errors = []
    w = out["witness"]
    if _dot(w, entries) != 0 or _dot(w, w) != out["minimum"]:
        errors.append("witness not in the lattice or norm != minimum")
    if out["minimum"] < mu:
        errors.append("minimum below mu")
    if out["center_density"] < museq.greedy_density_bound(mu, dim) - 1e-15:
        errors.append("center density below the greedy density bound")
    return errors + diff(out, expected, REL_EXACT)


def obstruction_compute(prefix, mu, lo, hi):
    s = lattice.SVector(tuple(prefix))
    interval = museq.IntervalSpec.from_bounds(lo, hi, mu, len(prefix))
    report = museq.interval_obstructions(s, mu, interval)
    return {
        "k_max": report.k_max,
        "A": report.A,
        "obstructed": {str(k): v for k, v in report.obstructed.items()},
        "witness_counts": {str(k): list(v) for k, v in report.witness_counts.items()},
        "residue_counts": {str(k): v for k, v in report.residue_counts.items()},
        "union": report.union,
        "union_size": report.union_size,
    }


def obstruction_check(next_entry, lo, out, expected):
    """The greedy entry is the smallest value >= 1 not obstructed."""
    errors = []
    union = set(out["union"])
    if next_entry in union:
        errors.append("greedy entry is obstructed")
    if any(t not in union for t in range(max(lo, 1), next_entry)):
        errors.append("a value below the greedy entry is unobstructed")
    return errors + diff(out, expected, REL_EXACT)


def greedy_inputs(ref, seed):
    rng = random.Random(f"greedy/{seed}")
    return [(row, rng.choice(row["intervals"])) for row in ref["greedy"]["rows"]]


def row_compute(mu, dim, entries, lo, hi):
    """One ladder row: the sequence, its density report, and the obstructions
    met by the prefix's greedy extension in [lo, hi]."""
    return {
        "greedy": greedy_compute(mu, dim),
        "report": report_compute(entries),
        "obstructions": obstruction_compute(entries[:-1], mu, lo, hi),
    }


def row_check(row, interval, out):
    mu, dim, entries = row["mu"], row["dim"], row["expect"]["s"]
    return (greedy_check(mu, dim, out["greedy"], row["expect"])
            + report_check(mu, dim, entries, out["report"], row["report"])
            + obstruction_check(entries[-1], interval["lo"], out["obstructions"],
                                interval["expect"]))


def build_greedy(ref, seed, ctx):
    """One task per ladder row.  With only nine tasks the tail is the slowest
    row, which stands well clear of the next one."""
    tasks = []
    for row, interval in greedy_inputs(ref, seed):
        mu, dim, lo, hi = row["mu"], row["dim"], interval["lo"], interval["hi"]
        tasks.append(Task(
            f"greedy row mu={mu} dim={dim} [{lo}, {hi}]",
            lambda mu=mu, dim=dim, e=row["expect"]["s"], lo=lo, hi=hi: row_compute(
                mu, dim, e, lo, hi),
            lambda out, row=row, interval=interval: row_check(row, interval, out),
        ))
    return tasks


# ---------------------------------------------------------------- analytic


def c_compute(n, x):
    return {"C": bounds.eval_C(n, x)}


def c_check(n, x, out, expected):
    errors = []
    if n == 2 and x == 1.0 and abs(out["C"] - 2.0 / math.sqrt(3.0)) > 1e-9:
        errors.append("C_2(1) != 2/sqrt(3)")
    return errors + diff(out, expected, REL_ENVELOPE)


def y_compute(n, xs):
    ys = [bounds.eval_Y(n, x) for x in xs]
    return {"Y": ys, "F_at_Y": [bounds.eval_F(n, x, y) for x, y in zip(xs, ys)]}


def y_check(n, out, expected):
    errors = []
    volume = math.exp((n - 1) / 2.0 * math.log(math.pi) - math.lgamma((n - 1) / 2.0 + 1.0))
    if any(abs(f - 1.0 / volume) > 1e-9 for f in out["F_at_Y"]):
        errors.append("F_n(x, Y_n(x)) != 1/V_{n-1}")
    return errors + diff(out, expected, REL_EXACT)


def f_compute(points):
    return {"F": [bounds.eval_F(n, x, y) for n, x, y in points]}


def theorem1_compute(n, prev, cur):
    return {
        "residuals": [
            bounds.check_theorem1(n, prev, cur, form=form)
            for form in ("center", "density", "hermite")
        ],
        "marin_chain": list(bounds.marin_chain(n, prev, cur)),
    }


def theorem1_check(out, expected):
    errors = []
    values = out["residuals"]
    if max(values) - min(values) > 1e-10 * max(1.0, abs(values[0])):
        errors.append("the three forms disagree")
    if values[0] < -1e-12:
        errors.append("lifting inequality fails")
    lhs, mid, rhs = out["marin_chain"]
    if not (lhs <= mid + 1e-12 and mid <= rhs + 1e-12):
        errors.append("majorization chain out of order")
    return errors + diff(out, expected, REL_EXACT, abs_tol=1e-14)


def flow_compute(max_n, row_ns, ladder):
    trace = thetaflow.iterate_d(max_n)
    fit = thetaflow.asymptotic_fit(trace, tuple(ladder))
    rows = [trace.row(n) for n in row_ns]
    return {
        "rows": [[r.n, r.d, r.omega_iterate, r.scaled_diff, r.A] for r in rows],
        "xi": trace.xi,
        "fit": [fit.c0, fit.c1, fit.c2, fit.c3],
    }


def flow_check(out, expected):
    errors = []
    if abs(out["fit"][0] - out["xi"]) > 1e-4:
        errors.append("fit constant term differs from xi")
    return errors + diff(out, expected, REL_ENVELOPE)


def theta_compute(xs):
    taus = [thetaflow.tau(x) for x in xs]
    return {"tau": taus, "psi": [thetaflow.psi(t) for t in taus]}


def theta_check(xs, out, expected):
    errors = []
    for x, t, p in zip(xs, out["tau"], out["psi"]):
        if not (x / 2.0 - 1.0 < t < x / 2.0):
            errors.append(f"tau({x}) outside (x/2 - 1, x/2)")
        if t > 1e-12 and abs(p - x) > 1e-10 * max(1.0, x):
            errors.append(f"psi(tau({x})) != {x}")
    return errors + diff(out, expected, REL_EXACT)


def analytic_inputs(ref, seed):
    rng = random.Random(f"analytic/{seed}")
    a = ref["analytic"]
    y_points = [(item["n"], rng.sample(item["pool"], ANALYTIC_Y_PER_TASK))
                for item in a["Y"]]
    f_batches = []
    for batch in a["F"]:
        per_stratum = ANALYTIC_F_PER_BATCH // len(batch["strata"])
        points = [p for stratum in batch["strata"] for p in rng.sample(stratum, per_stratum)]
        f_batches.append((batch["name"], points))
    draws = [rng.sample(stratum, ANALYTIC_THETA_BATCHES) for stratum in a["theta"]]
    theta_batches = [[d[i] for d in draws] for i in range(ANALYTIC_THETA_BATCHES)]
    return y_points, f_batches, theta_batches


def build_analytic(ref, seed, ctx):
    a = ref["analytic"]
    y_points, f_batches, theta_batches = analytic_inputs(ref, seed)
    tasks = []
    for item in a["C"]:
        n, x = item["n"], item["x"]
        tasks.append(Task(
            f"eval_C n={n} x={x:.4g}",
            lambda n=n, x=x: c_compute(n, x),
            lambda out, n=n, x=x, item=item: c_check(n, x, out, item["expect"]),
        ))
    for n, points in y_points:
        tasks.append(Task(
            f"eval_Y n={n} x~{points[0]['x']:.3g} x{len(points)}",
            lambda n=n, xs=[p["x"] for p in points]: y_compute(n, xs),
            lambda out, n=n, points=points: y_check(n, out, {
                "Y": [p["Y"] for p in points], "F_at_Y": [p["F_at_Y"] for p in points]}),
        ))
    for name, points in f_batches:
        tasks.append(Task(
            f"eval_F {name} path x{len(points)}",
            lambda points=points: f_compute([p["nxy"] for p in points]),
            lambda out, points=points: diff(
                out, {"F": [p["expect"] for p in points]}, REL_EXACT),
        ))
    for item in a["theorem1"]:
        n, prev, cur = item["n"], item["delta_prev"], item["delta"]
        tasks.append(Task(
            f"check_theorem1 + marin_chain n={n}",
            lambda n=n, prev=prev, cur=cur: theorem1_compute(n, prev, cur),
            lambda out, item=item: theorem1_check(out, item["expect"]),
        ))
    flow = a["flow"]
    tasks.append(Task(
        f"iterate_d {flow['max_n']} + asymptotic_fit",
        lambda: flow_compute(flow["max_n"], flow["row_ns"], flow["ladder"]),
        lambda out: flow_check(out, flow["expect"]),
    ))
    for i, batch in enumerate(theta_batches):
        xs = [p["x"] for p in batch]
        tasks.append(Task(
            f"tau/psi batch {i}",
            lambda xs=xs: theta_compute(xs),
            lambda out, xs=xs, batch=batch: theta_check(xs, out, {
                "tau": [p["tau"] for p in batch], "psi": [p["psi"] for p in batch]}),
        ))
    return tasks


# ------------------------------------------------------------ verify-paper


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def verify_paper_compute(ctx):
    """`python -m latpack.cli verify paper` in a subprocess.

    While the command runs, this process times calibration chunks into
    ``ctx.waiting_chunks``: they measure the host's speed over the same
    seconds, which chunks timed before and after a task this long do not.
    """
    if ctx.traced:
        argv = [sys.executable, str(ctx.bench_dir / "trace_cli.py"),
                str(ctx.cli_trace), "verify", "paper"]
    else:
        argv = [sys.executable, "-m", "latpack.cli", "verify", "paper"]
    deadline = time.monotonic() + ctx.task_timeout
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ctx.root, env=ctx.env)
    try:
        while True:
            ctx.waiting_chunks += calibrate.timed_chunks(1)
            try:
                stdout, _ = proc.communicate(timeout=0.001)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return {"returncode": proc.returncode, "stdout": stdout}


def verify_paper_check(out, expected):
    if out["returncode"] != 0:
        return [f"exit code {out['returncode']}"]
    try:
        outputs = _strict_json(out["stdout"])["outputs"]
    except (ValueError, KeyError) as exc:
        return [f"stdout is not a strict JSON envelope: {exc}"]
    failing = [c["name"] for c in outputs["checks"] if not c["passed"]]
    got = {"passed": outputs["passed"], "failed": outputs["failed"], "failing": failing}
    return diff(got, expected, 0.0)


def build_verify_paper(ref, seed, ctx):
    expected = ref["verify-paper"]
    return [Task(
        "latpack verify paper",
        lambda: verify_paper_compute(ctx),
        lambda out: verify_paper_check(out, expected),
    )]


TASK_LISTS = {
    "svp": build_svp,
    "greedy": build_greedy,
    "analytic": build_analytic,
    "verify-paper": build_verify_paper,
}


def build(workload, ref, seed, ctx):
    """The workload's task list for this seed, in an order drawn from the seed.

    Shuffling spreads each kind of task over the pass, so no kind is always
    timed in the same part of it.
    """
    tasks = TASK_LISTS[workload](ref, seed, ctx)
    random.Random(f"{workload}/order/{seed}").shuffle(tasks)
    return tasks
