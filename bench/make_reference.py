"""Regenerate bench/reference.json: input pools and the program's outputs.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

The pools are drawn from MASTER_SEED, so the file is reproducible; the
expected outputs are whatever the checked-out program computes.  Only
regenerate it when an output is meant to change, and say so in the change.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from latpack import __version__, bounds, constants  # noqa: E402

MASTER_SEED = 20061017
SVP_POOL = 16          # instances per (dimension, size) cell
APPROX_POOL = 6        # targets per dimension (three per kappa)
INTERVALS_PER_ROW = 6
Y_POOL = 12            # x values per dimension
Y_BAND = 0.02          # they lie within x0 * exp(+-Y_BAND)
F_STRATUM = 16         # eval_F points per dimension and path
THETA_STRATA = 50      # log-spaced bands of x in [0.5, 50] for tau/psi
THETA_STRATUM = 4      # points per band

C_GRID = ((2, 1.0), (3, 1.2), (4, 1.5), (7, 1.7), (9, 2.0), (12, 2.2),
          (16, 2.5), (20, 3.0), (25, 4.0))
# eval_Y centres: at the C grid's x, F_n takes the term-by-term path; at
# x = 0.03, Y_n(x) is large and F_n (n >= 5) takes Euler-Maclaurin.
Y_CENTRES = {2: 1.0, 3: 1.2, 4: 1.5, 9: 2.0, 16: 2.5, 25: 4.0,
             5: 0.03, 6: 0.03, 8: 0.03, 12: 0.03}
FLOW_MAX_N = 1024
FLOW_ROWS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
FLOW_LADDER = (128, 256, 512, 1024)


def spd_target(rng, n):
    a = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    return [
        [sum(a[i][k] * a[j][k] for k in range(n)) + (4.0 if i == j else 0.0)
         for j in range(n)]
        for i in range(n)
    ]


def make_svp(rng):
    cells = {}
    for n in W.SVP_PER_CELL:
        for size in W.SVP_SIZES:
            pool = []
            for _ in range(SVP_POOL):
                s = [1] + [rng.randint(1, size) for _ in range(n)]
                pool.append({"s": s, "expect": W.svp_compute(s)})
            cells[f"{n}:{size}"] = pool
            print(f"svp cell n={n} size={size}", flush=True)
    targets = []
    for n in W.APPROX_DIMS:
        for i in range(APPROX_POOL):
            gram = spd_target(rng, n)
            kappa = 100.0 if i % 2 == 0 else 1000.0
            targets.append({"gram": gram, "kappa": kappa,
                            "expect": W.approx_compute(gram, kappa)})
    return {"cells": cells, "approx": targets}


def make_greedy(rng):
    rows = []
    for mu, dim in W.GREEDY_ROWS:
        expect = W.greedy_compute(mu, dim)
        s = expect["s"]
        intervals = []
        for _ in range(INTERVALS_PER_ROW):
            lo = max(1, s[-1] - rng.randint(0, 12))
            hi = s[-1] + rng.randint(0, 12)
            intervals.append({
                "lo": lo, "hi": hi,
                "expect": W.obstruction_compute(s[:-1], mu, lo, hi),
            })
        rows.append({"mu": mu, "dim": dim, "expect": expect,
                     "report": W.report_compute(s), "intervals": intervals})
        print(f"greedy row mu={mu} dim={dim}", flush=True)
    return {"rows": rows}


def make_analytic(rng):
    c = [{"n": n, "x": x, "expect": W.c_compute(n, x)} for n, x in C_GRID]
    print("analytic C grid", flush=True)
    y = []
    for n, centre in sorted(Y_CENTRES.items()):
        pool = []
        for _ in range(Y_POOL):
            x = centre * math.exp(rng.uniform(-Y_BAND, Y_BAND))
            out = W.y_compute(n, [x])
            pool.append({"x": x, "Y": out["Y"][0], "F_at_Y": out["F_at_Y"][0]})
        y.append({"n": n, "pool": pool})
    # kmax = sqrt(x) y stays <= 100 on the first path and >= 700 on the second.
    f_batches = []
    for name, dims, xs, ys in (("exact", range(2, 7), (0.5, 4.0), (1.0, 50.0)),
                               ("large", range(5, 13), (0.5, 2.0), (1000.0, 5000.0))):
        strata = []
        for n in dims:
            stratum = []
            for _ in range(F_STRATUM):
                x, yv = rng.uniform(*xs), rng.uniform(*ys)
                stratum.append({"nxy": [n, x, yv], "expect": bounds.eval_F(n, x, yv)})
            strata.append(stratum)
        f_batches.append({"name": name, "strata": strata})
    theta = []
    width = math.log(100.0) / THETA_STRATA
    for band in range(THETA_STRATA):
        stratum = []
        for _ in range(THETA_STRATUM):
            x = 0.5 * math.exp((band + rng.random()) * width)
            out = W.theta_compute([x])
            stratum.append({"x": x, "tau": out["tau"][0], "psi": out["psi"][0]})
        theta.append(stratum)
    delta = {n: constants.reference(n).center_density for n in (2, 3, 8, 24)}
    instances = ((2, 0.5, 1.0 / (2.0 * math.sqrt(3.0))), (3, delta[2], delta[3]),
                 (9, delta[8], 0.0442), (25, delta[24], 0.707))
    theorem1 = [
        {"n": n, "delta_prev": prev, "delta": cur,
         "expect": W.theorem1_compute(n, prev, cur)}
        for n, prev, cur in instances
    ]
    flow = {"max_n": FLOW_MAX_N, "row_ns": list(FLOW_ROWS), "ladder": list(FLOW_LADDER)}
    flow["expect"] = W.flow_compute(FLOW_MAX_N, FLOW_ROWS, FLOW_LADDER)
    return {
        "C": c, "Y": y,
        "F": f_batches,
        "theta": theta, "theorem1": theorem1, "flow": flow,
    }


def make_verify_paper():
    proc = subprocess.run(
        [sys.executable, "-m", "latpack.cli", "verify", "paper"],
        capture_output=True, text=True, check=True,
    )
    outputs = json.loads(proc.stdout)["outputs"]
    return {
        "passed": outputs["passed"],
        "failed": outputs["failed"],
        "failing": [c["name"] for c in outputs["checks"] if not c["passed"]],
    }


def main():
    started = time.monotonic()
    rng = random.Random(MASTER_SEED)
    ref = {
        "made_with": {"latpack": __version__, "python": sys.version.split()[0],
                      "master_seed": MASTER_SEED},
        "svp": make_svp(rng),
        "greedy": make_greedy(rng),
        "analytic": make_analytic(rng),
        "verify-paper": make_verify_paper(),
    }
    with open(BENCH / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(ref, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote reference.json in {time.monotonic() - started:.1f}s")


if __name__ == "__main__":
    main()
