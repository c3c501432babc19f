"""Command-line surface for the lattice construction toolkit.

Every subcommand prints a JSON report envelope on stdout: the parsed
inputs, the command-specific payload, and a meta block with the tool
version, elapsed milliseconds and the tolerance settings in force.  The
theta table additionally supports CSV output.  Exit codes: 0 success,
1 input error, 2 resource-budget error.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict

from . import __version__, approx, bounds, lattice, museq, thetaflow
from .acceptance import acceptance_sweep
from .errors import InputError, ResourceBudgetError
from .lattice import SVector


def _parse_s(text: str) -> SVector:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"could not parse s from {text!r}: {exc}") from exc
    return SVector(entries)


def _envelope(command, inputs, outputs, started, tolerances=None):
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "meta": {
            "version": __version__,
            "elapsed_ms": round(1000.0 * (time.monotonic() - started), 3),
            "tolerances": tolerances or {},
        },
    }


def _emit(envelope) -> None:
    json.dump(envelope, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------- museq


def _cmd_museq_greedy(args, started):
    seq = museq.greedy_sequence(args.mu, args.dim)
    return _envelope(
        "museq greedy",
        {"mu": args.mu, "dim": args.dim},
        {"s": list(seq.s.entries), "certified": seq.certified},
        started,
        {"svp": "exact integer arithmetic"},
    )


def _cmd_museq_certify(args, started):
    s = _parse_s(args.s)
    minimum, witness = lattice.shortest_vector(
        lattice.basis_from_s(s), upper=args.mu
    )
    certified = witness is None
    return _envelope(
        "museq certify",
        {"s": list(s.entries), "mu": args.mu},
        {
            "certified": certified,
            "minimum_at_least": args.mu if certified else None,
            "violating_norm": None if certified else minimum,
            "witness": None if certified else list(witness),
        },
        started,
        {"svp": "exact integer arithmetic"},
    )


def _cmd_museq_obstructions(args, started):
    s = _parse_s(args.s)
    interval = museq.IntervalSpec.from_bounds(args.lo, args.hi, args.mu, len(s.entries))
    report = museq.interval_obstructions(s, args.mu, interval)
    return _envelope(
        "museq obstructions",
        {"s": list(s.entries), "mu": args.mu, "lo": args.lo, "hi": args.hi},
        {
            "k_max": report.k_max,
            "A": report.A,
            "obstructed": {str(k): v for k, v in report.obstructed.items()},
            "witness_counts": {
                str(k): {"X_k0": v[0], "X_k0_primitive": v[1]}
                for k, v in report.witness_counts.items()
            },
            "residue_counts": {
                str(k): v for k, v in report.residue_counts.items()
            },
            "union": report.union,
            "union_size": report.union_size,
            "sigma": interval.sigma,
            "sigma_tilde": interval.sigma_tilde,
            "epsilon": interval.epsilon,
            "smallest_unobstructed": museq.smallest_unobstructed(report, interval),
        },
        started,
        {"enumeration": "exact"},
    )


# -------------------------------------------------------------- lattice


def _cmd_lattice_report(args, started):
    s = _parse_s(args.s)
    report = lattice.density_report(s)
    payload = asdict(report)
    payload["witness"] = list(report.witness)
    return _envelope(
        "lattice report",
        {"s": list(s.entries)},
        payload,
        started,
        {"minimum": "exact", "determinant": "exact", "densities": "float64"},
    )


# --------------------------------------------------------------- bounds


def _cmd_bounds_f(args, started):
    if args.y is None:
        raise InputError("bounds f requires --y")
    value = bounds.eval_F(args.n, args.x, args.y)
    return _envelope(
        "bounds f",
        {"n": args.n, "x": args.x, "y": args.y},
        {"F": value},
        started,
        {"F": "exact sum below crossover, Euler-Maclaurin above"},
    )


def _cmd_bounds_y(args, started):
    value = bounds.eval_Y(args.n, args.x)
    return _envelope(
        "bounds y",
        {"n": args.n, "x": args.x},
        {"Y": value},
        started,
        {"Y": "bisection to float spacing"},
    )


def _cmd_bounds_cn(args, started):
    value = bounds.eval_C(args.n, args.x)
    delta_bound = bounds.convert("hermite", "center", value, args.n)
    return _envelope(
        "bounds cn",
        {"n": args.n, "x": args.x},
        {"C": value, "center_density_bound": delta_bound},
        started,
        {"C": "256-point geometric grid with golden-section refinement"},
    )


def _cmd_bounds_theorem1(args, started):
    residual = bounds.check_theorem1(
        args.n, args.delta_prev, args.delta, form=args.form
    )
    return _envelope(
        "bounds theorem1",
        {
            "n": args.n,
            "delta_prev": args.delta_prev,
            "delta": args.delta,
            "form": args.form,
        },
        {"residual": residual, "holds": residual >= 0.0},
        started,
        {"residual": "float64 finite sum"},
    )


def _cmd_bounds_mordell(args, started):
    value = bounds.mordell_upper(args.n, args.gamma)
    return _envelope(
        "bounds mordell",
        {"n": args.n, "gamma": args.gamma},
        {"gamma_upper": value},
        started,
    )


# ---------------------------------------------------------------- theta


def _cmd_theta_fixpoint(args, started):
    xi, deriv = thetaflow.fixpoint()
    return _envelope(
        "theta fixpoint",
        {},
        {"xi": xi, "derivative": deriv},
        started,
        {"tau": "truncated at 1e-15 relative"},
    )


def _theta_rows(max_n):
    trace = thetaflow.iterate_d(max_n)
    return trace, [asdict(row) for row in trace.rows]


def _cmd_theta_table(args, started):
    trace, rows = _theta_rows(args.max_n)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "d", "omega_iterate", "scaled_diff", "A"])
        for row in rows:
            writer.writerow(
                [row["n"], row["d"], row["omega_iterate"], row["scaled_diff"], row["A"]]
            )
        sys.stdout.write(buf.getvalue())
        return None
    return _envelope(
        "theta table",
        {"max_n": args.max_n},
        {"rows": rows, "xi": trace.xi, "xi_derivative": trace.xi_derivative},
        started,
        {"f_step": "bisection, 1e-12 relative"},
    )


def _cmd_theta_fit(args, started):
    ladder = tuple(int(x) for x in args.ladder.split(","))
    trace = thetaflow.iterate_d(max(ladder))
    fit = thetaflow.asymptotic_fit(trace, ladder)
    return _envelope(
        "theta fit",
        {"ladder": list(ladder)},
        {
            "c0": fit.c0,
            "c1": fit.c1,
            "c2": fit.c2,
            "c3": fit.c3,
            "xi": trace.xi,
        },
        started,
        {"fit": "exact 4-point Vandermonde solve"},
    )


# ---------------------------------------------------------------- approx


def _cmd_approx(args, started):
    with open(args.gram, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise InputError(f"gram file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "gram" not in data:
        raise InputError("gram file needs a JSON object with a 'gram' field")
    target = approx.TargetGram.from_matrix(data["gram"])
    if "n" in data and target.n != data["n"]:
        raise InputError("gram file 'n' does not match the matrix size")
    result = approx.approximate(target, args.kappa)
    payload = {
        "kappa": result.kappa,
        "B": [list(row) for row in result.B],
        "v": list(result.v),
        "s": list(result.s),
        "gram_error": result.gram_error,
        "saturation_det": approx.saturation_determinant(result),
    }
    if args.verify:
        report = approx.verify_approximation(target, result)
        payload["verification"] = asdict(report)
    return _envelope(
        "approx",
        {"gram": args.gram, "kappa": args.kappa, "verify": args.verify},
        payload,
        started,
        {"kernel": "exact", "gram_error": "float64 Frobenius"},
    )


# ------------------------------------------------------------ verify paper


def _cmd_verify_paper(args, started):
    checks = acceptance_sweep()
    return _envelope(
        "verify paper",
        {},
        {
            "checks": checks,
            "passed": sum(1 for c in checks if c["passed"]),
            "failed": sum(1 for c in checks if not c["passed"]),
        },
        started,
        {"sweep": "tolerances recorded per check"},
    )


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latpack",
        description="dense lattices from orthogonal complements, with "
        "exact certification and density-bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_museq = sub.add_parser("museq", help="mu-sequence construction")
    museq_sub = p_museq.add_subparsers(dest="subcommand", required=True)

    p = museq_sub.add_parser("greedy", help="greedy mu-sequence")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_museq_greedy)

    p = museq_sub.add_parser("certify", help="certify minimum >= mu")
    p.add_argument("--s", required=True, help="comma-separated entries, s_0 = 1")
    p.add_argument("--mu", type=int, required=True)
    p.set_defaults(func=_cmd_museq_certify)

    p = museq_sub.add_parser("obstructions", help="interval obstruction sets")
    p.add_argument("--s", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.set_defaults(func=_cmd_museq_obstructions)

    p_lat = sub.add_parser("lattice", help="orthogonal-complement lattices")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p = lat_sub.add_parser("report", help="exact minimum, determinant, densities")
    p.add_argument("--s", required=True)
    p.set_defaults(func=_cmd_lattice_report)

    p_bounds = sub.add_parser("bounds", help="density inequality machinery")
    bounds_sub = p_bounds.add_subparsers(dest="subcommand", required=True)

    p = bounds_sub.add_parser("f", help="evaluate F_n(x, y)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float)
    p.set_defaults(func=_cmd_bounds_f)

    p = bounds_sub.add_parser("y", help="implicit inverse Y_n(x)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_bounds_y)

    p = bounds_sub.add_parser("cn", help="envelope C_n(x) and the density bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_bounds_cn)

    p = bounds_sub.add_parser("theorem1", help="lifting inequality residual")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta-prev", type=float, required=True, dest="delta_prev")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--form", choices=("density", "center", "hermite"),
                   default="center")
    p.set_defaults(func=_cmd_bounds_theorem1)

    p = bounds_sub.add_parser("mordell", help="Mordell upper bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_bounds_mordell)

    p_theta = sub.add_parser("theta", help="theta-tail fixed-point flow")
    theta_sub = p_theta.add_subparsers(dest="subcommand", required=True)

    p = theta_sub.add_parser("fixpoint", help="xi = 1/tau(1) and the derivative")
    p.set_defaults(func=_cmd_theta_fixpoint)

    p = theta_sub.add_parser("table", help="d_n recursion convergence table")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_theta_table)

    p = theta_sub.add_parser("fit", help="asymptotic 1/n expansion fit")
    p.add_argument("--ladder", default="128,256,512,1024")
    p.set_defaults(func=_cmd_theta_fit)

    p = sub.add_parser("approx", help="integer approximation of a Gram target")
    p.add_argument("--gram", required=True, help="JSON file {n, gram}")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_approx)

    p_verify = sub.add_parser("verify", help="verification sweeps")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("paper", help="run the full acceptance sweep")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        envelope = args.func(args, started)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(
            f"resource budget exceeded: {exc} "
            f"(estimate {exc.estimate}, budget {exc.budget})",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if envelope is not None:
        _emit(envelope)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
