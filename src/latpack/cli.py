"""Command-line surface for the lattice construction toolkit.

Each subcommand is one row of `COMMANDS`: name, help, handler, options and
tolerance strings.  A handler takes the parsed options as keywords and
returns its outputs, or None once it has written CSV (`theta table --csv`).
`run` prints one strict-JSON envelope on stdout: the parsed options as
inputs, the outputs, and a meta block with the tool version, elapsed
milliseconds and tolerances.  Exit codes: 0 success, 1 input error,
2 resource-budget error, each error with one line on stderr.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, astuple, fields
from typing import Callable, NamedTuple

from . import __version__, approx, bounds, lattice, museq, thetaflow
from .acceptance import acceptance_sweep
from .errors import InputError, ResourceBudgetError
from .lattice import SVector


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, the value type of `--s` and `--ladder`."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"could not parse {text!r} as integers: {exc}") from exc


def _museq_greedy(mu, dim):
    seq = museq.greedy_sequence(mu, dim)
    return {"s": seq.s.entries, "certified": seq.certified}


def _museq_certify(s, mu):
    museq._check_mu(mu)
    minimum, witness = lattice.shortest_vector(lattice.basis_from_s(SVector(s)), upper=mu)
    certified = witness is None
    return {"certified": certified, "minimum_at_least": mu if certified else None,
            "violating_norm": None if certified else minimum,
            "witness": witness}


def _museq_obstructions(s, mu, lo, hi):
    s = SVector(s)
    interval = museq.IntervalSpec.from_bounds(lo, hi, mu, len(s.entries))
    report = museq.interval_obstructions(s, mu, interval)
    # String keys: the JSON text sorts them as strings, as it always has.
    return {
        "k_max": report.k_max,
        "A": report.A,
        "obstructed": {str(k): v for k, v in report.obstructed.items()},
        "witness_counts": {
            str(k): {"X_k0": v[0], "X_k0_primitive": v[1]}
            for k, v in report.witness_counts.items()
        },
        "residue_counts": {str(k): v for k, v in report.residue_counts.items()},
        "union": report.union,
        "union_size": report.union_size,
        "sigma": interval.sigma,
        "sigma_tilde": interval.sigma_tilde,
        "epsilon": interval.epsilon,
        "smallest_unobstructed": museq.smallest_unobstructed(report, interval),
    }


def _lattice_report(s):
    return asdict(lattice.density_report(SVector(s)))


def _bounds_cn(n, x):
    value = bounds.eval_C(n, x)
    return {"C": value,
            "center_density_bound": bounds.convert("hermite", "center", value, n)}


def _bounds_theorem1(n, delta_prev, delta, form):
    residual = bounds.check_theorem1(n, delta_prev, delta, form=form)
    return {"residual": residual, "holds": residual >= 0.0}


def _theta_table(max_n, csv):
    trace = thetaflow.iterate_d(max_n)
    if csv:
        lines = ([f.name for f in fields(thetaflow.FlowRow)], *map(astuple, trace.rows))
        sys.stdout.write("".join(",".join(map(str, v)) + "\r\n" for v in lines))
        return None
    return asdict(trace)


def _theta_fit(ladder):
    trace = thetaflow.iterate_d(max(ladder))
    fit = thetaflow.asymptotic_fit(trace, ladder)
    return dict(asdict(fit), xi=trace.xi)


def _approx(gram, kappa, verify):
    with open(gram, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise InputError(f"gram file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "gram" not in data:
        raise InputError("gram file needs a JSON object with a 'gram' field")
    target = approx.TargetGram.from_matrix(data["gram"])
    if "n" in data and target.n != data["n"]:
        raise InputError("gram file 'n' does not match the matrix size")
    result = approx.approximate(target, kappa)
    payload = dict(asdict(result), saturation_det=approx.saturation_determinant(result))
    if verify:
        payload["verification"] = asdict(approx.verify_approximation(target, result))
    return payload


def _verify_paper():
    checks = acceptance_sweep()  # looked up at call time, so a tracer can wrap it
    passed = sum(1 for c in checks if c["passed"])
    return {"checks": checks, "passed": passed, "failed": len(checks) - passed}


class Command(NamedTuple):
    name: str               # "group leaf", or one word for a top-level command
    help: str
    handler: Callable
    options: tuple          # (flags, add_argument keywords) pairs
    tolerances: dict = {}


def _opt(*flags, **kwargs):
    return flags, kwargs


_N = _opt("--n", type=int, required=True)
_X = _opt("--x", type=float, required=True)
_MU = _opt("--mu", type=int, required=True)
_S = _opt("--s", type=_int_list, required=True, help="comma-separated entries, s_0 = 1")
_SVP = {"svp": "exact integer arithmetic"}

GROUPS = {"museq": "mu-sequence construction", "lattice": "orthogonal-complement lattices",
          "bounds": "density inequality machinery", "theta": "theta-tail fixed-point flow",
          "verify": "verification sweeps"}

COMMANDS = (
    Command("museq greedy", "greedy mu-sequence", _museq_greedy,
            (_MU, _opt("--dim", type=int, required=True)),
            {"certificate": "prefix induction over exact forbidden-value bitsets"}),
    Command("museq certify", "certify minimum >= mu", _museq_certify, (_S, _MU), _SVP),
    Command("museq obstructions", "interval obstruction sets", _museq_obstructions,
            (_S, _MU, _opt("--lo", type=float, required=True),
             _opt("--hi", type=float, required=True)),
            {"enumeration": "exact"}),
    Command("lattice report", "exact minimum, determinant, densities",
            _lattice_report, (_S,),
            {"minimum": "exact", "determinant": "exact", "densities": "float64"}),
    Command("bounds f", "evaluate F_n(x, y)", lambda n, x, y: {"F": bounds.eval_F(n, x, y)},
            (_N, _X, _opt("--y", type=float, required=True)),
            {"F": "exact sum below crossover, Euler-Maclaurin above"}),
    Command("bounds y", "implicit inverse Y_n(x)",
            lambda n, x: {"Y": bounds.eval_Y(n, x)}, (_N, _X),
            {"Y": "bisection to float spacing"}),
    Command("bounds cn", "envelope C_n(x) and the density bound", _bounds_cn, (_N, _X),
            {"C": "sup over [x/100, x]: 256-point geometric grid over "
                  "t = sqrt(xi) Y_n(xi) with golden-section refinement"}),
    Command("bounds theorem1", "lifting inequality residual", _bounds_theorem1,
            (_N, _opt("--delta-prev", type=float, required=True),
             _opt("--delta", type=float, required=True),
             _opt("--form", choices=("density", "center", "hermite"), default="center")),
            {"residual": "float64 finite sum"}),
    Command("bounds mordell", "Mordell upper bound",
            lambda n, gamma: {"gamma_upper": bounds.mordell_upper(n, gamma)},
            (_N, _opt("--gamma", type=float, required=True))),
    Command("theta fixpoint", "xi = 1/tau(1) and the derivative",
            lambda: dict(zip(("xi", "derivative"), thetaflow.fixpoint())),
            (), {"tau": "truncated at 1e-15 relative"}),
    Command("theta table", "d_n recursion convergence table", _theta_table,
            (_opt("--max-n", type=int, required=True), _opt("--csv", action="store_true")),
            {"f_step": "bisection, 1e-12 relative"}),
    Command("theta fit", "asymptotic 1/n expansion fit", _theta_fit,
            (_opt("--ladder", type=_int_list, default="128,256,512,1024"),),
            {"fit": "exact 4-point Vandermonde solve"}),
    Command("approx", "integer approximation of a Gram target", _approx,
            (_opt("--gram", required=True, help="JSON file {n, gram}"),
             _opt("--kappa", type=float, required=True), _opt("--verify", action="store_true")),
            {"kernel": "exact", "gram_error": "float64 Frobenius"}),
    Command("verify paper", "run the full acceptance sweep", _verify_paper,
            (), {"sweep": "tolerances recorded per check"}),
)


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 with one stderr line.  The
    subparsers are built from the same class (`parser_class`)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latpack", description="dense lattices from orthogonal "
                     "complements, with exact certification and density-bound verification")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group and group not in groups:
            groups[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="subcommand", required=True)
        p = (groups[group] if group else top).add_parser(leaf, help=command.help)
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run_command=command)
    return parser


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def run(argv=None) -> int:
    try:
        # Parsing sits inside the try: a usage error, or a bad `--s` or
        # `--ladder`, is exit 1.
        args = vars(build_parser().parse_args(argv))
        command = args.pop("run_command")
        options = {k: v for k, v in args.items() if k not in ("command", "subcommand")}
        started = time.monotonic()
        outputs = command.handler(**options)
    except (InputError, OSError) as exc:
        return _fail(f"error: {exc}", 1)
    except ResourceBudgetError as exc:
        return _fail(f"resource budget exceeded: {exc} "
                     f"(estimate {exc.estimate}, budget {exc.budget})", 2)
    if outputs is None:
        return 0
    options.pop("csv", None)  # picks the output format; not an input
    meta = {"version": __version__, "tolerances": command.tolerances,
            "elapsed_ms": round(1000.0 * (time.monotonic() - started), 3)}
    envelope = {"command": command.name, "inputs": options, "outputs": outputs, "meta": meta}
    try:
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity
        return _fail(f"error: {exc}", 1)
    sys.stdout.write(text + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
