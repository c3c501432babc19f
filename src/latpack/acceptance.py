"""The paper's acceptance checks, kept in one registry.

`latpack verify paper` prints `acceptance_sweep()`, and the test suite's
acceptance gate (`tests/test_acceptance.py`) runs one test per criterion
over the same results, adding the runtime limits.  A check either compares a value
with an expected value at a tolerance, or returns a pass/fail verdict.
"""

import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import approx, bounds, constants, lattice, museq, thetaflow
from .lattice import SVector

#: n -> (d_n, Omega^(n-1)(2), n (d_n - Omega^(n-1)(2))), the reference
#: rows of the d_n convergence table out to dimension 1024.
D_TABLE = {
    1: (2.00000000, 2.00000000, 0.0),
    2: (3.62759873, 3.99997210, -0.7447467),
    4: (8.08369319, 7.92472241, 0.6358831),
    8: (18.71971890, 14.38756801, 34.6572071),
    16: (30.69030131, 20.71395996, 159.6214617),
    32: (29.45114255, 22.98242063, 206.9991014),
    64: (25.53248635, 23.13821340, 153.2334688),
    128: (24.17810739, 23.13882533, 133.0281029),
    256: (23.63011883, 23.13882534, 125.7711333),
    512: (23.37820694, 23.13882534, 122.5633803),
    1024: (23.25703467, 23.13882534, 121.0463495),
}


def brute_minimum(s: SVector) -> int:
    """Exhaustive lattice minimum, the oracle for enumeration: z_0 is
    forced by orthogonality, and the free coordinates of a shortest
    vector are bounded by the square root of the smallest basis-vector
    norm.  Every point of that box is evaluated exactly, one row of the
    last free coordinate x at a time: with p = <z, head> and q = |z|^2
    over the others, the row's norms are (p + x last)^2 + x^2 + q, from
    the pairs (x last, x^2) listed once; x = 0 leaves the row when q = 0,
    so the zero vector is never a candidate."""
    *head, last = tail = s.entries[1:]
    bound = math.isqrt(min(e * e + 1 for e in tail)) + 1
    xs = range(-bound, bound + 1)
    row = [(x * last, x * x) for x in xs]
    nonzero = [(a, b) for a, b in row if b]
    best = None
    for z in itertools.product(xs, repeat=len(head)):
        p = sum(map(operator.mul, z, head))
        q = sum(map(operator.mul, z, z))
        norm = min([(p + a) ** 2 + b for a, b in (row if q else nonzero)]) + q
        if best is None or norm < best:
            best = norm
    return best


def _delta(n):
    return constants.reference(n).center_density


def _density_bound(n, x):
    return bounds.convert("hermite", "center", bounds.eval_C(n, x), n)


class _Shared:
    """Values that several checks of one sweep use, computed once."""

    @cached_property
    def trace(self):
        return thetaflow.iterate_d(1024)

    @cached_property
    def random_s(self):
        # One seeded stream: 100 vectors for the determinant identity,
        # then 50 small ones for the enumeration oracle.
        rng = random.Random(12345)

        def draw(count, max_dim, max_entry):
            return [
                SVector((1,) + tuple(rng.randint(1, max_entry)
                                     for _ in range(rng.randint(1, max_dim))))
                for _ in range(count)
            ]

        return draw(100, 8, 50), draw(50, 4, 12)


def _convergence_table(shared):
    return all(
        abs(shared.trace.row(n).d - d) <= 1e-6
        and abs(shared.trace.row(n).omega_iterate - w) <= 1e-6
        and abs(shared.trace.row(n).scaled_diff - scaled) <= 5e-3
        for n, (d, w, scaled) in D_TABLE.items()
    )


def _greedy_closed_forms(shared):
    runs = [(museq.greedy_sequence(2, n), (1,) * (n + 1)) for n in range(1, 11)]
    runs += [(museq.greedy_sequence(3, n), tuple(range(1, n + 2)))
             for n in range(1, 7)]
    # the exact SVP, not `certified`, which rests on the construction itself
    return all(museq.certify(seq.s, seq.mu) and seq.s.entries == entries
               for seq, entries in runs)


def _greedy_bounds(shared):
    for mu in range(2, 13):
        seq = museq.greedy_sequence(mu, 8)
        for n in range(1, 9):
            if seq.s.entries[n] > min(museq.greedy_entry_bounds(mu, n)):
                return False
        report = lattice.density_report(seq.s)
        if report.center_density < museq.greedy_density_bound(mu, 8):
            return False
    return True


def _determinant_identity(shared):
    return all(
        lattice.gram_determinant(lattice.gram(lattice.basis_from_s(s)))
        == lattice.determinant(s)
        for s in shared.random_s[0]
    )


def _enumeration_oracle(shared):
    return all(
        lattice.shortest_vector(lattice.basis_from_s(s))[0] == brute_minimum(s)
        for s in shared.random_s[1]
    )


def _obstruction_invariants(shared):
    for mu in range(3, 13):
        for dim in (2, 3):
            s = museq.greedy_sequence(mu, dim).s
            nxt = museq.greedy_extend(s, mu)
            interval = museq.IntervalSpec.from_bounds(
                max(1, nxt - 3), nxt + 6, mu, len(s.entries)
            )
            report = museq.interval_obstructions(s, mu, interval)
            counts = report.witness_counts
            if any(len(ik) > counts[k][0] for k, ik in report.obstructed.items()):
                return False
            if report.union_size > sum(v[1] for v in counts.values()):
                return False
            blocked = set(report.union)
            for t in interval.integers():
                if museq.certify(s.extended(t), mu) != (t not in blocked):
                    return False
    return True


def _lifting_residuals():
    """The residual in each of the three forms, at n = 3, 9 and 25."""
    return [
        [bounds.check_theorem1(n, _delta(n - 1), _delta(n), form=form)
         for form in ("center", "density", "hermite")]
        for n in (3, 9, 25)
    ]


def _forms_agree(shared):
    return all(
        max(values) - min(values) <= 1e-10 * max(1.0, abs(values[0]))
        for values in _lifting_residuals()
    )


def _approximation(shared):
    rng = random.Random(777)
    targets = [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]]
    for n in (3, 4, 5):
        a = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
        targets.append([
            [sum(a[i][k] * a[j][k] for k in range(n)) + (4.0 if i == j else 0.0)
             for j in range(n)]
            for i in range(n)
        ])
    for g in targets:
        target = approx.TargetGram.from_matrix(g)
        r500 = approx.approximate(target, 500.0)
        r1000 = approx.approximate(target, 1000.0)
        for result in (r500, r1000):
            if any(sum(b * v for b, v in zip(row, result.v)) != 0
                   for row in result.B):
                return False
            if abs(approx.saturation_determinant(result)) != 1:
                return False
        if r1000.gram_error > 0.75 * r500.gram_error:
            return False
    return True


def _theta_brackets(shared):
    for i in range(50):
        x = math.exp(math.log(0.5) + i * (math.log(50.0) - math.log(0.5)) / 49.0)
        t = thetaflow.tau(x)
        if not x / 2.0 - 1.0 < t < x / 2.0:
            return False
        if t > 1e-12 and abs(thetaflow.psi(t) - x) > 1e-10 * x:
            return False
    return True


@dataclass(frozen=True)
class Check:
    """One acceptance check, under the criterion `NN_slug` it belongs to.

    `compute(shared)` returns a value, passing when |value - expected| <
    tolerance (`expected` may be a function of `shared`), or a pass/fail
    verdict when `expected` is None.  The test suite holds the runtime
    below `limit_s`; `known_discrepancy` says why a check is expected to
    fail.
    """

    criterion: str
    name: str
    compute: Callable
    expected: object = None
    tolerance: float | None = None
    limit_s: float | None = None
    known_discrepancy: str | None = None


CHECKS = (
    Check("01_tightness_at_n2", "C_2(1) = 2/sqrt(3)",
          lambda shared: bounds.eval_C(2, 1.0), 2.0 / math.sqrt(3.0), 1e-9,
          limit_s=1.0),
    Check("01_tightness_at_n2", "lifting residual at n=2",
          lambda shared: bounds.check_theorem1(2, _delta(1), _delta(2)), 0.0, 1e-12),
    Check("02_delta3_bound", "delta_3 bound",
          lambda shared: _density_bound(
              3, bounds.convert("center", "hermite", _delta(2), 2)),
          0.1695, 5e-4, limit_s=1.0),
    Check("03_delta9_bound", "delta_9 bound",
          lambda shared: _density_bound(9, 2.0), 0.0388, 5e-4, limit_s=1.0),
    Check("04_delta25_bound", "delta_25 bound",
          lambda shared: _density_bound(25, 4.0), 0.657, 5e-3, limit_s=1.0),
    Check("05_fixed_point", "fixed point xi = 1/tau(1)",
          lambda shared: thetaflow.fixpoint()[0], 23.13882534, 1e-7, limit_s=1.0),
    Check("05_fixed_point_derivative_quoted_value", "derivative at the fixed point",
          lambda shared: thetaflow.fixpoint()[1], 0.9135652, 1e-6,
          known_discrepancy="the quoted value 0.9135652 equals 1 - 2*tau(1), not "
          "the derivative of the transfer map; the implemented closed form "
          "1 - tau(1)/tau'(1) = 0.8408836 is confirmed by finite differences "
          "and by the empirical contraction rate of the iterates"),
    Check("06_convergence_table", "convergence table to n=1024",
          _convergence_table, limit_s=5.0),
    Check("07_asymptotic_fit", "fit constant term",
          lambda shared: thetaflow.asymptotic_fit(shared.trace).c0,
          lambda shared: thetaflow.fixpoint()[0], 1e-4),
    Check("07_asymptotic_fit", "fit 1/n coefficient",
          lambda shared: thetaflow.asymptotic_fit(shared.trace).c1,
          119.58193, 0.01 * 119.58193),
    Check("08_greedy_oracle_equivalence", "greedy closed forms (mu=2, mu=3)",
          _greedy_closed_forms, limit_s=30.0),
    Check("09_greedy_entry_and_density_bounds", "greedy entry and density bounds",
          _greedy_bounds),
    Check("10_exact_identities", "determinant identity on 100 random s",
          _determinant_identity),
    Check("10_exact_identities", "enumeration equals brute force on 50 instances",
          _enumeration_oracle),
    Check("11_obstruction_invariants", "obstruction-set invariants on 20 triples",
          _obstruction_invariants),
    Check("12_lifting_inequality_instances", "lifting inequality instances",
          lambda shared: all(values[0] >= 0.0 for values in _lifting_residuals())),
    Check("12_lifting_inequality_instances", "three equivalent forms agree",
          _forms_agree),
    Check("13_approximation", "approximation exactness and convergence",
          _approximation),
    Check("14_theta_brackets", "theta bracket and inversion", _theta_brackets),
)


def _run(check, shared):
    started = time.monotonic()
    value = check.compute(shared)
    result = {"name": check.name}
    if check.expected is None:
        result["passed"] = bool(value)
    else:
        expected = check.expected(shared) if callable(check.expected) else check.expected
        result.update(value=value, expected=expected, tolerance=check.tolerance,
                      passed=abs(value - expected) < check.tolerance)
    result["runtime_s"] = round(time.monotonic() - started, 3)
    return result


def acceptance_sweep():
    """Run every check in order; returns one JSON-ready dict per check."""
    shared = _Shared()
    return [_run(check, shared) for check in CHECKS]
