"""Theta-tail dynamics behind the existence bound.

tau(x) = sum_{k>=1} exp(-pi (k/x)^2) is half the third Jacobi theta
function minus 1/2; psi is its inverse, Omega(x) = x psi(1/x) the
transfer map with attracting fixed point xi = 1/tau(1), and the d_n
recursion follows the per-dimension implicit maps f_n whose limit is
Omega.  tau and tau' share one series, and psi and f_n one root solver,
`numth.bisect_increasing`: a bisection whose midpoints an Illinois
bracket decides, started next to the root from a guess where there is
one.  `iterate_d` guesses each d_(n+1) and each Omega ratio from the two
before it, so its solves return plain bisection's floats from an eighth
of the cap-sum calls and a fortieth of the tau calls.  f_n's left side
is `numth.cap_sum`, whose log1p power terms make dimension 1024 routine.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import lattice, numth
from .errors import InputError, check_budget


#: Relative truncation of the theta series.
_TAU_TOL = 1e-15

#: Past this x, tau and tau' use the Jacobi identity instead of their
#: ~3.3x-term series.
_JACOBI_X = 64.0

#: Below this x, exp(-pi / x^2) underflows, so tau and tau' are 0.0; the
#: series would overflow (k/x)^2 or x^-3 past x ~ 1e-103.
_UNDERFLOW_X = 0.05


def _tail(x: float, power: int) -> float:
    """sum_{k>=1} k^power exp(-pi (k/x)^2), up to the first term that
    underflows or falls below _TAU_TOL times the partial sum."""
    total = 0.0
    for k in itertools.count(1):
        term = math.exp(-math.pi * (k / x) ** 2)
        if power:  # k**0 on every term of tau would cost a fifth of its time
            term *= k**power
        if term == 0.0 or term < _TAU_TOL * total:
            return total
        total += term


def tau(x: float) -> float:
    """Truncated theta tail sum_{k>=1} exp(-pi (k/x)^2); the neglected
    tail is dominated by twice the first dropped term.

    Past _JACOBI_X, the Jacobi identity tau(x) = x/2 - 1/2 + x tau(1/x)
    gives x/2 - 1/2: x tau(1/x) < 2 x exp(-pi x^2) underflows to 0.
    """
    if not x > 0:  # also refuses NaN
        raise InputError(f"tau requires x > 0, got {x}")
    if x > _JACOBI_X:
        return 0.5 * x - 0.5
    if x < _UNDERFLOW_X:
        return 0.0
    return _tail(x, 0)


def tau_derivative(x: float) -> float:
    """tau'(x) = (2 pi / x^3) sum k^2 exp(-pi (k/x)^2); 1/2, the derivative
    of x/2 - 1/2, past _JACOBI_X."""
    if not x > 0:  # also refuses NaN
        raise InputError(f"tau_derivative requires x > 0, got {x}")
    if x > _JACOBI_X:
        return 0.5
    if x < _UNDERFLOW_X:
        return 0.0
    return 2.0 * math.pi / x**3 * _tail(x, 2)


def psi(t: float, guess: float | None = None) -> float:
    """Inverse of tau, bisected on (2t, 2t + 2) to 1e-13 * max(1, hi).

    Unless a guess is given, the solver starts from one of its own.  Below
    t = 0.1, where tau(x) = exp(-pi / x^2) (1 + O(t^3)), that is
    sqrt(pi / -ln t).  From t = 0.1, the Jacobi form
    tau(x) = x/2 - 1/2 + x tau(1/x), with tau(1/x) ~ exp(-pi x^2), gives
    x = 2 (t + 1/2 - x exp(-pi x^2)), iterated twice from x = 2t + 1.
    """
    if not 0 < 2.0 * t < math.inf:  # also refuses NaN
        raise InputError(f"psi requires t > 0 with 2t finite, got {t}")
    if guess is None and t < 0.1:
        guess = math.sqrt(-math.pi / math.log(t))
    elif guess is None:
        guess = 2.0 * t + 1.0
        for _ in range(2):  # guess^2 may overflow to inf, where exp gives 0.0
            guess = 2.0 * (t + 0.5 - guess * math.exp(-math.pi * guess * guess))
    # tau(x) < x/2 gives tau(lo) < t; x/2 - 1 < tau(x) gives tau(hi) > t.
    return numth.bisect_increasing(
        tau, t, max(2.0 * t, 1e-300), 2.0 * t + 2.0, rtol=1e-13, what="psi",
        guess=guess)


def omega(x: float) -> float:
    """Transfer map Omega(x) = x psi(1/x); always > 2."""
    if x <= 0:
        raise InputError(f"omega requires x > 0, got {x}")
    return x * psi(1.0 / x)


def fixpoint():
    """Fixed point xi = 1/tau(1) and the derivative 1 - tau(1)/tau'(1)."""
    t1 = tau(1.0)
    return 1.0 / t1, 1.0 - t1 / tau_derivative(1.0)


def f_step(n: int, x: float, guess: float | None = None) -> float:
    """Implicit per-dimension map: solve for y in

        x * sum_{k=1}^{floor(y V_n / (x V_{n+1}))}
            (1 - k^2 (x V_{n+1} / (y V_n))^2)^(n/2) = 1.

    The left side is continuous and nondecreasing in y, zero for small y
    and unbounded, so bisection (to 1e-12 * max(1, hi)) is well posed.  A
    guess next to the root (`iterate_d` passes 2 d_n - d_(n-1)) saves
    calls and changes no float.
    """
    if n < 1 or not 0 < x < math.inf:  # also refuses NaN
        raise InputError("f_step requires n >= 1 and a finite x > 0")
    ratio = math.exp(numth.log_ball_volume(n + 1) - numth.log_ball_volume(n))

    def lhs(y):
        return x * numth.cap_sum(x * ratio / y, n / 2.0)

    lo = x * ratio
    return numth.bisect_increasing(
        lhs, 1.0, lo, 2.0 * lo, rtol=1e-12, what="f_step", guess=guess)


@dataclass(frozen=True)
class FlowRow:
    n: int
    d: float
    omega_iterate: float
    scaled_diff: float
    A: int


@dataclass(frozen=True)
class FlowTrace:
    rows: tuple
    xi: float
    xi_derivative: float

    def row(self, n: int) -> FlowRow:
        return self.rows[n - 1]


def _flow_terms(max_n: int) -> float:
    """About how many cap-sum terms `iterate_d(max_n)` sums: each row's
    `f_step` makes about 5 solver calls (4.9-9.8 a row, counted at
    max_n = 16 to 4096; the first rows, with no guess or a poor one, make
    the most), each over about V_n / V_(n+1) ~ sqrt(n / 2 pi) terms near
    its root, and sum_{n <= N} sqrt(n) ~ (2/3) N^1.5; inf past float
    range."""
    try:
        return 5.0 * (2.0 / 3.0) * float(max_n) ** 1.5 / math.sqrt(2.0 * math.pi)
    except OverflowError:
        return math.inf


def iterate_d(max_n: int) -> FlowTrace:
    """Run d_1 = 2, d_{n+1} = f_n(d_n) with the parallel Omega iterates,
    refused before the first row when `_flow_terms` is over the budget."""
    if max_n < 1:
        raise InputError(f"iterate_d requires max_n >= 1, got {max_n}")
    estimate = _flow_terms(max_n)
    check_budget(estimate, lattice.enum_budget(),
                 f"the d_n flow to n = {max_n} needs about {estimate:.3g} cap-sum terms")
    xi, deriv = fixpoint()
    rows = []
    d = prev_d = 2.0
    w = 2.0
    roots = []  # the roots psi(1 / w) = omega(w) / w so far
    settled = False  # omega(w) == w: every later iterate is w as well
    a_n = 0
    for n in range(1, max_n + 1):
        if n > 1:
            guess = 2.0 * d - prev_d if n > 2 else None
            prev_d, d = d, f_step(n - 1, d, guess)
            if not settled:
                # w converges linearly, so root - 1 shrinks about
                # geometrically; it is never 0, as w would have settled
                guess = roots[-1] if roots else None
                if len(roots) > 1:
                    guess = 1.0 + (roots[-1] - 1.0) ** 2 / (roots[-2] - 1.0)
                roots.append(psi(1.0 / w, guess))
                next_w = w * roots[-1]  # omega(w)
                settled = next_w == w
                w = next_w
            a_n = math.floor(
                d * math.exp(numth.log_ball_volume(n - 1) - numth.log_ball_volume(n))
                / prev_d
            )
        rows.append(
            FlowRow(n=n, d=d, omega_iterate=w, scaled_diff=n * (d - w), A=a_n)
        )
    return FlowTrace(rows=tuple(rows), xi=xi, xi_derivative=deriv)


@dataclass(frozen=True)
class AsymptoticFit:
    c0: float
    c1: float
    c2: float
    c3: float


def asymptotic_fit(trace: FlowTrace, ladder=(128, 256, 512, 1024)) -> AsymptoticFit:
    """Fit d_n = c0 + c1/n + c2/n^2 + c3/n^3 through four ladder points, by
    exact Gauss-Jordan on the Vandermonde system in 1/n (its leading minors
    are Vandermonde, so no pivot is zero); only the result is rounded."""
    if len(ladder) != 4 or len(set(ladder)) != 4 or min(ladder) < 1:
        raise InputError("ladder must contain four distinct positive indices")
    if max(ladder) > len(trace.rows):
        raise InputError("trace does not reach the requested ladder")
    rows = [[Fraction(1, n) ** k for k in range(4)] + [Fraction(trace.row(n).d)]
            for n in ladder]
    for i, r in itertools.permutations(range(4), 2):  # clear column i in row r
        f = rows[r][i] / rows[i][i]
        rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    c0, c1, c2, c3 = (float(rows[i][4] / rows[i][i]) for i in range(4))
    return AsymptoticFit(c0=c0, c1=c1, c2=c2, c3=c3)
