"""Density inequality machinery.

Evaluates the Moebius-weighted sum F_n(x, y) (term by term with
`numth.cap_sum`, or by Euler-Maclaurin with a cap-integral recurrence past
a term-count crossover), its implicit inverse Y_n(x) defined by
F_n(x, Y_n(x)) = 1/V_{n-1}, the increasing envelope
C_n(x) = sup ξ Y_n(ξ)^{2/n}, instance checks of the dimension-lifting
inequality in its three equivalent forms (each a prefactor and a cap-sum
step derived from its own scale's variables), Mordell's upper bound and
the elementary chain that recovers the 2^{1-n} packing bound.
"""

import functools
import math

from . import numth
from .errors import InputError, ResourceBudgetError

_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Term-by-term summation cap; beyond this the Moebius-swapped
#: Euler-Maclaurin evaluation takes over (it gets *more* accurate as the
#: term count grows, and is within ~1e-9 at the crossover).
_K_EXACT = 20000


def _cap_integral(p, c):
    """J_p(c) = integral_0^c (1 - u^2)^p du, p in {0, 1/2, 1, ...}, by the
    integration-by-parts recurrence J_q = (c (1-c^2)^q + 2q J_{q-1}) / (2q+1)
    up from J_0 = c or J_{1/2} = (c sqrt(1-c^2) + asin c) / 2: no cancellation."""
    s = (1.0 - c) * (1.0 + c)
    if p == int(p):
        q, j = 0.0, c
    else:
        q, j = 0.5, 0.5 * (c * math.sqrt(s) + math.asin(c))
    while q < p:
        q += 1.0
        j = (c * s**q + 2.0 * q * j) / (2.0 * q + 1.0)
    return j


def _eval_F_large(n, x, y, kmax):
    """F via sum over Moebius indices l of S(l) = sum_m g(l m / y).

    Each S(l) is a Riemann sum of g(t) = (x - t^2)^((n-1)/2) with tiny
    spacing l/y, evaluated by Euler-Maclaurin with the integral
    x^(p+1/2) `_cap_integral`(p, b/sqrt(x)), p = (n-1)/2.  S(l) is about
    S(1)/l, so the indices past L add at most about 1/((n-1) L^(n-1)) times
    S(1), and F is about S(1)/zeta(n).  L is where that bound is 1e-13, but
    at most 30,000 indices.  The cap binds at n = 3 alone (the formula gives
    2.2e6 there), where the bound is 5.6e-10 of S(1); 7e-13 of F was seen
    for y from 1e6 to 1e12 at x = 1.
    """
    p = (n - 1) / 2.0
    sqx = math.sqrt(x)
    lmax = min(kmax, max(2, math.ceil((1e13 / (n - 1)) ** (1.0 / (n - 1)))), 30000)
    g0 = x**p
    mu = numth.mobius_table(lmax)
    total = 0.0
    for l in range(1, lmax + 1):
        if mu[l] == 0:
            continue
        h = l / y
        b = min(kmax // l * h, sqx)  # kmax // l >= 1: l <= lmax <= kmax
        # g'(b) = -(n-1) b (x - b^2)^((n-3)/2) stays -2b at n = 3 where b
        # reaches sqrt(x): with the base clamped at 0, 0.0 ** 0.0 is 1.
        base = max(x - b * b, 0.0)
        integral = x ** (p + 0.5) * _cap_integral(p, b / sqx)
        g_b = base**p
        gp_b = -(n - 1) * b * base ** ((n - 3) / 2.0)
        s_l = integral / h + 0.5 * (g_b - g0) + (h / 12.0) * gp_b
        total += mu[l] / l ** (n - 1) * s_l
    return total


def _check_nx(what: str, n: int, x: float) -> None:
    if n < 2:
        raise InputError(f"{what} requires n >= 2, got {n}")
    if not 0.0 < x < math.inf:  # also refuses NaN
        raise InputError(f"{what} requires a finite x > 0, got {x}")


def eval_F(n: int, x: float, y: float) -> float:
    """F_n(x, y) = sum_{k <= sqrt(x) y} w(k, n) (x - (k/y)^2)^((n-1)/2)."""
    _check_nx("eval_F", n, x)
    if not 0.0 <= y < math.inf:
        raise InputError(f"eval_F requires a finite y >= 0, got {y}")
    if y <= 1.0 / math.sqrt(x):
        return 0.0
    terms = math.sqrt(x) * y
    # Euler-Maclaurin converges like the (n-3)rd derivative at the cell
    # scale; n = 3, 4 need a much later crossover than n >= 5.
    threshold = _K_EXACT if n <= 4 else 400
    try:
        if terms < threshold + 1 or n == 2:  # floor(terms) <= threshold
            p = (n - 1) / 2.0
            return x**p * numth.cap_sum(1.0 / terms, p, n)
        return _eval_F_large(n, x, y, math.floor(terms))
    except OverflowError as exc:
        raise InputError(f"F_{n}({x}, {y}) overflows a float") from exc


def eval_Y(n: int, x: float) -> float:
    """Solve F_n(x, y) = 1/V_{n-1} for y, bisecting to float spacing.

    F is nondecreasing and continuous in y, zero at y = 1/sqrt(x), so
    `numth.bisect_increasing` from there is safe.  Every weight is at
    most 1 and the summand decreases in k, so F is at most its Riemann
    integral y x^(n/2) V_n / (2 V_{n-1}), and the root is at least
    est = 2 / (V_n x^(n/2)): the bracket starts at max(2/sqrt(x), est),
    and a root whose lower bound is past float range is refused before
    the first evaluation, as is a target 1/V_{n-1} past float range (from
    n = 437).

    At n = 2 every term is summed one by one.  For x <= 1 the root lies
    below 2 est (Y_2 / est tends to zeta(2), and measured at most 1.82), so
    from est the solver doubles the bracket at most once, and a doubled
    bracket past the term cap is refused before the first sum.
    """
    _check_nx("eval_Y", n, x)
    volume = numth.ball_volume(n - 1)
    if volume == 0.0 or 1.0 / volume == math.inf:
        raise InputError(f"Y_{n}({x}) needs 1/V_{n - 1}, which lies past float range")
    try:
        log_est = math.log(2.0) - numth.log_ball_volume(n) - (n / 2.0) * math.log(x)
        est = math.exp(log_est)
    except OverflowError as exc:
        raise InputError(f"Y_{n}({x}) lies past float range") from exc
    lo = 1.0 / math.sqrt(x)
    hi = max(2.0 * lo, est)
    if n == 2:
        numth.check_mobius_terms(2.0 * math.sqrt(x) * hi, f"Y_2({x})")
    return numth.bisect_increasing(
        lambda y: eval_F(n, x, y), 1.0 / volume, lo, hi, rtol=0.0, what="eval_Y",
    )


def eval_C(n: int, x: float) -> float:
    """Envelope C_n(x), estimated as the sup over x/100 <= ξ <= x of
    ξ Y_n(ξ)^(2/n).

    By scaling, F_n(ξ, y) = ξ^p F_n(1, √ξ y) with p = (n-1)/2, so on the
    curve F_n(ξ, Y_n(ξ)) = 1/V_{n-1} the variable t = √ξ Y_n(ξ) gives
    ξ = (V_{n-1} F_n(1, t))^(-1/p) and ξ Y_n(ξ)^(2/n) =
    (t / (V_{n-1} F_n(1, t)))^(2/n).  F_n(1, ·) is increasing (every
    Moebius weight is positive), so ξ decreases in t and the sup is over
    t in [t(x), t(x/100)]: two `eval_Y` solves find that interval, then
    each sample is one `eval_F`.  The sup is searched on a geometric grid
    over the t-interval with a golden-section refinement of the best
    bracket; the value at t(x) is taken from x and Y_n(x) directly.  A
    sample whose ξ exceeds x takes no part: near t = 1, float resolution
    rounds t below t(x), and at t = 1 itself F_n(1, t) is 0.0.
    """
    _check_nx("eval_C", n, x)
    need = f"C_{n}({x}) needs Y_{n}(x/100)"  # a refusal names the x given
    if x / 100.0 == 0.0:
        raise InputError(f"{need}, and x/100 underflows to 0")
    try:
        y_left = eval_Y(n, x / 100.0)
    except InputError as exc:
        raise InputError(f"{need}: {exc}") from exc
    except ResourceBudgetError as exc:
        raise ResourceBudgetError(f"{need}: {exc}", exc.estimate, exc.budget) from exc
    vol = numth.ball_volume(n - 1)
    t_hi = math.sqrt(x / 100.0) * y_left
    y_right = eval_Y(n, x)
    t_lo = math.sqrt(x) * y_right
    x_p = x ** ((n - 1) / 2.0)  # a float: eval_F computed it to solve for Y_n(x)

    def value(t):
        scaled = vol * eval_F(n, 1.0, t)  # ξ^(-p)
        return (t / scaled) ** (2.0 / n) if scaled * x_p >= 1.0 else 0.0

    points = 256
    ratio = (t_hi / t_lo) ** (1.0 / (points - 1))
    grid = [t_lo * ratio**i for i in range(points)]
    grid[-1] = t_hi
    values = [x * y_right ** (2.0 / n)] + [value(t) for t in grid[1:]]
    best = max(range(points), key=values.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, points - 1)]
    # Golden-section refinement of the bracketed maximum.
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = value(c), value(d)
    # A relative stop near float spacing may never be met.
    while b - a > 1e-12 * b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = value(d)
    refined = max(fc, fd)
    return max(refined, max(values))


def convert(kind_from: str, kind_to: str, value: float, n: int) -> float:
    """Convert among density, center-density and Hermite-constant scales."""
    if value <= 0:
        raise InputError("conversion requires a positive value")
    kinds = ("density", "center", "hermite")
    if kind_from not in kinds or kind_to not in kinds:
        raise InputError(f"kinds must be one of {kinds}")
    if kind_from == "density":
        delta = value / numth.ball_volume(n)
    elif kind_from == "center":
        delta = value
    else:
        # 2^(-n) gamma^(n/2); with gamma = C_n(x) it is the density bound.
        delta = math.exp(-n * math.log(2.0) + (n / 2.0) * math.log(value))
    if kind_to == "density":
        return delta * numth.ball_volume(n)
    if kind_to == "center":
        return delta
    return 4.0 * delta ** (2.0 / n)


def _lhs_center(n: int, delta_prev: float, delta_cur: float) -> float:
    """Center-density form of the lifting inequality, left-hand side."""
    vol = numth.ball_volume(n - 1)
    return 2.0 ** (n - 1) * delta_prev * vol * numth.cap_sum(
        delta_prev / (2.0 * delta_cur), (n - 1) / 2.0, n
    )


def _lhs_density(n: int, density_prev: float, density_cur: float) -> float:
    vn1 = numth.ball_volume(n - 1)
    vn = numth.ball_volume(n)
    return 2.0 ** (n - 1) * density_prev * numth.cap_sum(
        density_prev * vn / (2.0 * density_cur * vn1), (n - 1) / 2.0, n
    )


def _lhs_hermite(n: int, gamma_prev: float, gamma_cur: float) -> float:
    p = (n - 1) / 2.0
    step = math.exp(p * math.log(gamma_prev) - (n / 2.0) * math.log(gamma_cur))
    return numth.ball_volume(n - 1) * gamma_prev**p * numth.cap_sum(step, p, n)


#: The left side of the lifting inequality on each form's own scale.
_LHS = {"center": _lhs_center, "density": _lhs_density, "hermite": _lhs_hermite}


def _leaves_float_range(n):
    return InputError(f"the lifting inequality at n = {n} leaves float range")


def _lifting(evaluate):
    """Refuse n < 2 and center densities that are not finite and positive,
    and turn a float overflow or underflow of `evaluate` into InputError."""
    @functools.wraps(evaluate)
    def guarded(n, delta_prev, delta_cur, *args, **kwargs):
        if n < 2:
            raise InputError(f"{evaluate.__name__} requires n >= 2, got {n}")
        if not (0.0 < delta_prev < math.inf and 0.0 < delta_cur < math.inf):
            raise InputError("densities must be finite and positive")
        try:
            return evaluate(n, delta_prev, delta_cur, *args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            # 2^(n-1) overflows, or V_n underflows to 0, past n ~ 1000
            raise _leaves_float_range(n) from exc
    return guarded


@_lifting
def check_theorem1(n, delta_prev, delta_cur, form="center"):
    """LHS - 1 residual of the lifting inequality in the chosen form.

    Inputs are center densities regardless of form; the density and
    Hermite forms are evaluated after algebraic conversion and must
    agree with the center form to high accuracy.
    """
    lhs = _LHS.get(form)
    if lhs is None:
        raise InputError(f"unknown form {form!r}")
    prev = convert("center", form, delta_prev, n - 1)
    cur = convert("center", form, delta_cur, n)
    if prev == 0.0 or cur == 0.0:  # e.g. gamma_1 = 4 delta_1^2 underflows
        raise _leaves_float_range(n)
    return lhs(n, prev, cur) - 1.0


def mordell_upper(n: int, gamma_prev: float) -> float:
    """Mordell's bound gamma_n <= gamma_{n-1}^((n-1)/(n-2))."""
    if n < 3:
        raise InputError(f"mordell_upper requires n >= 3, got {n}")
    if not 0.0 < gamma_prev < math.inf:
        raise InputError("gamma must be finite and positive")
    try:
        return gamma_prev ** ((n - 1) / (n - 2))
    except OverflowError as exc:
        msg = f"the Mordell bound for gamma = {gamma_prev} overflows a float"
        raise InputError(msg) from exc


@_lifting
def marin_chain(n: int, delta_prev: float, delta_cur: float):
    """The three stages of the elementary majorization chain.

    Stage 1 is the lifting-inequality LHS, stage 2 drops the Moebius
    weights and rescales each summand, stage 3 majorizes the Riemann sum
    by the half-ball integral, giving 2^(n-1) Delta_n.
    """
    lhs = _lhs_center(n, delta_prev, delta_cur)
    step = delta_prev / (2.0 * delta_cur)
    # an inf step leaves the sum empty: 0.0, as in stage 1, not inf * 0
    mid = step * numth.cap_sum(step, (n - 1) / 2.0) if step < math.inf else 0.0
    mid *= 2.0**n * delta_cur * numth.ball_volume(n - 1)
    rhs = 2.0 ** (n - 1) * delta_cur * numth.ball_volume(n)
    return lhs, mid, rhs

