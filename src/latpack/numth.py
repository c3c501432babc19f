"""Number-theoretic and geometric scalar primitives.

Arrays of mu(k) and of F_n's Moebius weights (each one correctly rounded
ratio of integers) off one smallest-prime-factor table, the one cap sum
behind F_n, the lifting inequality, the majorization chain and f_n,
unit-ball volumes via log-Gamma (safe up to dimensions in the thousands),
the ball-point counting bound and the exact counts by norm (the theta series
coefficients) used to budget the museq ball table, and the root solver
behind Y_n, psi and f_n: one bisection loop whose midpoints an Illinois
bracket decides wherever it can, started next to the root when the caller
has a guess.
"""

import math
from array import array

from .errors import InputError, check_budget

#: The largest Moebius argument, where the tables stop (5 MB, and 8 MB for
#: each weight exponent), and the most terms a Moebius-weighted sum may have.
_MOBIUS_CAP = 10**6

#: _SPF[k] is k's smallest prime factor, _MU[k] is mu(k), _WEIGHTS[m][k] is w(k).
_SPF = array("i", [0, 1])
_MU = array("b", [0, 1])
_WEIGHTS = {}


def _factor_table(k: int) -> array:
    """`_SPF`, grown by doubling to cover k, never past `_MOBIUS_CAP`."""
    if not 1 <= k <= _MOBIUS_CAP:
        raise InputError(f"Moebius arguments lie in [1, {_MOBIUS_CAP}], got {k}")
    while len(_SPF) <= k:
        old = len(_SPF)
        new = min(2 * old, _MOBIUS_CAP + 1)
        _SPF.extend(range(old, new))
        # every prime up to sqrt(new) < old is already in the table; the
        # smallest prime dividing an entry writes it last
        for p in range(math.isqrt(new - 1), 1, -1):
            if _SPF[p] == p:
                start = max(p * p, -(-old // p) * p)
                _SPF[start:new:p] = array("i", [p]) * len(range(start, new, p))
    return _SPF


def mobius_table(k: int) -> array:
    """`_MU`, grown to cover k off `_factor_table`(k)."""
    spf = _factor_table(k)
    for j in range(len(_MU), k + 1):  # j = p r, p = spf[j]: mu(j) is 0 if p | r, else -mu(r)
        p, r = spf[j], j // spf[j]
        _MU.append(0 if spf[r] == p else -_MU[r])
    return _MU


def check_mobius_terms(terms: float, what: str) -> None:
    """Refuse a sum over more than `_MOBIUS_CAP` terms before it starts,
    not at its first term past the cap, after summing all the others."""
    check_budget(terms, _MOBIUS_CAP, f"{what} needs {terms:.3g} terms")


def mobius_weights(n: int, k: int) -> array:
    """w[j] = prod_{p | j} (1 - p^-m) = sum_{l | j} mu(l) / l^m, m = n - 1, as one
    correctly rounded int/int ratio, for 1 <= j <= k at least.  m stops at 64: from
    m = 55 on, 1 minus w[j] is at most sum_{i >= 2} i^-m < 2^-54, so it rounds to 1.0."""
    if n < 2:
        raise InputError(f"mobius_weights requires n >= 2, got {n}")
    spf = _factor_table(k)
    m = min(n - 1, 64)
    w = _WEIGHTS.setdefault(m, array("d", [0.0, 1.0]))
    for j in range(len(w), k + 1):
        num, den, r = 1, 1, j
        while r > 1:
            p = spf[r]
            q = p**m
            num, den = num * (q - 1), den * q
            while r % p == 0:
                r //= p
        w.append(num / den)
    return w


def cap_sum(h: float, p: float, n: int | None = None) -> float:
    """sum_{k >= 1, (k h)^2 < 1} w(k) (1 - (k h)^2)^p, where w(k) is
    `mobius_weights`(n, k)[k] when n is given and 1 when it is not.

    The sum has about 1/h terms; past `_MOBIUS_CAP` of them (h = 0 or
    1/h not finite included) it is refused before the first term.
    """
    terms = 1.0 / h if h > 0.0 else math.inf
    check_mobius_terms(terms, "the term-by-term sum")
    kmax = math.floor(terms)  # k h < 1 gives k < 1/h, so k <= fl(1/h): no term is missed
    w = None if n is None else mobius_weights(n, max(kmax, 1))
    total = 0.0
    for k in range(1, kmax + 1):
        t = (k * h) ** 2
        if t >= 1.0:  # fl(k h) is nondecreasing in k
            break
        term = math.exp(p * math.log1p(-t))
        total += term if w is None else w[k] * term
    return total


def log_ball_volume(n: int) -> float:
    """log of the volume of the n-dimensional unit ball."""
    if n < 0:
        raise InputError(f"log_ball_volume requires n >= 0, got {n}")
    return (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)


def ball_volume(n: int) -> float:
    """Volume pi^(n/2) / (n/2)! of the n-dimensional unit ball."""
    return math.exp(log_ball_volume(n))


def ball_point_count_bound(n: int, mu: int) -> float:
    """Upper bound 2 * sqrt(mu + n/4)^n * V_n on the number of integer
    points of squared norm <= mu in dimension n; inf past float range."""
    if n < 1 or mu < 1:
        raise InputError(f"ball_point_count_bound requires n, mu >= 1")
    try:
        return 2.0 * math.exp(
            (n / 2.0) * math.log(mu + n / 4.0) + log_ball_volume(n)
        )
    except OverflowError:  # mu or the bound does not fit in a float
        return math.inf


def theta_coefficients(n: int, mu: int) -> list[int]:
    """[r_n(0), ..., r_n(mu)]: r_n(m) integer points of squared norm m in
    dimension n, the coefficients of theta_Z(q)^n = (1 + 2q + 2q^4 + ...)^n.
    One dimension at a time, in about n (mu + 1) (isqrt(mu) + 1) steps."""
    if n < 1 or mu < 0:
        raise InputError(f"theta_coefficients requires n >= 1, mu >= 0; got {n}, {mu}")
    counts = [0] * (mu + 1)
    for x in range(math.isqrt(mu) + 1):
        counts[x * x] = 2 if x else 1
    for _ in range(n - 1):
        new = counts[:]
        for x in range(1, math.isqrt(mu) + 1):
            new[x * x:] = [a + 2 * b for a, b in zip(new[x * x:], counts)]
        counts = new
    return counts


#: F_n's Euler-Maclaurin path is nondecreasing only to a few ulps (up to
#: 4 seen near Y_n's root): the bisection calls f on the midpoints this
#: close to the Illinois bracket instead of deciding them.
_NOISE_ULPS = 16

#: The most points a walk from a guess calls; a walk that has not crossed
#: the root by then leaves the rest to the doublings and the bisection.
_WALK_CALLS = 64

#: A walk's second point lies this many stop widths from the guess: far
#: enough that f's rounding barely tilts the secant through the two (at one
#: stop width, f_step's secant roots missed by 1-8 stop widths), near
#: enough that its curvature does not.
_PROBE_STOPS = 100


def _walk(g, lo, x, stop):
    """The bracket a < b, g(a) < 0 <= g(b), of the points a walk from
    x > lo calls: x, then x `_PROBE_STOPS` stop widths towards the root,
    then a quarter stop width past the secant root of those two, then steps
    that double, until a point lands on the root's far side or the walk
    would reach lo.  g(lo) < 0 is given: a = lo has g(a) = -inf, and
    b = inf has g(b) = inf."""
    a, ga, b, gb = lo, -math.inf, math.inf, math.inf
    gx = g(x)
    up = gx < 0
    if not up:
        stop = -stop
    step = _PROBE_STOPS * stop
    for calls in range(1, _WALK_CALLS + 1):
        if gx < 0:
            a, ga = x, gx
        else:
            b, gb = x, gx
        if (gx < 0) != up or calls == _WALK_CALLS:
            break
        if calls == 2 and gx != g_prev:
            secant = (x - x_prev) * (gx / (g_prev - gx)) + 0.25 * stop
            if secant / stop > 0.0:  # False for NaN, or a root behind x
                step = secant
        elif calls > 2:
            step *= 2.0
        x_prev, g_prev = x, gx
        x += step
        if not lo < x < math.inf:
            break
        gx = g(x)
    return a, ga, b, gb


def bisect_increasing(f, target, lo, hi, rtol, what, guess=None) -> float:
    """Solve f(y) = target for f nondecreasing as computed, f(lo) < target:
    double hi until f(hi) >= target, then bisect until
    hi - lo <= rtol * max(1, hi) or float spacing; returns the midpoint,
    the float plain bisection returns, whatever the guess.

    One loop is that bisection.  A bracket a < b with
    f(a) < target <= f(b) decides, without a call, each doubled hi and
    each midpoint more than `_NOISE_ULPS` ulps outside [a, b].  A guess
    in (lo, inf) starts the bracket next to the root by a `_walk` from
    it; without one, the doublings start it.  A midpoint inside (a, b)
    first narrows the bracket by Illinois steps (regula falsi with the
    Illinois modification, Dowell & Jarratt 1971) for as long as each
    cycle of three halves it; then f is called at the midpoint.  f(lo) is
    never called, and f is never called twice at one point.
    """
    known = {}  # g = f - target at the points called so far

    def g(x):
        gx = known.get(x)
        if gx is None:
            gx = known[x] = f(x) - target
        return gx

    # The bracket.  g(lo) < 0 is given, not called: its -inf makes the secant
    # point NaN, so f is called at midpoints until a is a called point.
    a, ga, b, gb = lo, -math.inf, math.inf, math.inf
    if guess is not None and lo < guess < math.inf:
        a, ga, b, gb = _walk(
            g, lo, guess, max(rtol * max(1.0, guess), 2 * _NOISE_ULPS * math.ulp(guess)))
    margin = _NOISE_ULPS * math.ulp(b if b < math.inf else a)
    doublings = 0
    while hi < b + margin:  # else g(hi) >= 0 is decided
        if hi > a - margin:
            gh = g(hi)
            if a < hi < b:
                if gh < 0:
                    a, ga = hi, gh
                else:
                    b, gb, margin = hi, gh, _NOISE_ULPS * math.ulp(hi)
            if gh >= 0:
                break
        hi *= 2.0
        doublings += 1
        if doublings > 200:  # 2^200 times any start still fits a double
            raise InputError(f"{what} bracket expansion failed to converge")
    side, w1, w2, w3 = 0, math.inf, math.inf, math.inf  # the last three widths
    lo_cut, hi_cut = a - margin, b + margin  # g < 0 at or below, g >= 0 at or above
    # max(1, hi) without a call: this loop runs about 44 times a solve
    while hi - lo > rtol * (hi if hi > 1.0 else 1.0):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if lo < mid <= lo_cut:
            lo = mid
            continue
        if hi_cut <= mid < hi:
            hi = mid
            continue
        if mid <= lo or mid >= hi:
            break
        # Illinois steps until mid is decided, or a cycle of three has not
        # halved the bracket; then a call at mid
        while True:
            x, width = mid, b - a
            if a < mid < b and width <= 0.5 * w3:
                # the secant point, kept half a stop width (or an ulp) inside
                # the bracket, so that a root next to b or a closes it
                step = 0.5 * rtol * (b if b > 1.0 else 1.0)
                ulp = math.ulp(b)
                if step < ulp:
                    step = ulp
                s = a + width * (ga / (ga - gb))
                if s < a + step:
                    s = a + step
                if s > b - step:
                    s = b - step
                if a < s < b:  # False for NaN
                    x = s
            # no point inside (a, b) has been called: only mid may have been
            gx = known.get(x) if x == mid else None
            if gx is None:
                gx = known[x] = f(x) - target
            if a < x < b:
                w3, w2, w1 = w2, w1, width
                if gx < 0:
                    a, ga = x, gx
                    if side < 0:  # a moved twice running: halve g(b)
                        gb *= 0.5
                    side = -1
                else:
                    b, gb, margin = x, gx, _NOISE_ULPS * math.ulp(x)
                    if side > 0:
                        ga *= 0.5
                    side = 1
                lo_cut, hi_cut = a - margin, b + margin
            if x == mid:
                if gx < 0:
                    lo = mid
                else:
                    hi = mid
                break
            if mid <= lo_cut:
                lo = mid
                break
            if mid >= hi_cut:
                hi = mid
                break
    return 0.5 * lo + 0.5 * hi
