import contextlib
import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latpack import bounds, numth, thetaflow
from latpack.errors import InputError

# mu(1)..mu(20)
MOBIUS_FIRST_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
                   -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def test_mobius_small_values():
    mu = numth.mobius_table(30)
    assert mu[1] == 1
    assert mu[12] == 0
    assert mu[30] == -1
    assert list(mu[1:21]) == MOBIUS_FIRST_20


def test_mobius_rejects_nonpositive():
    with pytest.raises(InputError):
        numth.mobius_table(0)
    with pytest.raises(InputError):
        numth.mobius_table(-3)


def test_mobius_rejects_past_the_cap():
    with pytest.raises(InputError):
        numth.mobius_table(numth._MOBIUS_CAP + 1)
    with pytest.raises(InputError):
        numth.mobius_weights(2, numth._MOBIUS_CAP + 1)


@settings(deadline=None)  # an early example may fill `_MU` to 250,000
@given(st.integers(min_value=1, max_value=500),
       st.integers(min_value=1, max_value=500))
def test_mobius_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) == 1:
        mu = numth.mobius_table(a * b)
        assert mu[a * b] == mu[a] * mu[b]


def _mobius_oracle(k):
    """mu(k) by trial division."""
    result = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    return -result if k > 1 else result


def _mobius_weight_oracle(k, n):
    """sum_{l | k} mu(l) / l^(n-1) over every divisor l, exact, then rounded."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    divisors = small + [k // d for d in reversed(small) if d * d != k]
    return float(sum(Fraction(_mobius_oracle(l), l ** (n - 1)) for l in divisors))


@contextlib.contextmanager
def empty_tables():
    """`numth`'s three tables emptied, and restored together afterwards."""
    tables = numth._SPF, numth._MU, numth._WEIGHTS
    numth._SPF, numth._MU, numth._WEIGHTS = array("i", [0, 1]), array("b", [0, 1]), {}
    try:
        yield
    finally:
        numth._SPF, numth._MU, numth._WEIGHTS = tables


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**19), min_size=1, max_size=6),
       st.sampled_from((2, 3, 9, 25, 55, 56, 2000)), st.booleans())
def test_factor_table_matches_trial_division(ks, n, descending):
    """Equal to trial division and the exact divisor sum, on tables grown
    from empty by ascending or descending arguments."""
    with empty_tables():
        for k in sorted(ks, reverse=descending):
            assert numth.mobius_table(k)[k] == _mobius_oracle(k)
            assert numth.mobius_weights(n, k)[k] == _mobius_weight_oracle(k, n)


@pytest.mark.parametrize("n", (2, 55, 56, 2000))
def test_tables_reach_the_cap(n):
    """Grown from empty to `_MOBIUS_CAP`, where the last doubling stops
    short, the tables end at the cap, and their top entries equal trial
    division and the exact divisor sum, on each side of the rounding rule."""
    cap = numth._MOBIUS_CAP
    with empty_tables():
        mu, w = numth.mobius_table(cap), numth.mobius_weights(n, cap)
        assert len(numth._SPF) == len(mu) == len(w) == cap + 1
        for k in range(cap - 100, cap + 1):
            assert mu[k] == _mobius_oracle(k)
            assert w[k] == _mobius_weight_oracle(k, n)


def _phi(k):
    """Euler's phi(k) by trial division, in integers."""
    phi, p = k, 2
    while p * p <= k:
        if k % p == 0:
            phi -= phi // p
            while k % p == 0:
                k //= p
        p += 1
    return phi - phi // k if k > 1 else phi


def test_mobius_weight_examples():
    """Correctly rounded: phi(k) / k at n = 2, and 1.0 once m = n - 1 >= 55."""
    assert numth.mobius_weights(5, 1)[1] == 1.0
    assert numth.mobius_weights(3, 2)[2] == 0.75
    assert list(numth.mobius_weights(2, 2000)[1:2001]) == [
        _phi(k) / k for k in range(1, 2001)]
    assert numth.mobius_weights(55, 30030)[30030] == 0.9999999999999999
    assert all(w == 1.0 for w in numth.mobius_weights(56, 2000)[1:2001])


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=2, max_value=9))
def test_mobius_weight_euler_product(k, n):
    product = 1.0
    m = k
    p = 2
    while p * p <= m:
        if m % p == 0:
            product *= 1.0 - p ** -(n - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        product *= 1.0 - m ** -(n - 1)
    assert numth.mobius_weights(n, k)[k] == pytest.approx(product, rel=1e-12)


def test_ball_volume_closed_forms():
    assert numth.ball_volume(1) == pytest.approx(2.0)
    assert numth.ball_volume(2) == pytest.approx(math.pi)
    assert numth.ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert numth.ball_volume(0) == pytest.approx(1.0)


def test_log_ball_volume_matches_volume():
    for n in range(1, 30):
        assert math.exp(numth.log_ball_volume(n)) == pytest.approx(
            numth.ball_volume(n), rel=1e-12
        )


def test_ball_point_count_bound_examples():
    assert numth.ball_point_count_bound(1, 1) == pytest.approx(
        4.0 * math.sqrt(1.25), rel=1e-9
    )
    assert numth.ball_point_count_bound(2, 2) == pytest.approx(
        2.0 * 2.5 * math.pi, rel=1e-9
    )
    # past float range the bound is inf, not an OverflowError
    assert numth.ball_point_count_bound(1, 10**400) == math.inf
    assert numth.ball_point_count_bound(400, 10**6) == math.inf


def _exact_ball_count(n, mu):
    import itertools

    r = math.isqrt(mu)
    return sum(
        1
        for z in itertools.product(range(-r, r + 1), repeat=n)
        if sum(x * x for x in z) <= mu
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mu", [1, 2, 4, 9, 16])
def test_ball_point_count_bound_dominates_exact_count(n, mu):
    exact = _exact_ball_count(n, mu)
    assert sum(numth.theta_coefficients(n, mu)) == exact
    assert numth.ball_point_count_bound(n, mu) >= exact


def test_theta_coefficients_in_high_dimension():
    # theta_Z(q)^25 = 1 + 50 q + 4 C(25, 2) q^2 + 8 C(25, 3) q^3
    #                 + (2 C(25, 1) + 16 C(25, 4)) q^4 + ...
    assert numth.theta_coefficients(25, 4) == [1, 50, 1200, 18400, 202450]
    assert sum(numth.theta_coefficients(25, 4)) < numth.ball_point_count_bound(25, 4)
    with pytest.raises(InputError):
        numth.theta_coefficients(0, 4)


def plain_bisect(f, target, lo, hi, rtol, what, guess=None):
    """The oracle: plain bisection, evaluating f at every midpoint; the
    guess is ignored."""
    doublings = 0
    while f(hi) < target:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise InputError(f"{what} bracket expansion failed to converge")
    while hi - lo > rtol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def by_plain_bisection(solve):
    """solve() with the oracle behind every caller of the solver."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numth, "bisect_increasing", plain_bisect)
        return solve()


def counting(monkeypatch, module, name):
    """Wrap module.name to count its calls; returns the count list."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestBisectIncreasing:
    def test_rtol_zero_stops_at_adjacent_floats(self):
        t = 1.0 / 3.0
        root = numth.bisect_increasing(lambda y: y, t, 0.0, 1.0, rtol=0.0, what="id")
        assert root in (math.nextafter(t, 0.0), t)

    def test_within_rtol_of_known_root(self):
        # hi = 0.5 is below the last two roots, so those double the bracket
        for target in (0.001, 2.0, 1e6):
            root = numth.bisect_increasing(
                lambda y: y**3, target, 0.0, 0.5, rtol=1e-9, what="cube"
            )
            exact = target ** (1.0 / 3.0)
            assert abs(root - exact) <= 1e-9 * max(1.0, exact)

    def test_unreachable_target_raises_after_cap(self):
        calls = []

        def flat(y):
            calls.append(y)
            return 0.0

        with pytest.raises(InputError, match="flat bracket expansion failed"):
            numth.bisect_increasing(flat, 1.0, 0.0, 1.0, rtol=1e-12, what="flat")
        assert calls[-1] == 2.0**200

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 0.99), st.integers(1, 8),
           st.sampled_from([0.0, 1e-13, 1e-6]))
    def test_step_function_matches_plain_bisection(self, c, steps, rtol):
        def f(y):
            return math.floor(steps * (y - c))

        for target in (0.0, 0.5, 1.0):
            assert (numth.bisect_increasing(f, target, 0.0, 1.0, rtol, "step")
                    == plain_bisect(f, target, 0.0, 1.0, rtol, "step"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(-3.0, 12.0),
           st.floats(0.1, 1.0), st.sampled_from([0.0, 1e-12, 1e-9]))
    def test_doubled_bracket_matches_plain_bisection(self, power, log_target,
                                                     hi, rtol):
        def f(y):
            return y**power

        target = 10.0**log_target
        assert (numth.bisect_increasing(f, target, 0.0, hi, rtol, "power")
                == plain_bisect(f, target, 0.0, hi, rtol, "power"))

    def test_never_calls_f_at_lo_or_twice_at_a_point(self):
        calls = []

        def f(y):
            calls.append(y)
            return y**3

        numth.bisect_increasing(f, 2.0, 0.25, 0.5, rtol=0.0, what="cube")
        assert 0.25 not in calls and len(calls) == len(set(calls))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.3, 1e3), st.sampled_from([0.0, 1e-13, 1e-12]))
    def test_never_calls_f_at_lo_or_twice_at_a_point_on_noisy_f(self, root, rtol):
        # y^3 off by a deterministic noise of up to 4 ulps, inside _NOISE_ULPS:
        # the midpoints next to the bracket are called, and some were called
        # before as bracket points
        calls = []

        def f(y):
            calls.append(y)
            v = y**3
            return v + (hash(y) % 9 - 4) * math.ulp(v)

        target = root**3
        y = numth.bisect_increasing(f, target, 0.25, 0.5, rtol, "noisy")
        assert 0.25 not in calls and len(calls) == len(set(calls))
        assert y == plain_bisect(f, target, 0.25, 0.5, rtol, "noisy")

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.3, 1e3), st.sampled_from([0.0, 1e-13, 1e-12]),
           st.sampled_from(["below lo", "inside", "at the root", "far past"]),
           st.floats(0.0, 1.0), st.booleans())
    def test_any_guess_gives_plain_bisection(self, root, rtol, where, frac, noisy):
        # "below lo" includes lo itself; "far past" lies beyond the doubled hi
        calls = []

        def f(y):
            calls.append(y)
            v = y**3
            return v + (hash(y) % 9 - 4) * math.ulp(v) if noisy else v

        target, top = root**3, 0.5
        while top**3 < target:
            top *= 2.0
        guess = {"below lo": 0.25 * frac, "inside": 0.25 + frac * (top - 0.25),
                 "at the root": root, "far past": 1e6 * top * (1.0 + frac)}[where]
        y = numth.bisect_increasing(f, target, 0.25, 0.5, rtol, "cube", guess=guess)
        assert 0.25 not in calls and len(calls) == len(set(calls))
        assert y == plain_bisect(f, target, 0.25, 0.5, rtol, "cube")

    def test_a_walk_down_to_lo_stops_short_of_it(self):
        # the guess lies one probe step above lo, so the walk's next point is lo
        calls = []

        def f(y):
            calls.append(y)
            return y

        stop = 2.0**-40  # the stop width at the guess, rtol * 1
        guess = 0.25 + numth._PROBE_STOPS * stop
        target = 0.25 + 0.5 * numth._PROBE_STOPS * stop
        y = numth.bisect_increasing(f, target, 0.25, 0.5, stop, "id", guess=guess)
        assert 0.25 not in calls
        assert y == plain_bisect(f, target, 0.25, 0.5, stop, "id")

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-30.0, 3.0))
    def test_psi_matches_plain_bisection(self, log_t):
        t = 10.0**log_t
        assert thetaflow.psi(t) == by_plain_bisection(
            lambda: thetaflow.psi(t))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 1024), st.floats(2.0, 40.0))
    def test_f_step_matches_plain_bisection(self, n, x):
        assert thetaflow.f_step(n, x) == by_plain_bisection(
            lambda: thetaflow.f_step(n, x))

    def test_iterate_d_matches_plain_bisection(self):
        # guessed f_step and psi solves, row for row
        assert thetaflow.iterate_d(256).rows == by_plain_bisection(
            lambda: thetaflow.iterate_d(256)).rows

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.floats(-2.0, 1.0))
    def test_eval_Y_exact_path_matches_plain_bisection(self, n, log_x):
        x = 10.0**log_x
        y = bounds.eval_Y(n, x)
        assert math.sqrt(x) * y <= bounds._K_EXACT  # F_n by cap_sum
        assert y == by_plain_bisection(lambda: bounds.eval_Y(n, x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 25), st.floats(-12.0, -2.0))
    def test_eval_Y_large_path_matches_plain_bisection(self, n, log_x):
        # F_n by Euler-Maclaurin, nondecreasing only to a few ulps here
        x = 10.0**log_x
        y = bounds.eval_Y(n, x)
        assert math.sqrt(x) * y > 400
        assert y == by_plain_bisection(lambda: bounds.eval_Y(n, x))


class TestEvaluationCounts:
    """Calls of the solved functions, counted by wrappers: machine-independent.
    Plain bisection makes 45,285 cap_sum and 47,054 tau calls in
    iterate_d(1024), and 55 eval_F calls in eval_Y(3, 1e-100).  From cold
    brackets the solver makes 13,419 and 3,070; from iterate_d's guesses
    (the linear extrapolation of d_n, and of log(root - 1) for psi),
    5,320 and 1,052.  iterate_d stops solving for the Omega iterate once
    it is a fixed point (n = 222)."""

    def test_iterate_d(self, monkeypatch):
        caps = counting(monkeypatch, numth, "cap_sum")
        taus = counting(monkeypatch, thetaflow, "tau")
        thetaflow.iterate_d(1024)
        assert len(caps) <= 7_000 and len(taus) <= 1_500

    @pytest.mark.parametrize("t", [1e-30, 1e-20, 1e-10])
    def test_psi_at_tiny_t(self, monkeypatch, t):
        # from its own guess sqrt(pi / -ln t): 23, 33 and 21 calls without
        taus = counting(monkeypatch, thetaflow, "tau")
        thetaflow.psi(t)
        assert len(taus) <= 8

    def test_psi_from_its_jacobi_guess(self, monkeypatch):
        # 200 log-spaced t in [0.1, 1]: 1,794 calls (at most 12) without a guess
        taus = counting(monkeypatch, thetaflow, "tau")
        most = 0
        for i in range(200):
            before = len(taus)
            thetaflow.psi(10.0 ** (i / 199.0 - 1.0))
            most = max(most, len(taus) - before)
        assert len(taus) <= 1_150 and most <= 9

    def test_eval_Y_far_past_the_term_cap(self, monkeypatch):
        calls = counting(monkeypatch, bounds, "eval_F")
        assert bounds.eval_Y(3, 1e-100) == 5.739398940463585e+149
        assert len(calls) <= 15
