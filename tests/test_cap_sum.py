"""`numth.cap_sum` against the loops it replaced.

Before the kernel, F_n, the three lifting forms, the majorization chain
and f_n each summed w(k) base(k)^p over k <= kmax with its own kmax and
its own base; `power_sum` keeps that loop as the oracle.  Each site now
forms 1 - (k h)^2 from a step h instead of its own base, so results may
differ in the last bits: they must agree within 1e-13 of the sum's size
plus one full term.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from latpack import bounds, numth, thetaflow
from latpack.errors import ResourceBudgetError

RTOL = 1e-13


def power_sum(kmax, base, p, n=None):
    """sum_{k <= kmax} w(k) base(k)^p, skipping base(k) <= 0, with
    w = `numth.mobius_weights`(n, k)[k], or 1 when n is None."""
    total = 0.0
    for k in range(1, kmax + 1):
        b = base(k)
        if b <= 0.0:
            continue
        total += (1.0 if n is None else numth.mobius_weights(n, k)[k]) * b**p
    return total


def assume_off_the_edge(n, h):
    """At n = 2 a term sqrt(1 - t), t = (k h)^2, moves by ~eps / sqrt(1 - t)
    when t moves by an ulp, and the two forms round t differently: ~1e-12
    of a term at k h = 1 - 2e-9.  Keep k h at least 1e-6 away from 1,
    where the error stays under 1e-13 of a term."""
    if n == 2:
        k = max(1, round(1.0 / h))
        assume(abs(k * h - 1.0) > 1e-6 and abs((k + 1) * h - 1.0) > 1e-6)


def assert_close(got, old, term):
    assert abs(got - old) <= RTOL * (abs(old) + term)


dims = st.integers(2, 30)
# the number of terms, past 1 and below the exact path's smallest crossover
term_counts = st.floats(1.0, 400.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1.0, exclude_max=True), st.integers(1, 60),
       st.one_of(st.none(), dims))
def test_kernel_matches_power_sum(h, twice_p, n):
    p = twice_p / 2.0
    old = power_sum(math.floor(1.0 / h), lambda k: 1.0 - (k * h) ** 2, p, n)
    assert_close(numth.cap_sum(h, p, n), old, 1.0)


@pytest.mark.parametrize("h", [0.0, -1.0, 5e-324, 1e-7, math.nan])
def test_kernel_refuses_past_the_cap_before_its_first_term(h):
    with pytest.raises(ResourceBudgetError):
        numth.cap_sum(h, 1.0, 3)


def test_kernel_without_terms():
    assert numth.cap_sum(1.0, 1.0, 3) == 0.0
    assert numth.cap_sum(2.5, 0.5) == 0.0


@settings(max_examples=300, deadline=None)
@given(dims, st.floats(1e-2, 1e2), term_counts)
def test_eval_F_exact_path(n, x, terms):
    y = terms / math.sqrt(x)
    assume_off_the_edge(n, 1.0 / (math.sqrt(x) * y))
    p = (n - 1) / 2.0
    old = power_sum(math.floor(math.sqrt(x) * y), lambda k: x - (k / y) ** 2, p, n)
    assert_close(bounds.eval_F(n, x, y), old, x**p)


@settings(max_examples=200, deadline=None)
@given(dims, st.floats(1e-3, 1.0), st.floats(1.0, 300.0, exclude_min=True))
def test_three_lifting_forms(n, delta_prev, terms):
    delta_cur = terms * delta_prev / 2.0
    assume_off_the_edge(n, delta_prev / (2.0 * delta_cur))
    p = (n - 1) / 2.0
    vn1, vn = numth.ball_volume(n - 1), numth.ball_volume(n)

    scale = 2.0 ** (n - 1) * delta_prev * vn1
    old = scale * power_sum(
        math.floor(2.0 * delta_cur / delta_prev),
        lambda k: 1.0 - (k * delta_prev / (2.0 * delta_cur)) ** 2, p, n)
    assert_close(bounds._lhs_center(n, delta_prev, delta_cur), old, scale)

    dp = bounds.convert("center", "density", delta_prev, n - 1)
    dc = bounds.convert("center", "density", delta_cur, n)
    scale = 2.0 ** (n - 1) * dp
    old = scale * power_sum(
        math.floor(2.0 * dc * vn1 / (dp * vn)),
        lambda k: 1.0 - (k * dp * vn / (2.0 * dc * vn1)) ** 2, p, n)
    assert_close(bounds._lhs_density(n, dp, dc), old, scale)

    gp = bounds.convert("center", "hermite", delta_prev, n - 1)
    gc = bounds.convert("center", "hermite", delta_cur, n)
    scale = vn1 * gp**p
    old = vn1 * power_sum(
        math.floor(math.exp((n / 2.0) * math.log(gc) - p * math.log(gp))),
        lambda k: gp - k * k * (gp / gc) ** n, p, n)
    assert_close(bounds._lhs_hermite(n, gp, gc), old, scale)


@settings(max_examples=200, deadline=None)
@given(dims, st.floats(1e-3, 1.0), st.floats(1.0, 300.0, exclude_min=True))
def test_marin_chain_middle_stage(n, delta_prev, terms):
    delta_cur = terms * delta_prev / 2.0
    step = delta_prev / (2.0 * delta_cur)
    assume_off_the_edge(n, step)
    scale = 2.0**n * delta_cur * numth.ball_volume(n - 1) * step
    old = scale * power_sum(
        math.floor(2.0 * delta_cur / delta_prev),
        lambda k: 1.0 - (k * step) ** 2, (n - 1) / 2.0)
    lhs, mid, rhs = bounds.marin_chain(n, delta_prev, delta_cur)
    assert_close(mid, old, scale)
    assert lhs == bounds._lhs_center(n, delta_prev, delta_cur)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1024), st.floats(2.0, 30.0))
def test_f_step(n, x):
    """The old left side under the same bisection: both stop within
    1e-12 * max(1, hi) of where their left sides cross 1."""
    ratio = math.exp(numth.log_ball_volume(n + 1) - numth.log_ball_volume(n))

    def lhs(y):
        step = x * ratio / y
        return x * power_sum(math.floor(1.0 / step),
                             lambda k: 1.0 - (k * step) ** 2, n / 2.0)

    lo = x * ratio
    old = numth.bisect_increasing(lhs, 1.0, lo, 2.0 * lo, rtol=1e-12, what="oracle")
    assert abs(thetaflow.f_step(n, x) - old) <= 2e-12 * max(1.0, old)
