import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from latpack import lattice, thetaflow
from latpack.acceptance import D_TABLE
from latpack.errors import InputError, ResourceBudgetError


class TestTau:
    def test_value_at_one(self):
        # 1/23.13882534, the reciprocal of the fixed point
        assert thetaflow.tau(1.0) == pytest.approx(0.0432174056, abs=1e-9)

    def test_bracket(self):
        for x in (0.7, 1.0, 3.0, 10.0, 40.0):
            t = thetaflow.tau(x)
            assert x / 2.0 - 1.0 < t < x / 2.0
        assert 4.0 < thetaflow.tau(10.0) < 5.0

    def test_tiny_argument_no_underflow_panic(self):
        assert 0.0 <= thetaflow.tau(0.1) < 1e-100

    def test_validation(self):
        for f in (thetaflow.tau, thetaflow.tau_derivative):
            for x in (0.0, -1.0, math.nan):
                with pytest.raises(InputError):
                    f(x)

    def test_underflow_below_the_series(self):
        # (k/x)^2 overflows a float at x = 1e-155; tau and tau' underflow first
        for x in (1e-155, 1e-110, 5e-324, 0.05):
            assert thetaflow.tau(x) == 0.0
            assert thetaflow.tau_derivative(x) == 0.0
        above = math.nextafter(thetaflow._UNDERFLOW_X, math.inf)
        assert thetaflow.tau(above) == 0.0
        assert thetaflow.tau_derivative(above) == 0.0

    def test_jacobi_branch_continues_the_series(self):
        # tau(x) = x/2 - 1/2 + x tau(1/x), and x tau(1/x) underflows past 8
        for x in (8.0, 16.0, 32.0, 63.5, 64.0):
            assert thetaflow.tau(x) == pytest.approx(0.5 * x - 0.5, rel=1e-14)
        above = math.nextafter(thetaflow._JACOBI_X, math.inf)
        for f in (thetaflow.tau, thetaflow.tau_derivative):
            assert f(above) == pytest.approx(f(thetaflow._JACOBI_X), rel=1e-14)
        assert thetaflow.tau_derivative(1e300) == 0.5

    def test_derivative_finite_difference(self):
        h = 1e-6
        for x in (1.0, 2.5, 8.0):
            fd = (thetaflow.tau(x + h) - thetaflow.tau(x - h)) / (2.0 * h)
            assert thetaflow.tau_derivative(x) == pytest.approx(fd, rel=1e-5)


class TestPsi:
    def test_inverse(self):
        assert thetaflow.psi(thetaflow.tau(1.0)) == pytest.approx(1.0, abs=1e-10)
        assert thetaflow.psi(thetaflow.tau(3.7)) == pytest.approx(3.7, abs=1e-10)

    def test_bracket(self):
        assert 1.0 < thetaflow.psi(0.5) < 3.0

    def test_huge_arguments_return(self):
        """psi(t) ~ 2t + 1 and omega(x) ~ 2 + x at the ends of float range;
        run apart, so a hang fails the test instead of stalling the suite."""
        code = textwrap.dedent("""
            from latpack import thetaflow
            from latpack.errors import InputError
            assert abs(thetaflow.psi(1e12) - (2e12 + 1)) < 0.5
            assert thetaflow.psi(1e300) == 2e300
            assert abs(thetaflow.omega(1e-300) - 2.0) < 1e-15
            for t in (1e308, float("inf"), float("nan")):
                try:
                    thetaflow.psi(t)
                except InputError:
                    continue
                raise AssertionError(t)
        """)
        src = os.path.dirname(os.path.dirname(thetaflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr

    def test_top_of_float_range(self):
        # from max_float / 4 on, the ends of the bracket (2t, 2t + 2) sum past
        # max_float; the root, about 2t + 1, rounds to 2t
        top = sys.float_info.max
        for t in (top / 4, 5e307, 8.9e307, math.nextafter(top / 2, 0.0)):
            assert thetaflow.psi(t) == 2.0 * t


class TestOmega:
    def test_value_at_two(self):
        assert thetaflow.omega(2.0) == pytest.approx(D_TABLE[2][1], abs=1e-7)

    def test_fixpoint_property(self):
        xi, _ = thetaflow.fixpoint()
        assert abs(thetaflow.omega(xi) - xi) < 1e-8

    def test_small_argument_limit(self):
        assert 2.0 < thetaflow.omega(0.05) < 2.3


class TestFixpoint:
    def test_fixpoint_residual(self):
        xi, _ = thetaflow.fixpoint()
        assert abs(thetaflow.omega(xi) - xi) < 1e-9

    def test_derivative_closed_form(self):
        # 1 - tau(1)/tau'(1), cross-checked against a finite difference
        _, deriv = thetaflow.fixpoint()
        xi, _ = thetaflow.fixpoint()
        h = 1e-4
        fd = (thetaflow.omega(xi + h) - thetaflow.omega(xi - h)) / (2.0 * h)
        assert deriv == pytest.approx(fd, abs=1e-5)
        assert 0.0 < deriv < 1.0

    def test_empirical_contraction_rate(self):
        # consecutive Omega-iterate gaps shrink by the derivative factor
        xi, deriv = thetaflow.fixpoint()
        x = 20.0
        gaps = []
        for _ in range(8):
            nxt = thetaflow.omega(x)
            gaps.append(abs(nxt - xi))
            x = nxt
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-12]
        assert ratios[-1] == pytest.approx(deriv, abs=5e-3)


class TestFStep:
    def test_closed_form_first_step(self):
        assert thetaflow.f_step(1, 2.0) == pytest.approx(
            2.0 * math.pi / math.sqrt(3.0), rel=1e-9
        )

    def test_defining_residual(self):
        import math as m

        from latpack import numth

        for n, x in ((1, 2.0), (4, 9.0), (16, 25.0)):
            y = thetaflow.f_step(n, x)
            ratio = m.exp(
                numth.log_ball_volume(n + 1) - numth.log_ball_volume(n)
            )
            step = x * ratio / y
            kmax = m.floor(1.0 / step)
            total = x * sum(
                (1.0 - (k * step) ** 2) ** (n / 2.0) for k in range(1, kmax + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        for n, x in ((0, 2.0), (1, math.nan), (1, math.inf), (1, 0.0)):
            with pytest.raises(InputError):
                thetaflow.f_step(n, x)


@pytest.fixture(scope="module")
def trace():
    return thetaflow.iterate_d(1024)


class TestIterateD:
    def test_row_accessor(self, trace):
        assert trace.row(8).n == 8

    def test_budget_estimates_the_cap_sum_terms(self, monkeypatch):
        terms, cap_sum = [], thetaflow.numth.cap_sum
        monkeypatch.setattr(thetaflow.numth, "cap_sum", lambda h, p, n=None: (
            terms.append(math.floor(1.0 / h)) or cap_sum(h, p, n)))
        thetaflow.iterate_d(256)
        assert 1 / 4 < thetaflow._flow_terms(256) / sum(terms) < 4  # 5,447 / 5,874

    @pytest.mark.parametrize("max_n", [10**9, 10**400], ids=["1e9", "1e400"])  # 1e400 is past float range
    def test_refused_before_the_first_row(self, monkeypatch, max_n):
        def row(*args):
            raise AssertionError("a row ran")
        monkeypatch.setattr(thetaflow, "fixpoint", row)
        with pytest.raises(ResourceBudgetError, match=f"to n = {max_n} needs about"):
            thetaflow.iterate_d(max_n)

    def test_default_budget_admits_max_n_16384(self, monkeypatch):
        monkeypatch.delenv("LATPACK_ENUM_BUDGET", raising=False)
        assert thetaflow._flow_terms(16384) <= lattice.enum_budget()

    def test_asymptotic_fit(self, trace):
        fit = thetaflow.asymptotic_fit(trace)
        assert fit.c0 == pytest.approx(23.13882534, abs=1e-4)
        assert fit.c1 == pytest.approx(119.58193, rel=0.01)
        n = 1024
        predicted = fit.c0 + fit.c1 / n + fit.c2 / n**2 + fit.c3 / n**3
        assert abs(trace.row(n).d - predicted) < 1e-5

    @pytest.mark.parametrize("ladder", [(128, 256, 512, 1024), (8, 16, 32, 64),
                                        (100, 300, 700, 1000)])
    def test_fit_matches_float_solve(self, trace, ladder):
        vand = np.vander([1.0 / n for n in ladder], 4, increasing=True)
        expected = np.linalg.solve(vand, [trace.row(n).d for n in ladder])
        fit = thetaflow.asymptotic_fit(trace, ladder)
        assert [fit.c0, fit.c1, fit.c2, fit.c3] == pytest.approx(expected, rel=1e-9)

    def test_fit_validation(self, trace):
        for ladder in ((128, 128, 512, 1024), (128, 128, 256, 512, 1024),
                       (0, 128, 256, 512), (-1, 128, 256, 512)):
            with pytest.raises(InputError):
                thetaflow.asymptotic_fit(trace, ladder)
        with pytest.raises(InputError):
            thetaflow.asymptotic_fit(trace, (128, 256, 512, 2048))
