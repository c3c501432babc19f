import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

from latpack import bounds, numth
from latpack.errors import InputError, ResourceBudgetError
from test_numth import plain_bisect

SQRT3 = math.sqrt(3.0)


class TestEvalF:
    def test_boundary_zero(self):
        assert bounds.eval_F(2, 1.0, 1.0) == 0.0

    def test_single_term(self):
        assert bounds.eval_F(2, 4.0, 1.0) == pytest.approx(SQRT3, rel=1e-12)

    def test_closed_form_half(self):
        assert bounds.eval_F(2, 1.0, 2.0 / SQRT3) == pytest.approx(0.5, rel=1e-12)

    def test_zero_below_first_term(self):
        assert bounds.eval_F(3, 4.0, 0.4) == 0.0
        assert bounds.eval_F(3, 4.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            bounds.eval_F(1, 1.0, 1.0)
        with pytest.raises(InputError):
            bounds.eval_F(3, -1.0, 1.0)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_large_k_path_matches_exact_sum(self, n):
        # pick y so the term count sits above the crossover for this n
        x = 2.0
        p = (n - 1) / 2.0
        for y in (500.0, 2000.0):
            exact = x**p * numth.cap_sum(1.0 / (math.sqrt(x) * y), p, n)
            fast = bounds._eval_F_large(n, x, y, math.floor(math.sqrt(x) * y))
            assert fast == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("terms", [20001, 30030])
    def test_large_k_path_at_a_whole_term_count_n3(self, terms):
        # the last Riemann point of each l | terms is sqrt(x) itself, where
        # g'(sqrt(x)) = -2 sqrt(x) at n = 3, not 0
        exact = numth.cap_sum(1.0 / terms, 1.0, 3)
        fast = bounds._eval_F_large(3, 1.0, float(terms), terms)
        assert fast == pytest.approx(exact, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 200), st.floats(0.0, 1.0, exclude_min=True))
    def test_cap_integral_matches_incomplete_beta(self, n, c):
        p = (n - 1) / 2.0
        expected = 0.5 * special.beta(0.5, p + 1.0) * special.betainc(0.5, p + 1.0, c * c)
        assume(expected > 0.0)  # c * c underflows for c below ~1e-154
        assert bounds._cap_integral(p, c) == pytest.approx(expected, rel=1e-13)

    # eval_C rests on F_n(x, y) = x^p F_n(1, sqrt(x) y); both sides see the
    # same term count sqrt(x) y, so both take the same path
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30), st.floats(1e-3, 1e3), st.floats(1.5, 400.0))
    def test_scaling_identity_exact_path(self, n, x, terms):
        self._check_scaling(n, x, terms / math.sqrt(x))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 30), st.floats(1e-3, 1e3), st.floats(1.0, 50.0))
    def test_scaling_identity_euler_maclaurin_path(self, n, x, factor):
        threshold = bounds._K_EXACT if n <= 4 else 400
        y = factor * (threshold + 1) / math.sqrt(x)
        assume(math.sqrt(x) * y >= threshold + 1)
        self._check_scaling(n, x, y)

    @staticmethod
    def _check_scaling(n, x, y):
        p = (n - 1) / 2.0
        expected = x**p * bounds.eval_F(n, 1.0, math.sqrt(x) * y)
        assert bounds.eval_F(n, x, y) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_y(self):
        values = [bounds.eval_F(3, 2.0, y) for y in (1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values)


class TestEvalY:
    def test_closed_form_n2(self):
        assert bounds.eval_Y(2, 1.0) == pytest.approx(2.0 / SQRT3, rel=1e-12)

    def test_defining_equation(self):
        for n, x in ((2, 4.0), (3, 1.0), (5, 2.0), (9, 2.0), (25, 4.0)):
            y = bounds.eval_Y(n, x)
            target = 1.0 / numth.ball_volume(n - 1)
            assert bounds.eval_F(n, x, y) == pytest.approx(target, abs=1e-9)

    def test_weakly_decreasing_in_x(self):
        values = [bounds.eval_Y(3, x) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9

    def test_asymptotic_at_small_x(self):
        """Y_n(x) -> 2 zeta(n) / (V_n x^(n/2)), the mean Moebius weight
        being 1/zeta(n); the bracket starts at 2 / (V_n x^(n/2))."""
        x = 1e-40
        expected = 2.0 * special.zeta(5.0) / (numth.ball_volume(5) * x**2.5)
        assert bounds.eval_Y(5, x) == pytest.approx(expected, rel=1e-12)

    def test_n2_refused_before_the_first_sum(self, monkeypatch):
        """The bracket doubled from est = 2 / (pi x) at x = 1e-12 needs
        4e6 / pi terms: refused before any Moebius weight is computed."""
        def weights(n, k):
            raise AssertionError(f"weights to {k} computed")

        monkeypatch.setattr(numth, "mobius_weights", weights)
        with pytest.raises(ResourceBudgetError, match=r"Y_2\(1e-12\) needs 1.27e\+06 terms"):
            bounds.eval_Y(2, 1e-12)

    # 1/V_(n-1) is inf from n = 437 and V_(n-1) is 0.0 from n = 454
    @pytest.mark.parametrize("n,x", [(437, 10.0), (450, 10.0), (454, 1e200), (2000, 1e200)])
    def test_target_past_float_range_refused_before_the_first_evaluation(self, monkeypatch,
                                                                         n, x):
        def evaluated(*args):
            raise AssertionError("eval_F called")

        monkeypatch.setattr(bounds, "eval_F", evaluated)
        with pytest.raises(InputError, match=rf"needs 1/V_{n - 1}, which lies past"):
            bounds.eval_Y(n, x)

    def test_last_finite_target_answers(self):
        """n = 436, the last n whose target 1/V_(n-1) is a float, still solves F = target."""
        target = 1.0 / numth.ball_volume(435)
        y = bounds.eval_Y(436, 10.0)
        assert math.isfinite(target) and math.isfinite(y)
        assert bounds.eval_F(436, 10.0, y) == pytest.approx(target, rel=1e-12)

    # Y_2 / est is 1.645 from x = 1e-8 on, near zeta(2); 1e-11 and 2e-12
    # (up to 15 s each) give the same
    @pytest.mark.parametrize("x", [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_n2_root_lies_below_twice_the_bound(self, x):
        """est < Y_2(x) < 2 est: one doubling of the bracket reaches the root,
        so the refusal of that doubling refuses only roots past the term cap."""
        est = 2.0 / (math.pi * x)
        assert est < bounds.eval_Y(2, x) < 2.0 * est

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 9, 25, 60]), st.floats(-3.0, 4.0))
    def test_same_float_as_from_a_bracket_floored_at_1(self, n, log_x):
        """Solving to float spacing, the bracket changes the work, not the
        float: plain bisection from max(2/sqrt(x), 1.0, est) agrees."""
        x = 10.0**log_x
        lo = 1.0 / math.sqrt(x)
        est = math.exp(math.log(2.0) - numth.log_ball_volume(n) - (n / 2.0) * math.log(x))
        target = 1.0 / numth.ball_volume(n - 1)
        assert bounds.eval_Y(n, x) == plain_bisect(
            lambda y: bounds.eval_F(n, x, y), target, lo, max(2.0 * lo, 1.0, est), 0.0, "eval_Y")


def _eval_C_xi_grid(n, x):
    """The former `bounds.eval_C`: a 256-point geometric grid over ξ in
    [x/100, x], one `eval_Y` bisection per sample, and a golden-section
    refinement of the best bracket."""

    def value(xi):
        return xi * bounds.eval_Y(n, xi) ** (2.0 / n)

    points = 256
    ratio = 100.0 ** (1.0 / (points - 1))
    grid = [x / 100.0 * ratio**i for i in range(points)]
    grid[-1] = x
    values = [value(xi) for xi in grid]
    best = max(range(points), key=values.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, points - 1)]
    c = b - bounds._PHI * (b - a)
    d = a + bounds._PHI * (b - a)
    fc, fd = value(c), value(d)
    while b - a > 1e-10 * max(1.0, x):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - bounds._PHI * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + bounds._PHI * (b - a)
            fd = value(d)
    return max(max(fc, fd), max(values))


class TestEvalC:
    def test_nondecreasing_envelope(self):
        assert bounds.eval_C(3, 2.0) >= bounds.eval_C(3, 1.0) - 1e-12

    def test_sandwich_at_n3(self):
        gamma3 = 2.0 ** (1.0 / 3.0)
        assert bounds.eval_C(3, 2.0 / SQRT3) <= gamma3 + 1e-9
        assert gamma3 <= 4.0 / 3.0

    def test_right_edge_solved_once(self, monkeypatch):
        y_calls, f_calls = [], []
        eval_Y, eval_F = bounds.eval_Y, bounds.eval_F
        monkeypatch.setattr(bounds, "eval_Y", lambda n, x: y_calls.append(x) or eval_Y(n, x))
        monkeypatch.setattr(bounds, "eval_F", lambda *args: f_calls.append(args) or eval_F(*args))
        x = 2.0 / SQRT3
        bounds.eval_C(3, x)
        # the t-interval's two ends; every sample inside is one eval_F
        assert sorted(y_calls) == [x / 100.0, x]
        # 418: two bisections, 255 grid points and the golden section
        assert len(f_calls) <= 450

    # a refusal of the Y_n(x/100) solve names the x given and keeps the rest
    @pytest.mark.parametrize("n,x,error", [(2, 1e-10, ResourceBudgetError), (25, 1e50, InputError)])
    def test_left_edge_refusal_names_the_x_given(self, n, x, error):
        with pytest.raises(error) as inner:
            bounds.eval_Y(n, x / 100.0)
        with pytest.raises(error) as outer:
            bounds.eval_C(n, x)
        assert str(outer.value) == f"C_{n}({x}) needs Y_{n}(x/100): {inner.value}"
        assert vars(outer.value) == vars(inner.value)  # the estimate and the budget

    # the right-edge maximum keeps its bits: the n = 2, 3, 4, 25 bench
    # reference points and the delta_3 input
    @pytest.mark.parametrize("n,x", [(2, 1.0), (3, 1.2), (4, 1.5), (25, 4.0), (3, 2.0 / SQRT3)])
    def test_right_edge_maximum_matches_xi_grid(self, n, x):
        assert bounds.eval_C(n, x) == _eval_C_xi_grid(n, x)

    # interior maxima: the t search ends closer to the sup, never lower
    # than the xi-grid search by more than rounding
    @pytest.mark.parametrize("n,x", [(2, 0.3), (3, 0.5), (3, 0.3), (2, 0.01)])
    def test_interior_maximum_not_below_xi_grid(self, n, x):
        old = _eval_C_xi_grid(n, x)
        new = bounds.eval_C(n, x)
        assert old * (1.0 - 4.0 * math.ulp(1.0)) <= new <= old * (1.0 + 1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 25, 60])
def test_answers_or_refuses_across_float_range(n):
    """eval_Y and eval_C at x = 10^k, k = 0, 10, ..., 300, answer or refuse
    with InputError or ResourceBudgetError.  From x = 1e14 on, F_n at the
    root has its k = 1 term alone, (x - 1/y^2)^p = 1/V_(n-1): an answer is
    within 4 ulps of Y_n = (x - c)^(-1/2) or C_n = x (x - c)^(-1/n), with
    c = V_(n-1)^(-2/(n-1)).  Near 10^15, t(x) and t(x/100) lie a few floats
    above 1, and a t-sample rounded below t(x) has its ξ past x and a
    value up to 60% above C_n(x)."""
    c = numth.ball_volume(n - 1) ** (-2.0 / (n - 1))
    for k in (*range(0, 301, 10), 14.5, 14.75, 15.25):
        x = 10.0**k
        for evaluate, exponent in ((bounds.eval_Y, -0.5), (bounds.eval_C, -1.0 / n)):
            try:
                got = evaluate(n, x)
            except (InputError, ResourceBudgetError):
                continue
            if x >= 1e14:
                closed = (x if evaluate is bounds.eval_C else 1.0) * (x - c) ** exponent
                assert abs(got - closed) <= 4.0 * math.ulp(closed), (evaluate.__name__, x)


class TestConvert:
    def test_delta_to_hermite(self):
        assert bounds.convert("center", "hermite", 0.5, 1) == pytest.approx(1.0)

    def test_delta_to_density(self):
        assert bounds.convert("center", "density", 1.0 / (2.0 * SQRT3), 2) == \
            pytest.approx(math.pi / (2.0 * SQRT3), rel=1e-12)

    def test_round_trip(self):
        for n in (2, 5, 9):
            for value in (0.5, 1.1547, 2.0):
                back = bounds.convert(
                    "hermite", "center",
                    bounds.convert("center", "hermite", value, n), n
                )
                assert back == pytest.approx(value, rel=1e-13)

    def test_validation(self):
        with pytest.raises(InputError):
            bounds.convert("center", "weird", 1.0, 3)
        with pytest.raises(InputError):
            bounds.convert("center", "hermite", -1.0, 3)


class TestTheorem1:
    DELTA1 = 0.5
    DELTA2 = 1.0 / (2.0 * SQRT3)

    # the tight n = 2 case; the acceptance registry checks n = 3, 9 and 25
    @pytest.mark.parametrize("n,prev,cur", [(2, DELTA1, DELTA2)])
    def test_three_forms_agree(self, n, prev, cur):
        values = [
            bounds.check_theorem1(n, prev, cur, form=form)
            for form in ("center", "density", "hermite")
        ]
        spread = max(values) - min(values)
        assert spread <= 1e-10 * max(1.0, abs(values[0]))

    def test_validation(self):
        with pytest.raises(InputError):
            bounds.check_theorem1(3, -1.0, 0.1)
        with pytest.raises(InputError):
            bounds.check_theorem1(3, 0.1, 0.1, form="other")

    @pytest.mark.parametrize("n,prev,cur,form", [
        (2, 1e-200, 0.5, "hermite"),  # gamma_1 = 4 delta_1^2 is 0.0, and its log undefined
        (2, 5e-324, 0.5, "hermite"),
        (30, 5e-324, 0.5, "density"),  # Delta_29 = delta_29 V_29 is 0.0
        (30, 0.5, 5e-324, "density"),  # Delta_30 = delta_30 V_30 is 0.0
    ])
    def test_underflowing_converted_constant_refused(self, n, prev, cur, form):
        with pytest.raises(InputError, match=f"at n = {n} leaves float range"):
            bounds.check_theorem1(n, prev, cur, form=form)

    def test_unknown_form_refused_before_conversion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "convert", lambda *args: calls.append(args))
        with pytest.raises(InputError, match="unknown form 'bogus'"):
            bounds.check_theorem1(2, self.DELTA1, self.DELTA2, form="bogus")
        assert calls == []


class TestMordell:
    def test_examples(self):
        assert bounds.mordell_upper(3, 2.0 / SQRT3) == pytest.approx(
            4.0 / 3.0, rel=1e-12
        )
        assert bounds.mordell_upper(4, 2.0 ** (1.0 / 3.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(InputError):
            bounds.mordell_upper(2, 1.0)


class TestMarinChain:
    def test_n2_endpoints(self):
        delta2 = 1.0 / (2.0 * SQRT3)
        lhs, mid, rhs = bounds.marin_chain(2, 0.5, delta2)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(2.0 * delta2 * math.pi, rel=1e-12)
        assert lhs <= mid + 1e-12
        assert mid <= rhs + 1e-12

    def test_n3_monotone(self):
        lhs, mid, rhs = bounds.marin_chain(
            3, 1.0 / (2.0 * SQRT3), 1.0 / (4.0 * math.sqrt(2.0))
        )
        assert lhs <= mid + 1e-12
        assert mid <= rhs + 1e-12

    def test_empty_middle_sum_at_an_inf_step(self):
        """delta_prev / (2 delta_cur) is inf: stage 2's sum is empty, 0.0 as
        stage 1's is, and the residual of the lifting inequality is -1."""
        lhs, mid, rhs = bounds.marin_chain(2, 1e300, 5e-324)
        assert (lhs, mid) == (0.0, 0.0)
        assert rhs == pytest.approx(2.0 * 5e-324 * math.pi, rel=0.2)  # a subnormal
        assert bounds.check_theorem1(2, 1e300, 5e-324) == -1.0

    @pytest.mark.parametrize("n,prev,cur", [
        (2000, 0.5, 0.5),  # 2^(n-1) overflows
        (3, math.nan, 0.5),
        (3, 0.5, math.inf),
        (3, 0.0, 0.5),
    ])
    def test_refuses_like_theorem1(self, n, prev, cur):
        for evaluate in (bounds.marin_chain, bounds.check_theorem1):
            with pytest.raises(InputError):
                evaluate(n, prev, cur)
