import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latpack import approx
from latpack.errors import InputError

I2 = [[1.0, 0.0], [0.0, 1.0]]
A2 = [[2.0, 1.0], [1.0, 2.0]]


def random_spd(n, seed):
    rng = random.Random(seed)
    a = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    return [
        [sum(a[i][k] * a[j][k] for k in range(n)) + (4.0 if i == j else 0.0)
         for j in range(n)]
        for i in range(n)
    ]


class TestTargetGram:
    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            approx.TargetGram.from_matrix([[1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            approx.TargetGram.from_matrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(InputError):
            approx.TargetGram.from_matrix([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("g", [
        [], 5, [1.0, 2.0], [[1, 2], [3]], [[1.0, "x"], ["x", 1.0]],
        [[float("inf")]], [[float("nan")]], [[1.0, float("nan")], [float("nan"), 1.0]],
        [[10**400]], [[True]],
    ])
    def test_rejects_malformed(self, g):
        with pytest.raises(InputError):
            approx.TargetGram.from_matrix(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32))
    def test_cholesky_matches_numpy(self, n, seed):
        g = random_spd(n, seed)
        expected = np.linalg.cholesky(np.array(g))
        assert np.allclose(approx._cholesky(g), expected, rtol=1e-13, atol=1e-13)

    def test_cholesky_round_trip(self):
        target = approx.TargetGram.from_matrix(A2)
        L = np.array(target.L)
        assert np.allclose(L @ L.T, np.array(A2))


def plain_approximate(target, kappa):
    """The former construction: round all of kappa L, insert the unit
    superdiagonal, truncate to n + 1 columns, then back-substitute v."""
    n = target.n
    l_tilde = [[int(round(kappa * target.L[i][j])) for j in range(n)] for i in range(n)]
    b = []
    for i in range(n):
        row = [l_tilde[i][j] if j <= i else 0 for j in range(n)]
        row.insert(i + 1, 1)
        b.append(row[: n + 1])
    v = [1]
    for i in range(n):
        v.append(-sum(b[i][j] * v[j] for j in range(i + 1)))
    return (tuple(map(tuple, b)), tuple(v), tuple(map(abs, v)),
            approx._gram_error(b, kappa, target.G))


class TestApproximate:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32), st.floats(1.0, 1e6))
    def test_one_pass_matches_plain_construction(self, n, seed, kappa):
        target = approx.TargetGram.from_matrix(random_spd(n, seed))
        result = approx.approximate(target, kappa)
        assert (result.B, result.v, result.s, result.gram_error) == plain_approximate(
            target, kappa)

    def test_identity_kappa_100(self):
        target = approx.TargetGram.from_matrix(I2)
        result = approx.approximate(target, 100.0)
        assert result.B == ((100, 1, 0), (0, 100, 1))
        assert result.v == (1, -100, 10000)
        assert result.s == (1, 100, 10000)
        assert result.gram_error == pytest.approx(0.0141, abs=5e-4)

    def test_kernel_identity_always(self):
        for seed in range(5):
            target = approx.TargetGram.from_matrix(random_spd(4, seed))
            result = approx.approximate(target, 300.0)
            for row in result.B:
                assert sum(b * v for b, v in zip(row, result.v)) == 0

    def test_a2_error_small(self):
        target = approx.TargetGram.from_matrix(A2)
        result = approx.approximate(target, 1000.0)
        assert result.gram_error < 0.01

    def test_error_ratio_on_doubling(self):
        target = approx.TargetGram.from_matrix(I2)
        e500 = approx.approximate(target, 500.0).gram_error
        e1000 = approx.approximate(target, 1000.0).gram_error
        assert 0.3 <= e1000 / e500 <= 0.7

    def test_error_decreasing_ladder(self):
        target = approx.TargetGram.from_matrix(random_spd(3, 11))
        errors = [
            approx.approximate(target, kappa).gram_error
            for kappa in (100.0, 1000.0, 10000.0)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_kappa_validation(self):
        target = approx.TargetGram.from_matrix(I2)
        for kappa in (0.5, float("nan"), float("inf")):
            with pytest.raises(InputError):
                approx.approximate(target, kappa)
        with pytest.raises(InputError):  # kappa * L overflows
            approx.approximate(approx.TargetGram.from_matrix([[100.0]]), 1e308)


class TestSaturation:
    @pytest.mark.parametrize("g", [I2, A2])
    @pytest.mark.parametrize("kappa", [10.0, 500.0])
    def test_unimodular(self, g, kappa):
        target = approx.TargetGram.from_matrix(g)
        result = approx.approximate(target, kappa)
        assert abs(approx.saturation_determinant(result)) == 1

    def test_unimodular_random(self):
        for seed in range(4):
            target = approx.TargetGram.from_matrix(random_spd(5, seed))
            result = approx.approximate(target, 700.0)
            assert abs(approx.saturation_determinant(result)) == 1


class TestVerify:
    def test_report_fields(self):
        target = approx.TargetGram.from_matrix(I2)
        result = approx.approximate(target, 100.0)
        report = approx.verify_approximation(target, result)
        assert report.kernel_exact
        assert abs(report.saturation_det) == 1
        assert report.gram_error == pytest.approx(result.gram_error)
        assert report.target_center_density == pytest.approx(0.25, rel=1e-6)
        assert report.lattice_center_density == pytest.approx(0.25, rel=1e-3)

    def test_density_converges_with_kappa(self):
        target = approx.TargetGram.from_matrix(A2)
        gaps = []
        for kappa in (50.0, 400.0):
            result = approx.approximate(target, kappa)
            report = approx.verify_approximation(target, result)
            gaps.append(
                abs(report.lattice_center_density - report.target_center_density)
            )
        assert gaps[1] < gaps[0]

    def test_hexagonal_target_density(self):
        target = approx.TargetGram.from_matrix(A2)
        result = approx.approximate(target, 200.0)
        report = approx.verify_approximation(target, result)
        assert report.target_center_density == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0)), rel=1e-6
        )
