import itertools
import math

import pytest

from latpack import lattice, museq, numth
from latpack.errors import InputError, ResourceBudgetError
from latpack.lattice import SVector


def oracle_extend(s, mu):
    """Independent greedy oracle: try candidates in order and keep the
    first whose extension still certifies minimum >= mu by exact SVP."""
    t = 1
    while True:
        if museq.certify(s.extended(t), mu):
            return t
        t += 1


class TestBallPoints:
    @pytest.mark.parametrize("n,bound", [(1, 5), (2, 7), (3, 4)])
    def test_matches_brute_force(self, n, bound):
        r = math.isqrt(bound) + 1
        expected = sorted(
            z
            for z in itertools.product(range(-r, r + 1), repeat=n)
            if sum(x * x for x in z) < bound
        )
        assert sorted(museq.ball_points(n, bound)) == expected

    def test_half_ball_pairs(self):
        points = list(museq.half_ball_points(2, 5))
        full = [z for z in museq.ball_points(2, 5) if any(z)]
        assert len(points) == len(full) // 2
        for z in points:
            neg = tuple(-x for x in z)
            assert neg not in points

    def test_empty_for_nonpositive_bound(self):
        assert list(museq.ball_points(3, 0)) == []


class TestForbiddenValues:
    def test_examples(self):
        assert museq.forbidden_values(SVector((1,)), 2) == []
        assert museq.forbidden_values(SVector((1, 2)), 3) == [1, 2]
        assert museq.forbidden_values(SVector((1, 2, 3)), 3) == [1, 2, 3]

    def test_mu_validation(self):
        with pytest.raises(InputError):
            museq.forbidden_values(SVector((1,)), 1)

    def test_budget_guard(self):
        with pytest.raises(ResourceBudgetError):
            museq.forbidden_values(SVector((1,) * 9), 10**6, budget=1000)


class TestGreedy:
    def test_extend_examples(self):
        assert museq.greedy_extend(SVector((1,)), 2) == 1
        assert museq.greedy_extend(SVector((1, 2)), 3) == 3
        assert museq.greedy_extend(SVector((1, 2, 3, 4)), 3) == 5

    @pytest.mark.parametrize("n", range(1, 11))
    def test_mu2_is_all_ones(self, n):
        seq = museq.greedy_sequence(2, n)
        assert seq.s.entries == (1,) * (n + 1)
        assert seq.certified
        report = lattice.density_report(seq.s)
        assert report.minimum == 2
        assert report.determinant == n + 1

    def test_mu3_is_consecutive(self):
        seq = museq.greedy_sequence(3, 4)
        assert seq.s.entries == (1, 2, 3, 4, 5)
        assert seq.certified

    def test_mu4_certified(self):
        seq = museq.greedy_sequence(4, 2)
        assert seq.certified
        minimum, _ = lattice.shortest_vector(lattice.basis_from_s(seq.s))
        assert minimum >= 4

    @pytest.mark.parametrize("mu,dim", [(3, 4), (4, 3), (5, 3), (7, 3)])
    def test_matches_svp_oracle(self, mu, dim):
        s = SVector((1,))
        for _ in range(dim):
            step = museq.greedy_extend(s, mu)
            assert step == oracle_extend(s, mu)
            s = s.extended(step)

    def test_entry_bounds_hold(self):
        for mu in (2, 3, 5, 8):
            seq = museq.greedy_sequence(mu, 6)
            for n in range(1, 7):
                first, second = museq.greedy_entry_bounds(mu, n)
                assert seq.s.entries[n] <= first
                assert seq.s.entries[n] <= second

    def test_density_bound_holds(self):
        for mu in (2, 3, 6):
            seq = museq.greedy_sequence(mu, 6)
            report = lattice.density_report(seq.s)
            assert report.center_density >= museq.greedy_density_bound(mu, 6)


class TestIntervalSpec:
    def test_sigma_round_trip(self):
        spec = museq.IntervalSpec.from_sigmas(0.5, 0.6, 5, 3)
        back = museq.IntervalSpec.from_bounds(spec.lo, spec.hi, 5, 3)
        assert back.sigma == pytest.approx(0.6, rel=1e-12)
        assert back.sigma_tilde == pytest.approx(0.5, rel=1e-12)
        assert spec.epsilon == pytest.approx(0.2, rel=1e-12)

    def test_integers(self):
        spec = museq.IntervalSpec.from_bounds(2.5, 6.1, 3, 2)
        assert spec.integers() == [3, 4, 5, 6]

    def test_rejects_bad_interval(self):
        with pytest.raises(InputError):
            museq.IntervalSpec.from_bounds(5.0, 3.0, 3, 2)


class TestObstructions:
    def test_example_12(self):
        s = SVector((1, 2))
        interval = museq.IntervalSpec.from_bounds(1.0, 10.0, 3, 2)
        report = museq.interval_obstructions(s, 3, interval)
        assert report.obstructed[1] == [1, 2]
        assert report.union_size == 2

    def test_mu2_all_empty(self):
        s = SVector((1, 1))
        interval = museq.IntervalSpec.from_bounds(1.0, 20.0, 2, 2)
        report = museq.interval_obstructions(s, 2, interval)
        assert all(not ik for ik in report.obstructed.values())
        assert report.union == []

    def test_counting_invariants(self):
        for mu, tail in ((5, (1, 2, 4)), (9, (1, 3, 9)), (12, (1, 4, 14))):
            s = SVector(tail)
            interval = museq.IntervalSpec.from_bounds(1.0, 40.0, mu, len(tail))
            report = museq.interval_obstructions(s, mu, interval)
            assert report.k_max == math.isqrt(mu - 1)
            for k, ik in report.obstructed.items():
                assert len(ik) <= report.witness_counts[k][0]
                assert report.witness_counts[k][1] <= report.witness_counts[k][0]
                assert sum(report.residue_counts[k]) >= report.residue_counts[k][0]
            assert report.union_size <= sum(
                v[0] for v in report.witness_counts.values()
            )

    def test_extend_in_interval(self):
        s = SVector((1, 2))
        hit = museq.IntervalSpec.from_bounds(3.0, 10.0, 3, 2)
        assert museq.extend_in_interval(s, 3, hit) == 3
        blocked = museq.IntervalSpec.from_bounds(1.0, 2.0, 3, 2)
        assert museq.extend_in_interval(s, 3, blocked) is None

    @pytest.mark.parametrize("mu", [3, 4, 5, 6])
    def test_membership_matches_svp(self, mu):
        s = museq.greedy_sequence(mu, 2).s
        assert museq.certify(s, mu)
        interval = museq.IntervalSpec.from_bounds(1.0, 25.0, mu, len(s.entries))
        report = museq.interval_obstructions(s, mu, interval)
        blocked = set(report.union)
        for t in interval.integers():
            assert museq.certify(s.extended(t), mu) == (t not in blocked)
