import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def oracle_ball_points(n, bound):
    """All z in Z^n with |z|^2 < bound (including 0), depth-first."""
    if bound <= 0:
        return
    point = [0] * n

    def rec(i, remaining):
        if i == n:
            yield tuple(point)
            return
        limit = math.isqrt(max(math.ceil(remaining) - 1, 0))
        while limit * limit >= remaining:
            limit -= 1
        for zi in range(-limit, limit + 1):
            point[i] = zi
            yield from rec(i + 1, remaining - zi * zi)
        point[i] = 0

    yield from rec(0, bound)


def oracle_forbidden_values(s, mu):
    """The forbidden set from the whole ball, keeping one of each +/- pair."""
    out = set()
    for z in oracle_ball_points(len(s.entries), mu - 1):
        if next((x for x in z if x), 0) <= 0:
            continue
        norm = sum(x * x for x in z)
        dot = abs(sum(x * e for x, e in zip(z, s.entries)))
        k = 1
        while norm + k * k < mu:
            if dot % k == 0 and dot // k > 0:
                out.add(dot // k)
            k += 1
    return sorted(out)


def oracle_cutoff(s, mu, interval):
    """The report's cutoff: the largest A with (A hi)^2 <= mu |s|^2, in
    Fraction, by doubling and then bisecting."""
    bound, hi = mu * sum(e * e for e in s.entries), Fraction(interval.hi)
    low, high = 0, 1
    while (high * hi) ** 2 <= bound:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if (mid * hi) ** 2 <= bound else (low, mid)
    return low


def oracle_interval_obstructions(s, mu, interval):
    """The obstruction report from a fresh walk of the full ball per k."""
    n = len(s.entries)
    k_max = math.isqrt(mu - 1)
    lo, hi = Fraction(interval.lo), Fraction(interval.hi)
    obstructed = {}
    witness_counts = {}
    residue_counts = {}
    union = set()
    for k in range(1, k_max + 1):
        cutoff = mu - k * k
        ik = set()
        counts = [0] * k
        primitive = 0
        for x in oracle_ball_points(n, cutoff):
            dot = sum(xi * e for xi, e in zip(x, s.entries))
            if not (k * lo <= dot <= k * hi):
                continue
            counts[dot % k] += 1
            if dot % k == 0:
                t = dot // k
                if lo <= t <= hi:
                    ik.add(t)
                content = 0
                for xi in x:
                    content = math.gcd(content, xi)
                if math.gcd(content, k) == 1:
                    primitive += 1
        obstructed[k] = sorted(ik)
        witness_counts[k] = (counts[0], primitive)
        residue_counts[k] = counts
        union.update(ik)
    return museq.ObstructionReport(
        k_max=k_max,
        A=oracle_cutoff(s, mu, interval),
        obstructed=obstructed,
        witness_counts=witness_counts,
        residue_counts=residue_counts,
        union=sorted(union),
        union_size=len(union),
    )


def check_against_oracle(s, mu, interval):
    """The (norm, |dot|) table gives what the full-ball definitions give."""
    assert museq.forbidden_values(s, mu) == oracle_forbidden_values(s, mu)
    report = museq.interval_obstructions(s, mu, interval)
    assert report == oracle_interval_obstructions(s, mu, interval)


def interval_ends(top):
    """An end of [lo, hi] up to about top: an integer, a float, or the float
    next to a ratio j/k, which puts k lo or k hi one ulp off an integer."""
    near_ratio = st.builds(lambda j, k, to: math.nextafter(j / k, to), st.integers(1, top),
                           st.integers(1, 7), st.sampled_from((-math.inf, math.inf)))
    return st.one_of(st.integers(1, top), st.floats(1e-3, float(top)), near_ratio)


@st.composite
def obstruction_cases(draw):
    """(s, mu, interval): n <= 5, entries <= 60, mu <= 14, 0 < lo <= hi."""
    tail = draw(st.lists(st.integers(1, 60), max_size=4))
    s = SVector((1,) + tuple(tail))
    mu = draw(st.integers(2, 14))
    bound = interval_ends(80)
    lo, hi = sorted((draw(bound), draw(bound)))
    return s, mu, museq.IntervalSpec.from_bounds(lo, hi, mu, len(s.entries))


@st.composite
def wide_mu_cases(draw):
    """(s, mu, interval): n <= 3, mu <= 50, so k reaches 4 (h = 4 is not
    squarefree) and 6 (h in {1, 2, 3, 6})."""
    tail = draw(st.lists(st.integers(1, 60), max_size=2))
    s = SVector((1,) + tuple(tail))
    mu = draw(st.integers(2, 50))
    bound = interval_ends(200)
    lo, hi = sorted((draw(bound), draw(bound)))
    return s, mu, museq.IntervalSpec.from_bounds(lo, hi, mu, len(s.entries))


@st.composite
def sparse_cases(draw):
    """(s, mu): n <= 3, entries <= 10^6, mu <= 50, so the dots spread far
    past the ball's count and most of each bitset row is empty."""
    tail = draw(st.lists(st.integers(1, 10**6), max_size=2))
    return SVector((1,) + tuple(tail)), draw(st.integers(2, 50))


def set_bits(row):
    """The positions of the set bits of a non-negative int."""
    return {i for i in range(row.bit_length()) if row >> i & 1}


class TestTableMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(obstruction_cases())
    def test_many_dimensions(self, case):
        check_against_oracle(*case)

    @settings(max_examples=150, deadline=None)
    @given(sparse_cases())
    def test_sparse_entries(self, case):
        assert museq.forbidden_values(*case) == oracle_forbidden_values(*case)

    @settings(max_examples=150, deadline=None)
    @given(obstruction_cases())
    def test_bitsets_hold_the_counted_dots(self, case):
        # each bitset row, less its offset B, is the signed dots of the
        # counting table's row at the same norm, both signs of each |dot|
        s, mu, _ = case
        offset = math.isqrt((mu - 2) * lattice.determinant(s))
        bitsets, counts = museq._dot_bitsets(s, mu, offset), museq._ball_table(s, mu)
        assert bitsets.keys() == counts.keys()
        for m, row in bitsets.items():
            assert {b - offset for b in set_bits(row)} == {v for d in counts[m] for v in (d, -d)}

    @settings(max_examples=150, deadline=None)
    @given(wide_mu_cases())
    def test_wide_mu(self, case):
        check_against_oracle(*case)

    @pytest.mark.parametrize("mu,lo,hi", [(17, 1, 40), (37, 1.5, 120.25), (50, 3, 1e300),
                                          (50, 1, 1.7e308)])
    def test_composite_k(self, mu, lo, hi):
        # k = 4 and k = 6 are reached, the gcd drops some witnesses of X_k(0),
        # and k hi may lie past float range
        s = SVector((1, 2, 5))
        interval = museq.IntervalSpec.from_bounds(lo, hi, mu, 3)
        check_against_oracle(s, mu, interval)
        counts = museq.interval_obstructions(s, mu, interval).witness_counts
        assert any(p < x for x, p in counts.values())

    def test_k_lo_overflows(self):
        # 2 lo lies past float range, and past vmax: every k >= 2 has no dots,
        # as in the oracle, and no traceback
        interval = museq.IntervalSpec.from_bounds(1e308, 1.5e308, 50, 3)
        check_against_oracle(SVector((1, 2, 5)), 50, interval)

    def test_large_mu_few_dimensions(self):
        # the two forbidden sets greedy_sequence(2000, 2) reads
        s = SVector((1,))
        for _ in range(2):
            forbidden = museq.forbidden_values(s, 2000)
            assert forbidden == oracle_forbidden_values(s, 2000)
            s = s.extended(museq.greedy_extend(s, 2000))

    def test_memory(self):
        # the last greedy step of the bench row (14, 8), and an interval of
        # +/- 12 around the entry it picks
        entries = museq.greedy_sequence(14, 8).s.entries
        s = SVector(entries[:-1])
        interval = museq.IntervalSpec.from_bounds(
            entries[-1] - 12, entries[-1] + 12, 14, len(s.entries))
        runs = ((lambda: museq.forbidden_values(s, 14), 2 << 20),
                (lambda: museq.interval_obstructions(s, 14, interval), 1 << 20))
        for run, limit in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit


class TestForbiddenValues:
    def test_examples(self):
        assert museq.forbidden_values(SVector((1,)), 2) == []
        assert museq.forbidden_values(SVector((1, 2)), 3) == [1, 2]
        assert museq.forbidden_values(SVector((1, 2, 3)), 3) == [1, 2, 3]

    def test_mu_validation(self):
        with pytest.raises(InputError):
            museq.forbidden_values(SVector((1,)), 1)

    def test_width_refused_before_the_bitsets(self, monkeypatch):
        # B = isqrt(|s|^2) = 10^12 at mu = 3: two rows (norms 0 and 1) and
        # one accumulator of 2 B + 1 bits each
        def no_bitsets(*args):
            raise AssertionError("_dot_bitsets called")

        monkeypatch.delenv("LATPACK_ENUM_BUDGET", raising=False)
        monkeypatch.setattr(museq, "_dot_bitsets", no_bitsets)
        with pytest.raises(ResourceBudgetError, match="bitsets of 6000000000003 bits") as refused:
            museq.forbidden_values(SVector((1, 10**12)), 3)
        assert refused.value.estimate == 3 * (2 * 10**12 + 1)
        assert refused.value.budget == 64 * lattice.DEFAULT_ENUM_BUDGET

    def test_width_budget_is_one_unit_a_word(self, monkeypatch):
        # 3 (2 10^6 + 1) bits at s = (1, 10^6), mu = 3: admitted by a budget
        # of 64 bits a unit that covers them, refused by one unit less
        s, bits = SVector((1, 10**6)), 3 * (2 * 10**6 + 1)
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(-(-bits // 64)))
        assert museq.forbidden_values(s, 3) == oracle_forbidden_values(s, 3)
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(-(-bits // 64) - 1))
        with pytest.raises(ResourceBudgetError) as refused:
            museq.forbidden_values(s, 3)
        assert refused.value.estimate == bits

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "1000")
        with pytest.raises(ResourceBudgetError):
            museq.forbidden_values(SVector((1,) * 9), 10**6)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 8))
    def test_step_work_covers_the_shifts_and_never_falls(self, mu, dim):
        # the table's rows, at most all of them read for each entry but the
        # last, and once each by the accumulator loop, x = 0 included
        entries, works = museq.greedy_sequence(mu, dim).s.entries, []
        for i in range(1, len(entries) + 1):
            s = SVector(entries[:i])
            offset = math.isqrt((mu - 2) * lattice.determinant(s))
            keys = museq._dot_bitsets(s, mu, offset).keys()
            shifts = i * sum(math.isqrt(mu - 2 - m) for m in keys) + len(keys)
            works.append(museq._step_work(s, mu))
            assert works[-1] >= shifts * ((2 * offset + 1) // 4096 + 1)
        assert works == sorted(works)

    def test_work_refused_before_the_bitsets(self, monkeypatch):
        # s = (1, 2, 3) at mu = 10: 3 entries, 9 rows, 3 x, 1 unit each
        def no_bitsets(*args):
            raise AssertionError("_dot_bitsets called")

        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "80")
        monkeypatch.setattr(museq, "_dot_bitsets", no_bitsets)
        with pytest.raises(ResourceBudgetError, match="after 3 entries is too large") as refused:
            museq.forbidden_values(SVector((1, 2, 3)), 10)
        assert refused.value.estimate == 3 * 9 * 3 == museq._step_work(SVector((1, 2, 3)), 10)


def set_walk(values, start):
    """Smallest integer >= start missing from `values`, stepping past a set."""
    blocked = set(values)
    while start in blocked:
        start += 1
    return start


class TestFirstGap:
    @given(st.sets(st.integers(min_value=-30, max_value=30)),
           st.integers(min_value=-40, max_value=40))
    def test_matches_set_walk(self, values, start):
        values = sorted(values)
        assert museq._first_gap(values, start) == set_walk(values, start)

    def test_edges(self):
        assert museq._first_gap([], 1) == 1  # empty list
        assert museq._first_gap([1, 2, 3], 9) == 9  # start past every value
        assert museq._first_gap([2, 3, 4], 1) == 1  # gap at the start
        assert museq._first_gap([1, 2, 3], 1) == 4  # gap past every value
        assert museq._first_gap([1, 2, 4, 5], 2) == 3


def counted_steps(monkeypatch):
    """Wrap `museq.forbidden_values`, called once a greedy step; returns its calls."""
    calls, step = [], museq.forbidden_values
    monkeypatch.setattr(museq, "forbidden_values", lambda *a: calls.append(a) or step(*a))
    return calls


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

    def test_mu4_certified(self):
        seq = museq.greedy_sequence(4, 2)
        assert seq.certified
        minimum, _ = lattice.shortest_vector(lattice.basis_from_s(seq.s))
        assert minimum >= 4

    @pytest.mark.parametrize("mu,dim", [(3, 4), (4, 3), (5, 3), (7, 3),
                                        (6, 7), (8, 6), (12, 5), (16, 5)])
    def test_matches_svp_oracle(self, mu, dim):
        """The test behind `certified`: every prefix of the oracle's ladder
        passes the exact SVP, and the greedy sequence is that ladder."""
        s = SVector((1,))
        for _ in range(dim):
            s = s.extended(oracle_extend(s, mu))
        seq = museq.greedy_sequence(mu, dim)
        assert seq.s.entries == s.entries and seq.certified

    def test_certified_without_a_shortest_vector_search(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("a shortest-vector search ran")
        monkeypatch.setattr(lattice, "shortest_vector", search)
        seq = museq.greedy_sequence(8, 9)
        assert seq.certified and len(seq.s.entries) == 10

    def test_certify_refuses_small_mu(self):
        with pytest.raises(InputError, match="mu must be >= 2, got 1"):
            museq.certify(SVector((1, 2)), 1)

    def test_certify_refuses_an_empty_basis(self):
        # s = (1,) has no orthogonal lattice; the CLI and density_report refuse it
        with pytest.raises(InputError, match="the basis is empty"):
            museq.certify(SVector((1,)), 3)

    def test_huge_dimension_refused_after_25_steps(self, monkeypatch):
        # s = (1, 2, ..., i + 1) at mu = 3 has 2 rows and 2 x, and 2 B + 1 < 4096
        # bits until i = 25: a step costs 4 (i + 1) units, the first 2
        steps = counted_steps(monkeypatch)
        with pytest.raises(ResourceBudgetError, match="1000000 is too large after 25 steps") as refused:
            museq.greedy_sequence(3, 10**6)
        assert len(steps) == 25
        spent = 2 + sum(4 * (i + 1) for i in range(1, 25))
        assert refused.value.estimate == spent + (10**6 - 25) * 4 * 26 > lattice.DEFAULT_ENUM_BUDGET

    def test_budget_bounds_the_work_of_the_steps_left(self, monkeypatch):
        # mu = 2: step i costs i + 1 units, and the 10 steps to dimension 10 cost 55
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "55")
        assert museq.greedy_sequence(2, 10).s.entries == (1,) * 11
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "54")
        with pytest.raises(ResourceBudgetError, match="after 9 steps") as refused:
            museq.greedy_sequence(2, 10)
        assert refused.value.estimate == 55

    def test_refused_by_the_step_it_would_make(self, monkeypatch):
        # two steps run; the third step's bitsets are over 64 times the budget
        steps = counted_steps(monkeypatch)
        with pytest.raises(ResourceBudgetError, match="bitsets of 2261183278941 bits"):
            museq.greedy_sequence(70000, 3)
        assert len(steps) == 2

    def test_admitted_by_their_steps_alone(self, monkeypatch):
        # the bench greedy ladder, with no rank rule and no half-ball count
        def refuse(*args):
            raise AssertionError("a rank or half-ball rule ran")

        monkeypatch.setattr(lattice, "check_rank", refuse)
        monkeypatch.setattr(museq, "_check_half_ball", refuse)
        for mu, dim in ((2, 10), (3, 8), (4, 12), (6, 9), (8, 9), (10, 9), (12, 8), (14, 8),
                        (16, 7)):
            assert len(museq.greedy_sequence(mu, dim).s.entries) == dim + 1

    def test_density_bound_holds(self):
        for mu in (2, 3, 6):
            seq = museq.greedy_sequence(mu, 6)
            report = lattice.density_report(seq.s)
            assert report.center_density >= museq.greedy_density_bound(mu, 6)

    @given(st.integers(min_value=2, max_value=100), st.integers(min_value=1, max_value=60))
    def test_entry_bounds_match_the_displayed_formulas(self, mu, n):
        """(1 + sqrt(mu-2) sqrt(mu-1+n/4)^n V_n, sqrt(mu) sqrt(mu+n/4)^n V_n),
        evaluated directly where that stays in float range."""
        first, second = museq.greedy_entry_bounds(mu, n)
        v = numth.ball_volume(n)
        assert first == pytest.approx(
            1.0 + math.sqrt(mu - 2) * math.sqrt(mu - 1 + n / 4.0) ** n * v, rel=1e-12)
        assert second == pytest.approx(math.sqrt(mu) * math.sqrt(mu + n / 4.0) ** n * v,
                                       rel=1e-12)

    @pytest.mark.parametrize("n", [979, 1000, 2000])
    @pytest.mark.parametrize("mu", [2, 3])
    def test_entry_bounds_past_float_range_are_inf(self, mu, n):
        first, second = museq.greedy_entry_bounds(mu, n)
        assert second == math.inf
        assert first == (1.0 if mu == 2 else math.inf)

    @given(st.integers(min_value=2, max_value=100), st.integers(min_value=1, max_value=60))
    def test_density_bound_matches_the_displayed_formula(self, mu, n):
        direct = (1.0 + n / (4.0 * mu)) ** (-n / 2.0) / (2.0**n * math.sqrt((n + 1) * mu))
        assert museq.greedy_density_bound(mu, n) == pytest.approx(direct, rel=1e-12)


class TestIntervalSpec:
    def test_sigma_round_trip(self):
        scale = 5**1.5 * 4.0 * math.pi / 3.0  # mu^(n/2) V_n at mu = 5, n = 3
        spec = museq.IntervalSpec.from_bounds(0.5 * scale, 0.6 * scale, 5, 3)
        assert spec.sigma == pytest.approx(0.6, rel=1e-12)
        assert spec.sigma_tilde == pytest.approx(0.5, rel=1e-12)
        assert spec.epsilon == pytest.approx(0.2, rel=1e-12)

    def test_integers(self):
        spec = museq.IntervalSpec.from_bounds(2.5, 6.1, 3, 2)
        assert spec.integers() == [3, 4, 5, 6]

    def test_rejects_bad_interval(self):
        for lo, hi in ((5.0, 3.0), (0.0, 3.0), (-1.0, 3.0), (1.0, math.inf),
                       (math.nan, 3.0)):
            with pytest.raises(InputError):
                museq.IntervalSpec.from_bounds(lo, hi, 3, 2)

    def test_rejects_small_mu(self):
        with pytest.raises(InputError):
            museq.IntervalSpec.from_bounds(1.0, 2.0, 0, 2)
        interval = museq.IntervalSpec.from_bounds(1.0, 2.0, 3, 2)
        with pytest.raises(InputError):
            museq.interval_obstructions(SVector((1, 2)), 1, interval)


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

        def smallest(lo, hi):
            interval = museq.IntervalSpec.from_bounds(lo, hi, 3, 2)
            report = museq.interval_obstructions(s, 3, interval)
            return museq.smallest_unobstructed(report, interval)

        assert smallest(3.0, 10.0) == 3
        assert smallest(1.0, 2.0) is None
        # the interval's integers are walked lazily, never listed
        assert smallest(1.0, 1e300) == 3

    def test_cutoff_at_a_perfect_square(self):
        # mu |s|^2 = 12 * 75 = 900 = 30^2, so A = sqrt(900) / 1 exactly
        interval = museq.IntervalSpec.from_bounds(1, 1, 12, 4)
        assert museq.interval_obstructions(SVector((1, 3, 7, 4)), 12, interval).A == 30

    def test_lo_one_ulp_above_a_third(self):
        # 3 lo > 1 exactly, so the dot 1 is not in [3 lo, 3 hi]
        lo = math.nextafter(1 / 3, math.inf)
        interval = museq.IntervalSpec.from_bounds(lo, 1, 14, 2)
        report = museq.interval_obstructions(SVector((1, 2)), 14, interval)
        assert report.residue_counts[3] == [1, 0, 2]

    @pytest.mark.parametrize("mu", [3, 4, 5, 6])
    def test_membership_matches_svp(self, mu):
        s = museq.greedy_sequence(mu, 2).s
        assert museq.certify(s, mu)
        interval = museq.IntervalSpec.from_bounds(1.0, 25.0, mu, len(s.entries))
        report = museq.interval_obstructions(s, mu, interval)
        blocked = set(report.union)
        for t in interval.integers():
            assert museq.certify(s.extended(t), mu) == (t not in blocked)


class TestHalfBallBudget:
    """The rule that admits `interval_obstructions`' counting table."""

    def test_budget_counts_the_work_exactly(self, monkeypatch):
        # the readers' work is the pairs (z, k), k >= 1, |z|^2 + k^2 <= mu - 1:
        # the bound (about 6000) is over the budget, the exact count is not
        s = SVector((1,) * 5)
        interval = museq.IntervalSpec.from_bounds(1, 10, 10, 5)
        pairs = sum(c * math.isqrt(9 - m)
                    for m, c in enumerate(numth.theta_coefficients(5, 9)))
        assert pairs == sum(math.isqrt(9 - sum(x * x for x in z))
                            for z in itertools.product(range(-3, 4), repeat=5)
                            if sum(x * x for x in z) <= 9)
        assert pairs < numth.ball_point_count_bound(6, 9) / 2
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(pairs))
        check_against_oracle(s, 10, interval)
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(pairs - 1))
        with pytest.raises(ResourceBudgetError) as refused:
            museq.interval_obstructions(s, 10, interval)
        assert refused.value.estimate == pairs

    def test_bound_refuses_when_the_count_is_dear(self, monkeypatch):
        # the exact count's n mu (isqrt(mu - 1) + 1) steps are over the budget
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "100")
        interval = museq.IntervalSpec.from_bounds(1, 10, 10, 5)
        with pytest.raises(ResourceBudgetError) as refused:
            museq.interval_obstructions(SVector((1,) * 5), 10, interval)
        assert refused.value.estimate == numth.ball_point_count_bound(6, 9) / 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 300))
    def test_pairs_lower_bound_below_the_count(self, n, top):
        pairs = sum(c * math.isqrt(top - m)
                    for m, c in enumerate(numth.theta_coefficients(n, top)))
        assert museq._pairs_lower_bound(n, top) <= pairs

    def test_lower_bound_refuses_before_counting(self, monkeypatch):
        # 1.2e10 pairs: the exact count's 5.6e7 steps are under the default
        # budget, but the lower bound refuses before they start
        def no_count(*args):
            raise AssertionError("theta_coefficients called")

        monkeypatch.delenv("LATPACK_ENUM_BUDGET", raising=False)
        monkeypatch.setattr(numth, "theta_coefficients", no_count)
        interval = museq.IntervalSpec.from_bounds(1, 10, 70000, 3)
        with pytest.raises(ResourceBudgetError) as refused:
            museq.interval_obstructions(SVector((1, 2, 3)), 70000, interval)
        assert refused.value.estimate == museq._pairs_lower_bound(3, 69999)
        assert refused.value.estimate > lattice.DEFAULT_ENUM_BUDGET

    def test_lower_bound_admits_every_ball_that_runs(self):
        # the obstruction tables of every prefix of these greedy rows
        rows = [(mu, 12) for mu in range(2, 17)]
        rows += [(5, 24), (6, 20), (8, 16), (4, 40), (3, 60)]
        for mu, dim in rows:
            for n in range(1, dim + 1):
                assert museq._pairs_lower_bound(n, mu - 1) <= lattice.DEFAULT_ENUM_BUDGET
