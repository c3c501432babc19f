import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from latpack import lattice
from latpack.acceptance import brute_minimum
from latpack.errors import InputError, ResourceBudgetError
from latpack.lattice import SVector


class TestSVector:
    def test_validation(self):
        with pytest.raises(InputError):
            SVector(())
        with pytest.raises(InputError):
            SVector((2, 1))
        with pytest.raises(InputError):
            SVector((1, 0))
        with pytest.raises(InputError):
            SVector((1, -3))

    def test_dim_and_extend(self):
        s = SVector((1, 2))
        assert s.dim == 1
        assert s.extended(5).entries == (1, 2, 5)


class TestBasisAndGram:
    def test_basis_examples(self):
        assert lattice.basis_from_s(SVector((1, 1))) == [(1, -1)]
        rows = lattice.basis_from_s(SVector((1, 1, 1)))
        assert rows == [(1, -1, 0), (1, 0, -1)]
        assert lattice.gram(rows) == [[2, 1], [1, 2]]

    def test_gram_det_123(self):
        rows = lattice.basis_from_s(SVector((1, 2, 3)))
        g = lattice.gram(rows)
        assert g == [[5, 6], [6, 10]]
        assert lattice.gram_determinant(g) == 14

    def test_determinant_closed_form(self):
        assert lattice.determinant(SVector((1, 1))) == 2
        assert lattice.determinant(SVector((1, 2, 3))) == 14
        for n in range(1, 8):
            assert lattice.determinant(SVector((1,) * (n + 1))) == n + 1

    def test_determinant_identity_random(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 8)
            s = SVector((1,) + tuple(rng.randint(1, 50) for _ in range(n)))
            rows = lattice.basis_from_s(s)
            assert lattice.gram_determinant(lattice.gram(rows)) == \
                lattice.determinant(s)

    @given(st.lists(st.integers(min_value=1, max_value=1000),
                    min_size=1, max_size=6))
    def test_determinant_identity_hypothesis(self, tail):
        s = SVector((1,) + tuple(tail))
        rows = lattice.basis_from_s(s)
        assert lattice.gram_determinant(lattice.gram(rows)) == \
            lattice.determinant(s)


class TestLLL:
    def test_single_row_fixed(self):
        assert lattice.lll_reduce([(1, -1)]) == [(1, -1)]

    def test_a2_reduced_diagonal(self):
        rows = lattice.lll_reduce(lattice.basis_from_s(SVector((1, 1, 1))))
        g = lattice.gram(rows)
        assert (g[0][0], g[1][1]) == (2, 2)

    def test_det_preserved_random(self):
        rng = random.Random(7)
        for _ in range(10):
            s = SVector((1,) + tuple(rng.randint(1, 40) for _ in range(4)))
            rows = lattice.basis_from_s(s)
            reduced = lattice.lll_reduce(rows)
            assert lattice.gram_determinant(lattice.gram(reduced)) == \
                lattice.gram_determinant(lattice.gram(rows))


class TestShortestVector:
    def test_a2_minimum(self):
        rows = lattice.basis_from_s(SVector((1, 1, 1)))
        minimum, witness = lattice.shortest_vector(rows)
        assert minimum == 2
        assert sum(x * x for x in witness) == 2

    def test_witness_123(self):
        rows = lattice.basis_from_s(SVector((1, 2, 3)))
        assert lattice.shortest_vector(rows) == (3, (1, 1, -1))

    def test_one_dim(self):
        rows = lattice.basis_from_s(SVector((1, 1)))
        assert lattice.shortest_vector(rows) == (2, (1, -1))

    def test_upper_certification(self):
        rows = lattice.basis_from_s(SVector((1, 2, 3)))
        # minimum is 3: upper=3 certifies, upper=4 finds the witness
        assert lattice.shortest_vector(rows, upper=3) == (3, None)
        assert lattice.shortest_vector(rows, upper=4) == (3, (1, 1, -1))

    def test_witness_is_canonical(self):
        _, witness = lattice.shortest_vector(
            lattice.basis_from_s(SVector((1, 3, 4, 5)))
        )
        first_nonzero = next(x for x in witness if x != 0)
        assert first_nonzero > 0

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 4)
            s = SVector((1,) + tuple(rng.randint(1, 12) for _ in range(n)))
            minimum, witness = lattice.shortest_vector(lattice.basis_from_s(s))
            assert minimum == brute_minimum(s)
            assert sum(x * e for x, e in zip(witness, s.entries)) == 0
            assert sum(x * x for x in witness) == minimum

    def test_budget_exhaustion(self):
        rows = lattice.basis_from_s(SVector((1, 31, 47, 59, 64)))
        with pytest.raises(ResourceBudgetError):
            lattice.shortest_vector(rows, budget=3)

    def test_minimum_nonincreasing_along_prefixes(self):
        # appending an entry embeds the old lattice via a trailing zero
        entries = (1, 5, 9, 13, 21)
        previous = None
        for k in range(2, len(entries) + 1):
            s = SVector(entries[:k])
            minimum, _ = lattice.shortest_vector(lattice.basis_from_s(s))
            if previous is not None:
                assert minimum <= previous
            previous = minimum


class TestDensityReport:
    def test_one_dim_perfect(self):
        report = lattice.density_report(SVector((1, 1)))
        assert report.density == pytest.approx(1.0)

    def test_hexagonal(self):
        report = lattice.density_report(SVector((1, 1, 1)))
        assert report.center_density == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0)), rel=1e-12
        )

    def test_123(self):
        report = lattice.density_report(SVector((1, 2, 3)))
        assert report.minimum == 3
        assert report.determinant == 14
        # delta = sqrt(min^n / (4^n det)) with n = 2 (the lattice rank)
        assert report.center_density == pytest.approx(
            math.sqrt(9.0 / (16.0 * 14.0)), rel=1e-12
        )

    def test_hermite_consistency(self):
        report = lattice.density_report(SVector((1, 2, 3, 4)))
        n = report.dim
        assert report.hermite == pytest.approx(
            4.0 * report.center_density ** (2.0 / n), rel=1e-12
        )
        assert report.hermite == pytest.approx(
            report.minimum / report.determinant ** (1.0 / n), rel=1e-12
        )
