import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from latpack import acceptance, approx, cli, lattice, museq
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
        # entries are integers, never truncated or converted
        for bad in (2.7, 2.0, math.nan, math.inf, -math.inf, "3", None):
            with pytest.raises(InputError, match="must be integers"):
                SVector((1, bad))
        with pytest.raises(InputError, match="must be integers"):
            SVector((1.0, 2))
        with pytest.raises(InputError, match="must be integers"):
            SVector((1, 2)).extended(2.7)

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


class TestCheckRank:
    def test_estimate_counts_gram_schmidt_steps(self, monkeypatch):
        # the inner steps of integral_gram_schmidt on an n x n Gram matrix
        for n in range(3, 30):  # from n = 3 the budget below stays >= 1
            steps = sum(j for i in range(n) for j in range(i + 1))
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(steps))
            lattice.check_rank(n)
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(steps - 1))
            with pytest.raises(ResourceBudgetError) as refused:
                lattice.check_rank(n)
            assert refused.value.estimate == steps

    def test_refused_before_the_basis_is_built(self, monkeypatch):
        # neither the n (n + 1) rows nor the closed form's n^2 lam is built
        def reached(*args):
            raise AssertionError("reached the reduction past the rank check")

        certificates = (lattice.basis_from_s, lattice.density_report,
                        lambda s: museq.certify(s, 2))
        with monkeypatch.context() as patched:
            patched.setattr(lattice, "_kernel_gram_schmidt", reached)
            patched.setattr(lattice, "lll_reduce", reached)
            for build in certificates:
                with pytest.raises(ResourceBudgetError) as refused:
                    build(SVector((1,) * 10**4 + (1,)))
                assert refused.value.estimate == (10**4 - 1) * 10**4 * (10**4 + 1) // 6
                assert refused.value.budget == lattice.DEFAULT_ENUM_BUDGET
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "165")  # rank 10: 165 steps
        assert len(lattice.basis_from_s(SVector((1,) * 11))) == 10
        assert museq.certify(SVector((1,) * 11), 2)
        for build in certificates:
            with pytest.raises(ResourceBudgetError, match="rank 11"):
                build(SVector((1,) * 12))

    def test_admits_the_largest_greedy_runs(self):
        for n in (60, 40, 24, 12):
            lattice.check_rank(n)


class TestEnumBudget:
    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_default(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("LATPACK_ENUM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", value)
        assert lattice.enum_budget() == lattice.DEFAULT_ENUM_BUDGET

    @pytest.mark.parametrize("value,budget", [("1", 1), ("7", 7), (" 12 ", 12)])
    def test_reads_a_positive_integer(self, monkeypatch, value, budget):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", value)
        assert lattice.enum_budget() == budget

    @pytest.mark.parametrize("value,message", [
        ("abc", "must be an integer, got 'abc'"),
        ("1e8", "must be an integer, got '1e8'"),
        ("0", "must be >= 1, got 0"),
        ("-5", "must be >= 1, got -5"),
    ])
    def test_refused(self, monkeypatch, value, message):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", value)
        with pytest.raises(InputError, match=f"LATPACK_ENUM_BUDGET {message}"):
            lattice.enum_budget()


def fraction_gram_schmidt(b):
    """Exact rational Gram-Schmidt data (mu coefficients, squared norms)."""
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = []
    c = []
    for i in range(n):
        v = [Fraction(x) for x in b[i]]
        for j in range(i):
            if c[j] == 0:
                raise InputError("basis rows are linearly dependent")
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], bstar[j])) / c[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        c.append(sum(x * x for x in v))
    if c and c[-1] == 0:
        raise InputError("basis rows are linearly dependent")
    return mu, c


def fraction_lll_reduce(rows, delta=Fraction(99, 100)):
    """Reference LLL: rebuilds the rational Gram-Schmidt data after every
    size reduction and swap.  `lattice.lll_reduce` must match it exactly."""
    b = [list(r) for r in rows]
    n = len(b)
    mu, c = fraction_gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, c = fraction_gram_schmidt(b)
        if c[k] >= (delta - mu[k][k - 1] ** 2) * c[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, c = fraction_gram_schmidt(b)
            k = max(k - 1, 1)
    return [tuple(r) for r in b]


@st.composite
def lower_triangular_rows(draw):
    """Integer rows like `approx._float_gram_minimum` feeds to enumeration:
    a Cholesky factor scaled by 10^6 and rounded, so lower triangular with
    a positive diagonal."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-10**6, max_value=10**6)
    diagonal = st.integers(min_value=1, max_value=10**6)
    return [
        tuple(draw(diagonal) if j == i else draw(entry) if j < i else 0
              for j in range(n))
        for i in range(n)
    ]


def generic_start(function, *args, **kwargs):
    """`function(*args, **kwargs)` with `lll_reduce` started from the generic
    Gram-Schmidt pass on any rows, kernel bases too."""
    with mock.patch.object(lattice, "_kernel_gram_schmidt", lambda rows: None):
        return function(*args, **kwargs)


def plain_shortest_vector(rows, upper=None):
    """Reference enumeration for `lattice.shortest_vector`: the whole tree,
    both signs of every vector, each leaf's norm from the Gram matrix and
    each witness expanded into ambient coordinates at the end; no budget.
    The pruning and the exact decisions are the ones the library makes;
    LLL starts from the generic pass."""
    reduced = generic_start(lattice.lll_reduce, rows)[0]
    g = lattice.gram(reduced)
    n = len(g)
    d, lam = lattice.integral_gram_schmidt(g)
    c = [d[i + 1] / d[i] for i in range(n)]
    mu = [[lam[i][j] / d[j + 1] for j in range(i)] for i in range(n)]

    def exact_norm(coeffs):
        return sum(
            coeffs[i] * coeffs[j] * g[i][j] for i in range(n) for j in range(n)
        )

    best = min(g[i][i] for i in range(n))
    if upper is not None and upper <= best:
        limit = math.ceil(upper) - 1
        best = None
    else:
        upper = None
        limit = best
    bound = limit * lattice._PRUNE_MARGIN
    candidates = []
    x = [0] * n

    def descend(i, partial):
        nonlocal best, bound, candidates
        center = -sum(mu[j][i] * x[j] for j in range(i + 1, n))
        radius = math.sqrt(max(bound - partial, 0.0) / c[i])
        lo = math.ceil(center - radius - 1e-9)
        hi = math.floor(center + radius + 1e-9)
        for xi in range(lo, hi + 1):
            x[i] = xi
            new_partial = partial + c[i] * (xi - center) ** 2
            if new_partial > bound:
                continue
            if i == 0:
                if all(v == 0 for v in x):
                    continue
                norm = exact_norm(x)
                if upper is not None and norm >= upper:
                    continue
                if best is None or norm < best:
                    best = norm
                    bound = best * lattice._PRUNE_MARGIN
                    candidates = [tuple(x)]
                elif norm == best:
                    candidates.append(tuple(x))
            else:
                descend(i - 1, new_partial)
        x[i] = 0

    descend(n - 1, 0.0)
    if best is None:
        return upper, None
    witnesses = set()
    for coeffs in candidates:
        ambient = tuple(
            sum(coeffs[i] * reduced[i][j] for i in range(n))
            for j in range(len(reduced[0]))
        )
        witnesses.add(lattice._canonical(ambient))
    return best, min(witnesses)


def kernel_s(lo, hi, max_size):
    tails = st.lists(st.integers(min_value=lo, max_value=hi),
                     min_size=1, max_size=max_size)
    return tails.map(lambda tail: SVector((1,) + tuple(tail)))


def kernel_rows(lo, hi, max_size):
    return kernel_s(lo, hi, max_size).map(lattice.basis_from_s)


def check_lll(rows):
    """`lll_reduce` matches the rational reference on the basis, and the
    d/lam it returns is that of the reduced basis, computed afresh."""
    reduced, d, lam = lattice.lll_reduce(rows)
    assert reduced == fraction_lll_reduce(rows)
    assert (d, lam) == lattice.integral_gram_schmidt(lattice.gram(reduced))


class TestLLL:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=1, max_size=10))
    def test_matches_fraction_oracle_on_kernel_bases(self, tail):
        check_lll(lattice.basis_from_s(SVector((1,) + tuple(tail))))

    @given(st.integers(min_value=-10**30, max_value=10**30),
           st.integers(min_value=1, max_value=10**12))
    def test_round_div_is_round_of_the_fraction(self, a, b):
        assert lattice._round_div(a, b) == round(Fraction(a, b))

    def test_round_div_breaks_ties_to_even(self):
        # every tie a / b = q + 1/2 for b <= 12, on both sides of 0
        for b in range(2, 13, 2):
            for a in range(-5 * b - b // 2, 5 * b, b):
                assert lattice._round_div(a, b) == round(Fraction(a, b))

    def test_matches_fraction_oracle_on_ties(self):
        # small entries make mu_kj = +-1/2, +-3/2 ... often: the rounding
        # must break those ties to even, as round(Fraction) does
        for n in range(1, 4):
            for tail in itertools.product(range(1, 5), repeat=n):
                check_lll(lattice.basis_from_s(SVector((1,) + tail)))

    @settings(max_examples=50, deadline=None)
    @given(lower_triangular_rows())
    def test_matches_fraction_oracle_on_general_rows(self, rows):
        check_lll(rows)
        assert lattice.gram_determinant(lattice.gram(rows)) == \
            math.prod(row[i] for i, row in enumerate(rows)) ** 2

    @pytest.mark.parametrize("rows", [
        [(1, 2, 3), (2, 4, 6)],
        [(1, 0), (0, 1), (1, 1)],
        [(0, 0, 0), (1, 2, 3)],
        [(1, 2, 3), (0, 0, 0)],
        [(0, 0)],
    ])
    def test_dependent_rows_rejected(self, rows):
        with pytest.raises(InputError):
            fraction_lll_reduce(rows)
        with pytest.raises(InputError):  # singular Gram matrix
            lattice.gram_determinant(lattice.gram(rows))
        with pytest.raises(InputError):
            lattice.lll_reduce(rows)
        with pytest.raises(InputError):
            lattice.shortest_vector(rows)

    def test_single_row_fixed(self):
        assert lattice.lll_reduce([(1, -1)]) == ([(1, -1)], [1, 2], [[0]])

    def test_a2_reduced_diagonal(self):
        rows, _, _ = lattice.lll_reduce(lattice.basis_from_s(SVector((1, 1, 1))))
        g = lattice.gram(rows)
        assert (g[0][0], g[1][1]) == (2, 2)

    def test_det_preserved_random(self):
        rng = random.Random(7)
        for _ in range(10):
            s = SVector((1,) + tuple(rng.randint(1, 40) for _ in range(4)))
            rows = lattice.basis_from_s(s)
            reduced, d, _ = lattice.lll_reduce(rows)
            assert d[-1] == lattice.determinant(s)
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

    def test_budget_exhaustion(self, monkeypatch):
        rows = lattice.basis_from_s(SVector((1, 31, 47, 59, 64)))
        estimates = []
        for budget in (2, 3):
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", str(budget))
            with pytest.raises(ResourceBudgetError) as info:
                lattice.shortest_vector(rows)
            assert info.value.budget == budget
            assert info.value.estimate > budget
            estimates.append(info.value.estimate)
        # a Gaussian-heuristic count of the whole search, not the nodes so far
        assert estimates[0] == estimates[1]

    def test_witness_exact_past_float_resolution(self):
        # norms near 2^56: the two minimal vectors tie, and float pruning
        # without a margin used to drop the lexicographically smaller one
        n = 2**28 + 1
        rows = lattice.basis_from_s(SVector((1, n, n * n)))
        witness = (0, n, -1)
        assert lattice.shortest_vector(rows) == (n * n + 1, witness)
        assert lattice.shortest_vector(rows, upper=n * n + 1) == (n * n + 1, None)
        assert lattice.shortest_vector(rows, upper=n * n + 2) == \
            (n * n + 1, witness)

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=2**40, max_value=2**44),
                    min_size=1, max_size=3))
    def test_upper_agrees_with_plain_search_on_large_entries(self, tail):
        rows = lattice.basis_from_s(SVector((1,) + tuple(tail)))
        minimum, witness = lattice.shortest_vector(rows)
        assert lattice.shortest_vector(rows, upper=minimum + 1) == \
            (minimum, witness)
        assert lattice.shortest_vector(rows, upper=minimum) == (minimum, None)

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


class TestEnumerationOracle:
    """`shortest_vector` walks half the tree and decides leaves from the
    exact vector on the path; `plain_shortest_vector` walks all of it."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        kernel_rows(1, 12, 14),  # many ties
        kernel_rows(1, 10**6, 14),
        kernel_rows(2**40, 2**60, 14),  # norms past float resolution
        st.integers(min_value=2, max_value=12).map(
            lambda mu: lattice.basis_from_s(museq.greedy_sequence(mu, 8).s)),
        st.integers(min_value=1, max_value=12).map(
            lambda n: lattice.basis_from_s(SVector((1,) * (n + 1)))),
        lower_triangular_rows(),  # approx enumerates non-kernel bases
    ))
    def test_matches_plain_enumeration(self, rows):
        result = lattice.shortest_vector(rows)
        assert result == plain_shortest_vector(rows)
        m = result[0]
        for upper in (m, m + 1, max(1, m // 2)):
            assert lattice.shortest_vector(rows, upper=upper) == \
                plain_shortest_vector(rows, upper=upper)

    @pytest.mark.parametrize("n", range(1, 29))
    def test_a_n(self, n):
        rows = lattice.basis_from_s(SVector((1,) * (n + 1)))
        assert lattice.shortest_vector(rows) == (2, (0,) * (n - 1) + (1, -1))

    def test_a10_report_within_300_nodes(self, monkeypatch):
        # the whole tree takes 450 nodes, half of it 229
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "300")
        report = lattice.density_report(SVector((1,) * 11))
        assert report.minimum == 2

    def test_a60_report_keeps_one_witness(self):
        # A_60 has 1,830 minimal pairs +-v of 61 entries each: keeping them
        # all peaks near 1.2 MiB, keeping the least one near 170 KiB
        tracemalloc.start()
        try:
            report = lattice.density_report(SVector((1,) * 61))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.minimum == 2
        assert report.witness == (0,) * 59 + (1, -1)
        assert peak < 400 * 1024


@st.composite
def kernel_shaped_rows(draw, min_rank=1):
    """The rows `basis_from_s` builds, t[i] e_0 - e_(i+1), at ranks up to 14,
    but with any integer t[i] in column 0: zero and negative ones too."""
    entry = st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6),
                      st.integers(-2**60, 2**60))
    t = draw(st.lists(entry, min_size=min_rank, max_size=14))
    return [tuple(t[i] if j == 0 else -1 if j == i + 1 else 0
                  for j in range(len(t) + 1))
            for i in range(len(t))]


@st.composite
def near_kernel_rows(draw):
    """Kernel-shaped rows with one defect that breaks the shape but keeps
    them independent: +1 for a -1, one more nonzero entry in columns 1..n,
    two rows swapped, a row one entry longer or shorter, or one more row."""
    rows = [list(row) for row in draw(kernel_shaped_rows(min_rank=2))]
    n = len(rows)
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    defect = draw(st.sampled_from(
        ["plus one", "extra entry", "swap", "longer", "shorter", "more rows"]))
    if defect == "plus one":
        rows[i][i + 1] = 1
    elif defect == "extra entry":  # in column j + 1 of row i, off its -1
        rows[i][j + 1] = draw(st.integers(-2**60, 2**60).filter(bool))
    elif defect == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif defect == "longer":
        rows[i].append(draw(st.integers(-12, 12)))
    elif defect == "shorter":  # drops a trailing 0, not the last row's -1
        rows[min(i, j)].pop()
    else:
        rows.append([1] + [0] * n)  # e_0, off the hyperplane the rows span
    return [tuple(row) for row in rows]


class TestKernelGramSchmidt:
    """LLL starts a kernel basis, recognised by its rows, from the closed
    form; the generic pass on the Gram matrix it replaces is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_shaped_rows())
    def test_closed_form_for_every_column_zero(self, rows):
        assert lattice._kernel_gram_schmidt(rows) == \
            lattice.integral_gram_schmidt(lattice.gram(rows))
        assert lattice.lll_reduce(rows) == generic_start(lattice.lll_reduce, rows)

    @settings(max_examples=300, deadline=None)
    @given(near_kernel_rows())
    def test_near_misses_take_the_generic_pass(self, rows):
        assert lattice._kernel_gram_schmidt(rows) is None
        assert lattice.lll_reduce(rows) == generic_start(lattice.lll_reduce, rows)

    def test_one_rank_check_per_certificate(self, monkeypatch):
        checked = []
        check_rank = lattice.check_rank

        def counted(n):
            checked.append(n)
            check_rank(n)

        monkeypatch.setattr(lattice, "check_rank", counted)
        lattice.density_report(SVector((1, 2, 3)))
        assert checked == [2]
        checked.clear()
        museq.greedy_sequence(3, 6)  # no kernel basis: admitted by its steps' work
        assert checked == []


class _GenericPass(Exception):
    """Raised by `lattice.gram` and `lattice.integral_gram_schmidt` while
    they are patched out."""


class TestOneGramSchmidtPerCertificate:
    """A Lambda(s) certificate builds no Gram matrix and makes no generic
    Gram-Schmidt pass; generic rows still do."""

    @pytest.fixture
    def no_generic_pass(self, monkeypatch):
        def refuse(*args):
            raise _GenericPass
        monkeypatch.setattr(lattice, "gram", refuse)
        monkeypatch.setattr(lattice, "integral_gram_schmidt", refuse)

    def test_certificates_answer(self, no_generic_pass, capsys):
        assert lattice.density_report(SVector((1, 2, 3))).minimum == 3
        assert museq.certify(SVector((1, 2, 3, 4, 5)), 3)
        assert not museq.certify(SVector((1, 2, 3)), 4)
        assert acceptance._enumeration_oracle(acceptance._Shared())
        assert cli.run("lattice report --s 1,2,3".split()) == 0
        assert '"minimum": 3' in capsys.readouterr().out
        assert cli.run("museq certify --s 1,2,3,4,5 --mu 3".split()) == 0
        assert '"certified": true' in capsys.readouterr().out
        assert cli.run("museq greedy --mu 3 --dim 6".split()) == 0
        assert '"certified": true' in capsys.readouterr().out

    def test_generic_rows_take_the_generic_pass(self, no_generic_pass):
        with pytest.raises(_GenericPass):  # approx's grid search
            approx._float_gram_minimum([[1.0, 0.0], [0.5, 0.8]])
        with pytest.raises(_GenericPass):  # criterion 10, the oracle
            acceptance._determinant_identity(acceptance._Shared())
        with pytest.raises(_GenericPass):
            lattice.shortest_vector([(1, 0), (0, 1)])


def plain_brute_minimum(s):
    """Reference for `acceptance.brute_minimum`: the same box, each point's
    norm summed on its own."""
    tail = s.entries[1:]
    bound = math.isqrt(min(e * e + 1 for e in tail)) + 1
    best = None
    for z in itertools.product(range(-bound, bound + 1), repeat=len(tail)):
        if not any(z):
            continue
        z0 = -sum(a * b for a, b in zip(z, tail))
        norm = z0 * z0 + sum(x * x for x in z)
        if best is None or norm < best:
            best = norm
    return best


#: The largest smallest entry drawn per tail length: the box has
#: (2 m + 3)^len points for a smallest entry m, here at most 50,625.
_SMALLEST_ENTRY = {1: 1000, 2: 100, 3: 12, 4: 6}


@st.composite
def brute_instances(draw):
    """s with 1..4 tail entries in 1..12 or up to 10^3, one of them small
    enough for the box of the plain oracle."""
    length = draw(st.integers(min_value=1, max_value=4))
    top = draw(st.sampled_from((12, 1000)))
    tail = draw(st.lists(st.integers(min_value=1, max_value=top),
                         min_size=length - 1, max_size=length - 1))
    small = draw(st.integers(min_value=1, max_value=min(top, _SMALLEST_ENTRY[length])))
    tail.insert(draw(st.integers(min_value=0, max_value=length - 1)), small)
    return SVector((1,) + tuple(tail))


class TestBruteMinimum:
    """`brute_minimum` evaluates its box a row of the last coordinate at a
    time; `plain_brute_minimum` one point at a time."""

    @settings(max_examples=80, deadline=None)
    @given(brute_instances())
    def test_matches_plain_oracle(self, s):
        assert brute_minimum(s) == plain_brute_minimum(s)

    def test_sweep_instances(self):
        for s in acceptance._Shared().random_s[1]:
            assert brute_minimum(s) == plain_brute_minimum(s)

    def test_empty_head(self):
        # one free coordinate x: norm (x e)^2 + x^2, least at x = +/-1
        for e in (1, 2, 7, 1000):
            assert brute_minimum(SVector((1, e))) == e * e + 1


class TestDensityReport:
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=10**12))
    def test_log_center_density_matches_direct_formula(self, n, minimum, det):
        direct = math.sqrt(minimum**n / (4**n * det))
        assert math.exp(lattice.log_center_density(n, minimum, det)) == \
            pytest.approx(direct, rel=1e-12)

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
