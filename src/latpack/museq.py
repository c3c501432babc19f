"""Greedy construction of minimum-certified sequences.

A mu-sequence is s_0 = 1, s_1, ... such that every prefix's orthogonal
lattice in Z^(n+1) has minimum >= mu.  The greedy extension picks the
smallest value avoiding the finite forbidden set of (value, k) pairs
that would create a short vector; the interval machinery enumerates the
obstruction sets I_k and their witness sets X_k(a) exactly.
"""

import math
from dataclasses import dataclass

from . import lattice, numth
from .errors import InputError, ResourceBudgetError
from .lattice import SVector


@dataclass(frozen=True)
class MuSequence:
    mu: int
    s: SVector
    certified: bool = False


@dataclass(frozen=True)
class IntervalSpec:
    """Extension interval [lo, hi] with its sigma parametrization."""

    lo: float
    hi: float
    sigma: float
    sigma_tilde: float
    epsilon: float

    def __post_init__(self):
        if not (0 < self.lo <= self.hi):
            raise InputError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def from_sigmas(cls, sigma_tilde, sigma, mu, n):
        """Interval [sigma_tilde mu^(n/2) V_n, sigma mu^(n/2) V_n]."""
        scale = math.exp((n / 2.0) * math.log(mu) + numth.log_ball_volume(n))
        return cls(
            lo=sigma_tilde * scale,
            hi=sigma * scale,
            sigma=sigma,
            sigma_tilde=sigma_tilde,
            epsilon=sigma / sigma_tilde - 1.0,
        )

    @classmethod
    def from_bounds(cls, lo, hi, mu, n):
        """Raw [lo, hi] interval; sigmas are back-solved for reporting."""
        scale = math.exp((n / 2.0) * math.log(mu) + numth.log_ball_volume(n))
        return cls(
            lo=lo,
            hi=hi,
            sigma=hi / scale,
            sigma_tilde=lo / scale,
            epsilon=hi / lo - 1.0,
        )

    def integers(self) -> list[int]:
        return list(range(math.ceil(self.lo), math.floor(self.hi) + 1))


@dataclass(frozen=True)
class ObstructionReport:
    """Exact obstruction sets for one extension interval."""

    k_max: int
    A: int
    obstructed: dict          # k -> sorted list of obstructed integers I_k
    witness_counts: dict      # k -> (#X_k(0), #X_k(0) primitive)
    residue_counts: dict      # k -> [#X_k(0), ..., #X_k(k-1)]
    union: list
    union_size: int


def _check_ball_budget(n, bound, budget):
    estimate = numth.ball_point_count_bound(n, max(int(bound), 1))
    if estimate > budget:
        raise ResourceBudgetError(
            f"ball of squared radius {bound} in dimension {n} is too large",
            estimate=estimate,
            budget=budget,
        )


def ball_points(n, bound):
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


def half_ball_points(n, bound):
    """Nonzero z in Z^n with |z|^2 < bound, one of each +/- pair."""
    for z in ball_points(n, bound):
        for x in z:
            if x > 0:
                yield z
                break
            if x < 0:
                break


def forbidden_values(s: SVector, mu: int, budget=None):
    """Values a such that appending a would create a vector of norm < mu.

    Enumerates all +/- pairs z with 0 < |z|^2 < mu - 1 and all k >= 1
    with |z|^2 + k^2 < mu, collecting a = |<z, s>| / k whenever the
    division is exact and positive.  Sorted and deduplicated.
    """
    if mu < 2:
        raise InputError(f"mu must be >= 2, got {mu}")
    if budget is None:
        budget = lattice.enum_budget()
    n = len(s.entries)
    _check_ball_budget(n, mu - 1, budget)
    out = set()
    for z in half_ball_points(n, mu - 1):
        norm = sum(x * x for x in z)
        dot = abs(sum(x * e for x, e in zip(z, s.entries)))
        k = 1
        while norm + k * k < mu:
            if dot % k == 0 and dot // k > 0:
                out.add(dot // k)
            k += 1
    return sorted(out)


def greedy_extend(s: SVector, mu: int, budget=None) -> int:
    """Smallest positive value not forbidden for the next entry."""
    forbidden = set(forbidden_values(s, mu, budget=budget))
    t = 1
    while t in forbidden:
        t += 1
    return t


def greedy_sequence(mu: int, dim: int, budget=None) -> MuSequence:
    """The lexicographically first mu-sequence out to the given dimension."""
    if mu < 2 or dim < 1:
        raise InputError("need mu >= 2 and dim >= 1")
    s = SVector((1,))
    for _ in range(dim):
        s = s.extended(greedy_extend(s, mu, budget=budget))
    return MuSequence(mu=mu, s=s, certified=certify(s, mu, budget=budget))


def certify(s: SVector, mu: int, budget=None) -> bool:
    """True iff the orthogonal lattice of s has minimum >= mu (exact SVP)."""
    if s.dim == 0:
        return True
    minimum, witness = lattice.shortest_vector(
        lattice.basis_from_s(s), upper=mu, budget=budget
    )
    return witness is None


def greedy_entry_bounds(mu: int, n: int):
    """The two displayed upper bounds on the n-th greedy entry.

    Returns (1 + sqrt(mu-2) sqrt(mu-1+n/4)^n V_n, sqrt(mu) sqrt(mu+n/4)^n V_n),
    evaluated through logs so large n cannot overflow.
    """
    logv = numth.log_ball_volume(n)
    if mu == 2:
        first = 1.0
    else:
        first = 1.0 + math.exp(
            0.5 * math.log(mu - 2) + (n / 2.0) * math.log(mu - 1 + n / 4.0) + logv
        )
    second = math.exp(0.5 * math.log(mu) + (n / 2.0) * math.log(mu + n / 4.0) + logv)
    return first, second


def greedy_density_bound(mu: int, n: int) -> float:
    """Guaranteed density (1 + n/(4 mu))^(-n/2) / (2^n sqrt((n+1) mu))."""
    return math.exp(
        -(n / 2.0) * math.log1p(n / (4.0 * mu))
        - n * math.log(2.0)
        - 0.5 * math.log((n + 1) * mu)
    )


def interval_obstructions(s: SVector, mu: int, interval: IntervalSpec, budget=None):
    """Exact enumeration of the obstruction sets over one interval.

    I_k collects the integers t in the interval with a witness x,
    |x|^2 < mu - k^2 and <x, s> = k t; X_k(j) are the witnesses by
    residue of <x, s> mod k; the primitive count drops witnesses that
    are h-fold multiples for a divisor h > 1 of k.
    """
    if budget is None:
        budget = lattice.enum_budget()
    n = len(s.entries)
    k_max = math.isqrt(mu - 1)
    _check_ball_budget(n, mu - 1, budget)
    obstructed = {}
    witness_counts = {}
    residue_counts = {}
    union = set()
    for k in range(1, k_max + 1):
        cutoff = mu - k * k
        ik = set()
        counts = [0] * k
        primitive = 0
        for x in ball_points(n, cutoff):
            dot = sum(xi * e for xi, e in zip(x, s.entries))
            if not (k * interval.lo <= dot <= k * interval.hi):
                continue
            counts[dot % k] += 1
            if dot % k == 0:
                t = dot // k
                if interval.lo <= t <= interval.hi:
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
    # Asymptotic cutoff reported for comparison with the exact k range.
    prev_dim = n - 1
    log_delta = (
        lattice.log_center_density(prev_dim, mu, lattice.determinant(s))
        + numth.log_ball_volume(prev_dim)
    )
    a_value = math.exp(
        (1 - n) * math.log(2.0)
        + numth.log_ball_volume(prev_dim)
        - numth.log_ball_volume(n)
        - log_delta
    ) / interval.sigma
    return ObstructionReport(
        k_max=k_max,
        A=math.floor(a_value),
        obstructed=obstructed,
        witness_counts=witness_counts,
        residue_counts=residue_counts,
        union=sorted(union),
        union_size=len(union),
    )


def smallest_unobstructed(report: ObstructionReport, interval: IntervalSpec):
    """Smallest integer of the interval outside the report's union, or None."""
    blocked = set(report.union)
    return next((t for t in interval.integers() if t not in blocked), None)


def extend_in_interval(s: SVector, mu: int, interval: IntervalSpec, budget=None):
    """Smallest unobstructed integer in the interval, or None."""
    report = interval_obstructions(s, mu, interval, budget=budget)
    return smallest_unobstructed(report, interval)
