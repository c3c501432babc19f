"""Greedy construction of minimum-certified sequences.

A mu-sequence is s_0 = 1, s_1, ... such that every prefix's orthogonal
lattice in Z^(n+1) has minimum >= mu.  The greedy step and the interval
obstruction sets I_k / X_k(a) both read one finite set: the norms and
dot products <z, s> of the half-ball {z : 0 < |z|^2 < mu - 1}, one z
per +/- pair, walked depth-first by a single enumerator.
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
    certified: bool


def _check_mu(mu):
    if mu < 2:
        raise InputError(f"mu must be >= 2, got {mu}")


def _check_interval(lo, hi):
    if not (0 < lo <= hi < math.inf):  # nan fails too
        raise InputError(f"need finite 0 < lo <= hi, got [{lo}, {hi}]")


def _scale(mu, n):
    """mu^(n/2) V_n, the unit of the sigma parametrization."""
    _check_mu(mu)
    try:
        return math.exp((n / 2.0) * math.log(mu) + numth.log_ball_volume(n))
    except OverflowError:
        raise InputError(f"mu^(n/2) V_n overflows a float (n = {n})") from None


@dataclass(frozen=True)
class IntervalSpec:
    """Extension interval [lo, hi] with its sigma parametrization."""

    lo: float
    hi: float
    sigma: float
    sigma_tilde: float
    epsilon: float

    def __post_init__(self):
        _check_interval(self.lo, self.hi)

    @classmethod
    def from_bounds(cls, lo, hi, mu, n):
        """Raw [lo, hi] interval; sigmas are back-solved for reporting."""
        _check_interval(lo, hi)
        scale = _scale(mu, n)
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


def _half_ball(s: SVector, mu: int):
    """Yield (|z|^2, |<z, s>|, z) for z in Z^len(s), 0 < |z|^2 < mu - 1,
    one of each +/- pair: the z whose first nonzero entry is positive.

    Depth-first (Fincke-Pohst), carrying the norm and <z, s> down the
    levels.  mu and the ball's point count, against `lattice.enum_budget()`,
    are checked before the walk starts.
    """
    _check_mu(mu)
    entries = s.entries
    budget = lattice.enum_budget()
    estimate = numth.ball_point_count_bound(len(entries), mu - 1)
    if estimate > budget:
        raise ResourceBudgetError(
            f"ball of squared radius {mu - 1} in dimension {len(entries)} is too large",
            estimate=estimate,
            budget=budget,
        )
    last = len(entries) - 1

    def walk(i, norm, dot, z, started):
        limit = math.isqrt(mu - 2 - norm)  # largest x with norm + x^2 < mu - 1
        e = entries[i]
        if i == last:
            for x in range(-limit if started else 1, limit + 1):
                yield norm + x * x, abs(dot + x * e), z + (x,)
            return
        for x in range(-limit if started else 0, limit + 1):
            yield from walk(i + 1, norm + x * x, dot + x * e, z + (x,), started or x > 0)

    return walk(0, 0, 0, (), False)


def forbidden_values(s: SVector, mu: int):
    """Values a such that appending a would create a vector of norm < mu.

    Enumerates all +/- pairs z with 0 < |z|^2 < mu - 1 and all k >= 1
    with |z|^2 + k^2 < mu, collecting a = |<z, s>| / k whenever the
    division is exact and positive.  Sorted and deduplicated.
    """
    out = set()
    for norm, dot, _ in _half_ball(s, mu):
        k = 1
        while norm + k * k < mu:
            if dot % k == 0 and dot // k > 0:
                out.add(dot // k)
            k += 1
    return sorted(out)


def greedy_extend(s: SVector, mu: int) -> int:
    """Smallest positive value not forbidden for the next entry."""
    forbidden = set(forbidden_values(s, mu))
    t = 1
    while t in forbidden:
        t += 1
    return t


def greedy_sequence(mu: int, dim: int) -> MuSequence:
    """The lexicographically first mu-sequence out to the given dimension."""
    if mu < 2 or dim < 1:
        raise InputError("need mu >= 2 and dim >= 1")
    s = SVector((1,))
    for _ in range(dim):
        s = s.extended(greedy_extend(s, mu))
    return MuSequence(mu=mu, s=s, certified=certify(s, mu))


def certify(s: SVector, mu: int) -> bool:
    """True iff the orthogonal lattice of s has minimum >= mu (exact SVP)."""
    if s.dim == 0:
        return True
    _, witness = lattice.shortest_vector(lattice.basis_from_s(s), upper=mu)
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


def interval_obstructions(s: SVector, mu: int, interval: IntervalSpec):
    """Exact enumeration of the obstruction sets over one interval.

    I_k collects the integers t in the interval with a witness x,
    |x|^2 < mu - k^2 and <x, s> = k t; X_k(j) are the witnesses by
    residue of <x, s> mod k; the primitive count drops witnesses that
    are h-fold multiples for a divisor h > 1 of k.
    """
    points = _half_ball(s, mu)
    n = len(s.entries)
    ks = range(1, math.isqrt(mu - 1) + 1)
    obstructed = {k: set() for k in ks}
    residue_counts = {k: [0] * k for k in ks}
    primitive = dict.fromkeys(ks, 0)
    lo, hi = interval.lo, interval.hi
    # lo > 0, so of z and -z only the one with <., s> = |<z, s>| can lie
    # in [k lo, k hi]; the canonical z stands for it (same norm, same gcd).
    for norm, dot, z in points:
        k = 1
        while norm + k * k < mu:
            if k * lo <= dot <= k * hi:
                r = dot % k
                residue_counts[k][r] += 1
                if r == 0:
                    if lo <= dot // k <= hi:
                        obstructed[k].add(dot // k)
                    if math.gcd(k, *z) == 1:
                        primitive[k] += 1
            k += 1
    union = set().union(*obstructed.values())
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
        k_max=len(ks),
        A=math.floor(a_value),
        obstructed={k: sorted(ik) for k, ik in obstructed.items()},
        witness_counts={k: (residue_counts[k][0], primitive[k]) for k in ks},
        residue_counts=residue_counts,
        union=sorted(union),
        union_size=len(union),
    )


def smallest_unobstructed(report: ObstructionReport, interval: IntervalSpec):
    """Smallest integer of the interval outside the report's union, or None."""
    blocked = set(report.union)
    t = math.ceil(interval.lo)
    while t in blocked:
        t += 1
    return t if t <= interval.hi else None
