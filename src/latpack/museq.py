"""Greedy construction of minimum-certified sequences.

A mu-sequence is s_0 = 1, s_1, ... such that every prefix's orthogonal
lattice in Z^(n+1) has minimum >= mu.  A greedy sequence is certified by
its construction, not by a shortest-vector search after the steps: each
step avoids the forbidden set, every value that would admit a vector of
norm < mu (`greedy_sequence`).  `certify` is that exact search, for any s.

The greedy step and the interval obstruction sets I_k / X_k(a) read only
the pairs (|z|^2, <z, s>) of the ball |z|^2 <= mu - 2, never the points z.
Each builds a table of them over all coordinates but the last, one
coordinate at a time, and streams the last coordinate over it: the
obstruction sets count the points behind each pair, the greedy step's
forbidden set keeps only which dots occur, one bitset per norm.  A greedy
run is admitted by its bitsets' shifts, the obstruction sets by their pairs.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress

from . import lattice, numth
from .errors import InputError, check_budget
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
        """Raw [lo, hi] interval; sigmas are back-solved for reporting.
        sigma and epsilon = hi / lo - 1 are refused past float range
        (sigma_tilde <= sigma)."""
        _check_interval(lo, hi)
        scale = _scale(mu, n)
        sigma = hi / scale if scale else math.inf  # scale underflows to 0.0
        if not math.isfinite(sigma):
            raise InputError(f"sigma = hi / (mu^(n/2) V_n) lies past float range (n = {n})")
        epsilon = hi / lo - 1.0
        if not math.isfinite(epsilon):
            raise InputError(f"epsilon = hi / lo - 1 lies past float range (lo = {lo}, hi = {hi})")
        return cls(lo=lo, hi=hi, sigma=sigma, sigma_tilde=lo / scale, epsilon=epsilon)

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


def _pairs_lower_bound(n: int, top: int) -> float:
    """Lower bound on the pairs (z, k), z in Z^n, k >= 1, |z|^2 + k^2 <= top:
    half the points of that ball in Z^(n + 1), whose unit cubes cover the
    ball of radius sqrt(top) - sqrt(n + 1)/2, less the k = 0 slice, whose
    unit cubes lie in the ball of radius sqrt(top) + sqrt(n)/2 in R^n.  The
    factor 1 - 1e-9 covers the rounding; inf past float range."""
    try:
        r = math.sqrt(top)
        inner = r - math.sqrt(n + 1) / 2.0
        if inner <= 0.0:
            return 0.0
        ball = math.exp((n + 1) * math.log(inner) + numth.log_ball_volume(n + 1))
        k0 = math.exp(n * math.log(r + math.sqrt(n) / 2.0) + numth.log_ball_volume(n))
    except OverflowError:  # top or the ball's count does not fit in a float
        return math.inf
    return (1.0 - 1e-9) * (ball - k0) / 2.0


def _check_half_ball(n: int, mu: int) -> None:
    """Refuse the readers' work on the table of an s with n entries, the
    pairs (z, k) with z in Z^n, k >= 1 and |z|^2 + k^2 <= mu - 1, if it is
    over `lattice.enum_budget()`: at once by a lower bound on the pairs, then
    by half the point-count bound of that ball in Z^(n + 1), or by the exact
    count when that is cheap enough."""
    budget = lattice.enum_budget()
    estimate = _pairs_lower_bound(n, mu - 1)
    if estimate <= budget:
        estimate = numth.ball_point_count_bound(n + 1, mu - 1) / 2
        if estimate > budget and n * mu * (math.isqrt(mu - 1) + 1) <= budget:
            counts = numth.theta_coefficients(n, mu - 1)
            estimate = sum(c * math.isqrt(mu - 1 - m) for m, c in enumerate(counts))
    check_budget(estimate, budget,
                 f"half-ball of squared radius {mu - 1} in dimension {n + 1} is too large")


def _ball_table(s: SVector, mu: int) -> dict:
    """{m: {d: #z}} over z in Z^(len(s) - 1), m = |z|^2 <= mu - 2, d = |<z, s>|
    on the first len(s) - 1 entries, refused first by `_check_half_ball`.

    Each entry e is added in place, norms from the top down, so a row is
    read before anything is added to it: x = +/-a moves |dot| d to d + a e
    and |d - a e|, one each whatever the sign of the dot.
    """
    _check_mu(mu)
    _check_half_ball(len(s.entries), mu)
    table = {0: {0: 1}}
    for e in s.entries[:-1]:
        for m, row in sorted(table.items(), reverse=True):
            for x in range(1, math.isqrt(mu - 2 - m) + 1):
                xe, target = x * e, table.setdefault(m + x * x, {})
                get = target.get
                for d, c in row.items():
                    up, down = d + xe, abs(d - xe)
                    target[up] = get(up, 0) + c
                    target[down] = get(down, 0) + c
    return table


def _step_work(s: SVector, mu: int) -> int:
    """The work of `_forbidden_bits(s, mu)`: its (entry, row, x) shifts, at most
    len(s) rows (isqrt(mu - 2) + 1), each (2 B + 1) // 4096 + 1 units of 4096
    bits, B = isqrt((mu - 2) |s|^2).  The rows are the norms 0..mu - 2, at most one
    per choice of |z_i| <= isqrt(mu - 2), so the work never falls as s grows.
    Refused first when the bits, at most (rows + accumulators) (2 B + 1), are
    over 64 times `lattice.enum_budget()`, one budget unit per machine word."""
    _check_mu(mu)
    n, r = len(s.entries), math.isqrt(mu - 2)
    width = 2 * math.isqrt((mu - 2) * lattice.determinant(s)) + 1
    rows = min(mu - 1, (r + 1) ** (n - 1))
    bits = (rows + math.isqrt(mu - 1)) * width
    check_budget(bits, 64 * lattice.enum_budget(),
                 f"the forbidden set's bitsets of {bits} bits are too large")
    return n * rows * (r + 1) * (width // 4096 + 1)


def _dot_bitsets(s: SVector, mu: int, offset: int) -> dict:
    """{m: row} over z in Z^(len(s) - 1), m = |z|^2 <= mu - 2: bit d + offset
    of row is set when some z has <z, s> = d on the first len(s) - 1 entries.

    Each entry e is added as in `_ball_table`, x = +/-a shifting a whole row
    by a e at once; the rows read are the snapshot from before e."""
    table = {0: 1 << offset}
    for e in s.entries[:-1]:
        for m, row in list(table.items()):
            for x in range(1, math.isqrt(mu - 2 - m) + 1):
                xe, target = x * e, m + x * x
                table[target] = table.get(target, 0) | row << xe | row >> xe
    return table


def _forbidden_bits(s: SVector, mu: int) -> int:
    """The forbidden set of `forbidden_values` as an int: bit a is set when
    a is forbidden, bit 0 when some |<z, s>| is 0.  Its rows and
    accumulators are freed on return, before the list of values is built."""
    check_budget(_step_work(s, mu), lattice.enum_budget(),
                 f"the forbidden set after {len(s.entries)} entries is too large to build")
    offset, e = math.isqrt((mu - 2) * lattice.determinant(s)), s.entries[-1]
    acc = [0] * (math.isqrt(mu - 1) + 1)
    for m, row in _dot_bitsets(s, mu, offset).items():
        for x in range(math.isqrt(mu - 2 - m) + 1):
            xe = x * e
            acc[math.isqrt(mu - 1 - m - x * x)] |= row << xe | row >> xe
    out = run = 0
    for k in range(len(acc) - 1, 0, -1):
        run |= acc[k]
        bits = format(run >> offset, "b")  # bit v is character len - 1 - v
        out |= int(bits[(len(bits) - 1) % k::k], 2)  # bit a: v = k a
    return out


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def forbidden_values(s: SVector, mu: int):
    """Values a such that appending a would create a vector of norm < mu:
    a = |<z, s>| / k, exact and positive, for 0 < |z|^2 < mu - 1 and
    |z|^2 + k^2 < mu.  Sorted and deduplicated.

    The dots are bit d + B of one int per norm (`_dot_bitsets`), where
    B = isqrt((mu - 2) |s|^2) bounds every |<z, s>| by Cauchy-Schwarz, so no
    shift below moves a dot off either end.  The last coordinate x >= 0 is
    streamed: each (m, x) ORs its shifted row into the accumulator of its
    largest k, isqrt(mu - 1 - m - x^2), and a suffix OR from the top k down
    leaves for each k the dots that k may divide, of which every k-th bit
    from bit B is kept.  Refused by its bits, then by its shifts, both
    from `_step_work`.
    """
    # character i is bit len - i, from the top value down to 1
    flags = format(_forbidden_bits(s, mu) >> 1, "b").encode().translate(_FLAGS)
    values = list(compress(range(len(flags), 0, -1), flags))
    values.reverse()
    return values


def _dot_hits(rows, e, top, a, b):
    """Yield (v, c): c points z = (z', x) with |z|^2 <= top and v = |<z, s>|
    in [a, b] (a >= 1), z and -z both counted; x >= 0 is streamed and
    each row's sorted |dots| are bisected, so the norm bounds x, not b."""
    for m, (keys, row) in rows.items():
        for x in range(math.isqrt(top - m) + 1 if m <= top else 0):
            xe = x * e
            spans = (((xe, a - xe, b - xe), (-xe, a + xe, b + xe), (-xe, xe - b, xe - a))
                     if x else ((0, a, b),))
            for shift, d_lo, d_hi in spans:
                for d in keys[bisect_left(keys, d_lo):bisect_right(keys, d_hi)]:
                    yield abs(d + shift), row[d]


def _first_gap(values, start):
    """Smallest integer >= start missing from the sorted, distinct `values`:
    from i = bisect_left(values, start), values[j] - j never falls and is
    start - i on the run start, start + 1, ..., so the run is bisected."""
    i = bisect_left(values, start)
    return start + bisect_right(range(i, len(values)), start - i, key=lambda j: values[j] - j)


def greedy_extend(s: SVector, mu: int) -> int:
    """Smallest positive value not forbidden for the next entry."""
    return _first_gap(forbidden_values(s, mu), 1)


def greedy_sequence(mu: int, dim: int) -> MuSequence:
    """The lexicographically first mu-sequence out to the given dimension,
    refused before step i when the work done plus dim - i times its
    `_step_work`, a lower bound on the run's, is over `lattice.enum_budget()`.

    `certified` rests on the construction, by induction over the prefixes.
    Lambda((1,)) = {0}.  For s' = (s, a), a vector (z, 0) of Lambda(s') lies
    in Lambda(s), so its norm is >= mu; a vector (z, k) with k >= 1 and
    |z|^2 + k^2 < mu has z != 0 and <z, s> = -k a, so a = |<z, s>| / k is in
    `forbidden_values(s, mu)`, which a step never picks.  The tests hold
    it to `certify`, the exact SVP, on every prefix of their ladders.
    """
    if mu < 2 or dim < 1:
        raise InputError("need mu >= 2 and dim >= 1")
    s, spent, budget = SVector((1,)), 0, lattice.enum_budget()
    for i in range(dim):
        work = _step_work(s, mu)
        check_budget(spent + (dim - i) * work, budget,
                     f"greedy run to dimension {dim} is too large after {i} steps")
        spent += work
        s = s.extended(greedy_extend(s, mu))
    return MuSequence(mu=mu, s=s, certified=True)


def certify(s: SVector, mu: int) -> bool:
    """True iff the orthogonal lattice of s has minimum >= mu (exact SVP)."""
    _check_mu(mu)
    _, witness = lattice.shortest_vector(lattice.basis_from_s(s), upper=mu)
    return witness is None


def greedy_entry_bounds(mu: int, n: int):
    """The two displayed upper bounds on the n-th greedy entry.

    Returns (1 + sqrt(mu-2) sqrt(mu-1+n/4)^n V_n, sqrt(mu) sqrt(mu+n/4)^n V_n),
    evaluated through logs; a bound past float range is inf (the second
    from n = 978 at mu = 2, and from smaller n at larger mu).
    """
    logv = numth.log_ball_volume(n)

    def bound(a, b):  # sqrt(a) sqrt(b + n/4)^n V_n
        try:
            return math.exp(0.5 * math.log(a) + (n / 2.0) * math.log(b + n / 4.0) + logv)
        except OverflowError:
            return math.inf

    return (1.0 if mu == 2 else 1.0 + bound(mu - 2, mu - 1)), bound(mu, mu)


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
    residue of <x, s> mod k.  The primitive count (gcd(k, *x) = 1) is the
    Moebius inversion over the squarefree h | k of the witnesses x = h x'.
    The cutoff is A = floor(sqrt(mu |s|^2) / hi).  A and each k's range of
    dots [k lo, k hi] are decided in integers, from the exact ratios of lo
    and hi.
    """
    rows = {m: (sorted(row), row) for m, row in _ball_table(s, mu).items()}
    e = s.entries[-1]
    (lp, lq), (hp, hq) = interval.lo.as_integer_ratio(), interval.hi.as_integer_ratio()
    det = lattice.determinant(s)  # |s|^2
    vmax = math.isqrt((mu - 2) * det)
    ks = range(1, math.isqrt(mu - 1) + 1)
    moebius = numth.mobius_table(len(ks))
    obstructed, witness_counts, residue_counts = {}, {}, {}
    for k in ks:
        # integer dots in [k lo, k hi], capped by vmax >= |<z, s>|
        top = mu - 1 - k * k
        a, b = min(-(-k * lp // lq), vmax + 1), min(k * hp // hq, vmax)
        counts, ik = [0] * k, set()
        for v, c in _dot_hits(rows, e, top, a, b):
            counts[v % k] += c
            if v % k == 0:
                ik.add(v // k)
        primitive = counts[0]
        for h in range(2, k + 1):
            if k % h == 0 and moebius[h]:
                hits = _dot_hits(rows, e, top // (h * h), -(-a // h), b // h)
                primitive += moebius[h] * sum(c for v, c in hits if v % (k // h) == 0)
        obstructed[k] = sorted(ik)
        witness_counts[k] = (counts[0] // 2, primitive // 2)
        residue_counts[k] = [c // 2 for c in counts]
    union = sorted(set().union(*obstructed.values()))
    return ObstructionReport(
        k_max=len(ks),
        A=math.isqrt(mu * det * hq * hq) // hp,
        obstructed=obstructed,
        witness_counts=witness_counts,
        residue_counts=residue_counts,
        union=union,
        union_size=len(union),
    )


def smallest_unobstructed(report: ObstructionReport, interval: IntervalSpec):
    """Smallest integer of the interval outside the report's union, or None."""
    t = _first_gap(report.union, math.ceil(interval.lo))
    return t if t <= interval.hi else None
