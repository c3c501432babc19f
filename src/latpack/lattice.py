"""Integer lattices orthogonal to a vector s with s_0 = 1.

The lattice is Lambda(s) = {z in Z^(n+1) : <z, s> = 0}, realized by the
explicit kernel basis b_i = s_i e_0 - e_i.  LLL, enumeration and the
exact Gram determinant share one exact Gram-Schmidt source, the
integral d_i (products of squared Gram-Schmidt norms) and lambda_ij =
d_j mu_ij.  LLL recognises a kernel basis by its rows and starts from its
closed form; it keeps the data current and hands it to enumeration, which
certifies the minimum over the reduced basis, pruned in floats with a
relative margin and decided in exact integers.  The enumeration tree holds
one of each pair +-v (Fincke and Pohst 1985; Schnorr and Euchner 1994), and
each node carries its exact ambient vector, so leaves cost O(n).  Density/
center-density/Hermite values are computed in log space so large entries
cannot overflow.
"""

import math
import operator
import os
from dataclasses import dataclass

from . import numth
from .errors import InputError, ResourceBudgetError, check_budget

#: Default work budget: shortest-vector nodes, the rank admission of a
#: kernel basis (see `check_rank`), the pairs (z, k) of `museq`'s ball
#: table, a greedy run's bitset shifts and the cap-sum terms of
#: `thetaflow.iterate_d`; override with the LATPACK_ENUM_BUDGET environment
#: variable.  Moebius sums have their own cap, `numth._MOBIUS_CAP`.
DEFAULT_ENUM_BUDGET = 10**8


def enum_budget() -> int:
    """The LATPACK_ENUM_BUDGET work budget (a positive integer), or the default."""
    value = os.environ.get("LATPACK_ENUM_BUDGET")
    if not value:
        return DEFAULT_ENUM_BUDGET
    try:
        budget = int(value)
    except ValueError:
        raise InputError(
            f"LATPACK_ENUM_BUDGET must be an integer, got {value!r}"
        ) from None
    if budget < 1:
        raise InputError(f"LATPACK_ENUM_BUDGET must be >= 1, got {budget}")
    return budget


@dataclass(frozen=True)
class SVector:
    """The defining vector s = (s_0=1, s_1, ..., s_n)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        try:  # no rounding: 2.7, nan, inf and "3" are refused, not truncated
            entries = tuple(map(operator.index, self.entries))
        except TypeError as exc:
            raise InputError(f"SVector entries must be integers: {exc}") from None
        if len(entries) < 1:
            raise InputError("SVector needs at least one entry")
        if entries[0] != 1:
            raise InputError(f"s_0 must be 1, got {entries[0]}")
        if any(e <= 0 for e in entries):
            raise InputError("all SVector entries must be positive")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        """Dimension of the orthogonal lattice."""
        return len(self.entries) - 1

    def extended(self, value: int) -> "SVector":
        return SVector(self.entries + (value,))


def check_rank(n: int) -> None:
    """Refuse a rank-n kernel basis whose reduction is over `enum_budget()`.

    The estimate is the inner steps of one integral Gram-Schmidt pass on
    its Gram matrix, (n - 1) n (n + 1) / 6.  It is the admission rule,
    not a bound on the work: LLL recognises the kernel basis by its rows,
    starts from the O(n^2) closed form and makes no such pass.
    """
    check_budget((n - 1) * n * (n + 1) // 6, enum_budget(),
                 f"lattice of rank {n} is too large to reduce")


def basis_from_s(s: SVector) -> list[tuple[int, ...]]:
    """Kernel basis rows b_i = s_i * e_0 - e_i for i = 1..n, refused by
    `check_rank` before its n (n + 1) entries are built."""
    n = s.dim
    check_rank(n)
    rows = []
    for i in range(1, n + 1):
        row = [0] * (n + 1)
        row[0] = s.entries[i]
        row[i] = -1
        rows.append(tuple(row))
    return rows


def gram(rows) -> list[list[int]]:
    """Exact integer Gram matrix of the given basis rows."""
    g = [[sum(map(operator.mul, a, b)) for b in rows[: i + 1]]
         for i, a in enumerate(rows)]
    for i, row in enumerate(g):  # mirror the lower triangle
        row.extend(g[j][i] for j in range(i + 1, len(g)))
    return g


def gram_determinant(g) -> int:
    """Exact determinant of a positive definite integer Gram matrix: the
    last d of `integral_gram_schmidt` (a singular one raises InputError)."""
    return integral_gram_schmidt(g)[0][-1]


def determinant(s: SVector) -> int:
    """det Lambda(s) = sum of squared entries of s, exactly."""
    return sum(e * e for e in s.entries)


def _kernel_gram_schmidt(rows):
    """`integral_gram_schmidt(gram(rows))` in closed form when the rows are a
    kernel basis, else None: n rows t[i] e_0 - e_(i+1) of length n + 1, t[i]
    any integer.  Their Gram matrix is I + t t^T, so d[i] = 1 + t[0]^2 + ...
    + t[i-1]^2 (`determinant` prefix by prefix) and lam[i][j] = t[i] t[j]."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n + 1 or row[i + 1] != -1 or any(row[1:i + 1]) or any(row[i + 2:]):
            return None
    t, d = [row[0] for row in rows], [1]
    for e in t:
        d.append(d[-1] + e * e)
    return d, [[a * b for b in t[:i]] + [0] * (n - i) for i, a in enumerate(t)]


def integral_gram_schmidt(g):
    """Integral Gram-Schmidt data (d, lam) of an integer Gram matrix.

    d[0] = 1 and d[i+1] = c_0 c_1 ... c_i, the Gram determinant of the
    first i+1 rows (c_i is the squared norm of the i-th Gram-Schmidt
    vector); lam[i][j] = d[j+1] mu_ij for j < i.  Every entry is an
    integer (H. Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7), so c_i = d[i+1]/d[i] and mu_ij = lam[i][j]/d[j+1] are
    exact.
    """
    n = len(g)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = g[i][j]
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise InputError("basis rows are linearly dependent")
            else:
                d[i + 1] = u
    return d, lam


def _round_div(a, b):
    """round(Fraction(a, b)) for b > 0: nearest integer, ties to even."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def lll_reduce(rows):
    """LLL reduction with Lovasz parameter 99/100: (basis, d, lam).

    All-integer LLL: the Gram-Schmidt data d/lam of the rows (in closed
    form when they are a kernel basis, else `integral_gram_schmidt` of
    their Gram matrix) is updated in place on each size reduction and
    swap, so every test is exact, the returned basis spans exactly the
    same lattice and d/lam is its data.
    """
    b = [list(r) for r in rows]
    n = len(b)
    d, lam = _kernel_gram_schmidt(b) or integral_gram_schmidt(gram(b))
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_div(lk[j], d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        t = lk[k - 1]
        # Lovasz: c_k >= (99/100 - mu_{k,k-1}^2) c_{k-1}, times 100 d_k d_{k-1}
        if 100 * (d[k + 1] * d[k - 1] + t * t) >= 99 * d[k] * d[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lk[: k - 1]
        new_d = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            old = li[k]
            li[k] = (d[k + 1] * li[k - 1] - t * old) // d[k]
            li[k - 1] = (new_d * old + t * li[k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return [tuple(r) for r in b], d, lam


def _canonical(vec):
    """Flip sign so the first nonzero coordinate is positive."""
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


#: Relative slack on the float pruning bound.  It dwarfs the rounding of
#: the float Gram-Schmidt data, so no vector whose exact norm is within
#: the bound is ever pruned; leaves are then tested in exact integers.
_PRUNE_MARGIN = 1.0 + 1e-12


def _node_estimate(d, limit) -> int:
    """Gaussian-heuristic node count for enumerating norms <= limit.

    Level k of the tree holds about V_k limit^(k/2) / sqrt(c_{n-k} ...
    c_{n-1}) nodes, with the exact c_i = d[i+1]/d[i] of the basis.
    """
    n = len(d) - 1
    log_radius = 0.5 * math.log(max(limit, 1))
    log_top = math.log(d[n])
    total = 0.0
    for k in range(1, n + 1):
        log_nodes = (
            numth.log_ball_volume(k) + k * log_radius
            - 0.5 * (log_top - math.log(d[n - k]))
        )
        total += math.exp(min(log_nodes, 700.0))  # saturate, not overflow
    return math.ceil(total)


def shortest_vector(rows, upper=None):
    """Exact lattice minimum by depth-first enumeration.

    Returns (minimum, witness) with the witness in ambient coordinates,
    sign-normalized and lexicographically smallest among all minimal
    vectors.  The search runs under one limit: the least reduced basis
    norm, or ceil(upper) - 1 when `upper` is set and at most that norm.
    In the latter case (upper, None) is returned when no vector of norm
    < upper exists (a certified "minimum >= upper" verdict); an `upper`
    above a reduced basis norm cannot certify, so the search answers as
    without it.  Past `enum_budget()` nodes it raises ResourceBudgetError
    carrying the Gaussian-heuristic node count of the whole search (at
    least the nodes already visited).

    The tree is half the full one: while every coefficient above level i
    is zero only x_i >= 0 is tried, so each pair +-v is visited once and
    v = 0 never.  Each node carries its exact ambient vector
    sum_{j>=i} x_j b_j, so a leaf's norm is a sum of n+1 squares.  Only
    the least (norm, witness) pair found so far is kept, so memory is
    O(n) however many minimal vectors there are.
    """
    if not rows:
        raise InputError(
            "the basis is empty: the lattice has dimension 0 "
            "(s needs at least two entries)"
        )
    budget = enum_budget()
    reduced, d, lam = lll_reduce(rows)
    n = len(reduced)
    try:  # int / int true division is correctly rounded, however large d is
        c = [d[i + 1] / d[i] for i in range(n)]
    except OverflowError:
        raise InputError("a squared Gram-Schmidt norm of the reduced basis "
                         "exceeds float range") from None
    # column i of mu below the diagonal: mu_ji = lam[j][i] / d[i+1], j > i
    mu_col = [[lam[j][i] / d[i + 1] for j in range(i + 1, n)] for i in range(n)]

    limit = min(sum(map(operator.mul, r, r)) for r in reduced)  # a basis norm
    if upper is not None and upper <= limit:
        limit = math.ceil(upper) - 1  # largest norm still below upper
    bound = limit * _PRUNE_MARGIN
    best = None  # least (norm, canonical witness) so far
    x = [0] * n
    nodes = 0

    def descend(i, partial, above, zero):
        # above = sum_{j>i} x_j b_j; zero: every x_j above level i is 0
        nonlocal best, bound, nodes
        center = -sum(map(operator.mul, mu_col[i], x[i + 1:]))
        radius = math.sqrt(max(bound - partial, 0.0) / c[i])
        if zero:  # center is 0: take x_i >= 0, and x_0 > 0 at the leaf
            lo = 1 if i == 0 else 0
        else:
            lo = math.ceil(center - radius - 1e-9)
        hi = math.floor(center + radius + 1e-9)
        row = reduced[i]
        for xi in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise ResourceBudgetError(
                    "enumeration exceeded node budget",
                    estimate=max(_node_estimate(d, limit), nodes),
                    budget=budget,
                )
            x[i] = xi
            new_partial = partial + c[i] * (xi - center) ** 2
            if new_partial > bound:
                continue
            v = [a + xi * b for a, b in zip(above, row)] if xi else above
            if i:
                descend(i - 1, new_partial, v, zero and not xi)
                continue
            norm = sum(map(operator.mul, v, v))
            if norm <= limit:
                pair = (norm, _canonical(tuple(v)))
                if best is None or pair < best:
                    best, bound = pair, norm * _PRUNE_MARGIN
        x[i] = 0

    descend(n - 1, 0.0, [0] * len(reduced[0]), True)
    return best or (upper, None)


def log_center_density(n, minimum, det) -> float:
    """log of the center density sqrt(minimum^n / (4^n det)) of a rank-n
    lattice with squared minimum `minimum` and determinant `det`."""
    return 0.5 * (n * math.log(minimum) - n * math.log(4) - math.log(det))


@dataclass(frozen=True)
class DensityReport:
    """Exact minimum/determinant plus the derived real densities."""

    dim: int
    minimum: int
    determinant: int
    density: float
    center_density: float
    hermite: float
    witness: tuple[int, ...]


def density_report(s: SVector) -> DensityReport:
    """Exact minimum and determinant of Lambda(s) with Delta, delta, gamma."""
    n = s.dim
    det = determinant(s)
    minimum, witness = shortest_vector(basis_from_s(s))
    log_delta = log_center_density(n, minimum, det)
    delta = math.exp(log_delta)
    density = math.exp(log_delta + numth.log_ball_volume(n))
    hermite = 4.0 * math.exp(2.0 * log_delta / n)
    return DensityReport(
        dim=n,
        minimum=minimum,
        determinant=det,
        density=density,
        center_density=delta,
        hermite=hermite,
        witness=witness,
    )
