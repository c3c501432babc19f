"""Integer lattices orthogonal to a vector s with s_0 = 1.

The lattice is Lambda(s) = {z in Z^(n+1) : <z, s> = 0}, realized by the
explicit kernel basis b_i = s_i e_0 - e_i.  Determinants are exact
(Bareiss), the minimum is certified by enumeration over an LLL-reduced
basis, and density/center-density/Hermite values are computed in log
space so large entries cannot overflow.
"""

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import numth
from .errors import InputError, ResourceBudgetError

#: Default node budget for shortest-vector enumeration; override with
#: the LATPACK_ENUM_BUDGET environment variable.
DEFAULT_ENUM_BUDGET = 10**8


def enum_budget() -> int:
    value = os.environ.get("LATPACK_ENUM_BUDGET")
    return int(value) if value else DEFAULT_ENUM_BUDGET


@dataclass(frozen=True)
class SVector:
    """The defining vector s = (s_0=1, s_1, ..., s_n)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise InputError("SVector needs at least one entry")
        if self.entries[0] != 1:
            raise InputError(f"s_0 must be 1, got {self.entries[0]}")
        if any(e <= 0 for e in self.entries):
            raise InputError("all SVector entries must be positive")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def dim(self) -> int:
        """Dimension of the orthogonal lattice."""
        return len(self.entries) - 1

    def extended(self, value: int) -> "SVector":
        return SVector(self.entries + (int(value),))


def basis_from_s(s: SVector) -> list[tuple[int, ...]]:
    """Kernel basis rows b_i = s_i * e_0 - e_i for i = 1..n."""
    n = s.dim
    rows = []
    for i in range(1, n + 1):
        row = [0] * (n + 1)
        row[0] = s.entries[i]
        row[i] = -1
        rows.append(tuple(row))
    return rows


def gram(rows) -> list[list[int]]:
    """Exact integer Gram matrix of the given basis rows."""
    return [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]


def gram_determinant(g) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in g]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(s: SVector) -> int:
    """det Lambda(s) = sum of squared entries of s, exactly."""
    return sum(e * e for e in s.entries)


def _gram_schmidt(b):
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


def lll_reduce(rows, delta=Fraction(99, 100)) -> list[tuple[int, ...]]:
    """LLL reduction with Lovasz parameter delta (default 0.99).

    Gram-Schmidt data is kept in exact rationals, so the returned basis
    spans exactly the same lattice (determinants are preserved).
    """
    b = [list(r) for r in rows]
    n = len(b)
    if n <= 1:
        return [tuple(r) for r in b]
    mu, c = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, c = _gram_schmidt(b)
        if c[k] >= (delta - mu[k][k - 1] ** 2) * c[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, c = _gram_schmidt(b)
            k = max(k - 1, 1)
    return [tuple(r) for r in b]


def _cholesky_mu(g):
    """Floating Gram-Schmidt data (mu, squared star norms) from a Gram matrix."""
    n = len(g)
    mu = [[0.0] * n for _ in range(n)]
    c = [0.0] * n
    for i in range(n):
        for j in range(i):
            num = float(g[i][j]) - sum(mu[i][k] * mu[j][k] * c[k] for k in range(j))
            mu[i][j] = num / c[j]
        c[i] = float(g[i][i]) - sum(mu[i][k] ** 2 * c[k] for k in range(i))
        if c[i] <= 0.0:
            raise InputError("Gram matrix is not positive definite")
    return mu, c


def _canonical(vec):
    """Flip sign so the first nonzero coordinate is positive."""
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def shortest_vector(rows, upper=None, budget=None):
    """Exact lattice minimum by depth-first enumeration.

    Returns (minimum, witness) with the witness in ambient coordinates,
    sign-normalized and lexicographically smallest among all minimal
    vectors.  With `upper` set, the search is pruned at that norm and
    (upper, None) is returned when no vector of norm < upper exists
    (a certified "minimum >= upper" verdict).
    """
    if not rows:
        raise InputError(
            "the basis is empty: the lattice has dimension 0 "
            "(s needs at least two entries)"
        )
    if budget is None:
        budget = enum_budget()
    reduced = lll_reduce(rows)
    g = gram(reduced)
    n = len(g)
    mu, c = _cholesky_mu(g)

    def exact_norm(coeffs):
        return sum(
            coeffs[i] * coeffs[j] * g[i][j] for i in range(n) for j in range(n)
        )

    if upper is not None:
        bound = float(upper) - 0.5
        best = None
    else:
        best = min(g[i][i] for i in range(n))
        bound = float(best) + 0.5
    candidates = []
    x = [0] * n
    nodes = 0

    def descend(i, partial):
        nonlocal best, bound, nodes, candidates
        center = -sum(mu[j][i] * x[j] for j in range(i + 1, n))
        if c[i] <= 0:
            raise InputError("degenerate Gram-Schmidt data")
        radius = math.sqrt(max(bound - partial, 0.0) / c[i])
        lo = math.ceil(center - radius - 1e-9)
        hi = math.floor(center + radius + 1e-9)
        for xi in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise ResourceBudgetError(
                    "enumeration exceeded node budget", estimate=nodes, budget=budget
                )
            x[i] = xi
            new_partial = partial + c[i] * (xi - center) ** 2
            if new_partial > bound + 1e-9:
                continue
            if i == 0:
                if all(v == 0 for v in x):
                    continue
                norm = exact_norm(x)
                if upper is not None and norm >= upper:
                    continue
                if best is None or norm < best:
                    best = norm
                    bound = float(best) + 0.5
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
        witnesses.add(_canonical(ambient))
    return best, min(witnesses)


@dataclass(frozen=True)
class DensityReport:
    """Exact minimum/determinant plus the derived real densities."""

    dim: int
    minimum: int
    determinant: int
    density: float
    center_density: float
    hermite: float
    witness: tuple[int, ...] = field(default=None)


def density_report(s: SVector, budget=None) -> DensityReport:
    """Exact minimum and determinant of Lambda(s) with Delta, delta, gamma."""
    n = s.dim
    det = determinant(s)
    minimum, witness = shortest_vector(basis_from_s(s), budget=budget)
    log_delta = 0.5 * (n * math.log(minimum) - n * math.log(4) - math.log(det))
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
