"""Constructive approximation of a target Gram matrix.

Cholesky-factor the target, round kappa * L to integers, append a unit
superdiagonal to get an n x (n+1) integer matrix B whose rows span a
saturated sublattice of Z^(n+1), and back-substitute the integer kernel
vector v with v_1 = 1.  As kappa grows, (1/kappa^2) B B^t converges to
the target, so the orthogonal-complement model class is dense.  L (by
`math.fsum`), the Gram error and det G = prod(L_ii)^2 are float64.
"""

import math
from dataclasses import dataclass

from .errors import InputError
from .lattice import (SVector, density_report, gram, gram_determinant,
                      log_center_density, shortest_vector)

#: Largest dimension and kappa at which the exact lattice density is found.
_SVP_DIM_CAP = 8
_SVP_KAPPA_CAP = 1e4


@dataclass(frozen=True)
class TargetGram:
    """Symmetric positive definite target with its Cholesky factor."""

    G: tuple
    L: tuple

    @classmethod
    def from_matrix(cls, G) -> "TargetGram":
        """Check G: non-empty, square, finite, symmetric to 1e-12, and SPD.
        A bool entry (JSON `true`) is refused, not read as 1.0."""
        try:
            boolean = any(isinstance(x, bool) for row in G for x in row)
            finite = all(math.isfinite(x) for row in G for x in row)
        except (TypeError, OverflowError) as exc:
            raise InputError(f"Gram matrix must be rows of real numbers: {exc}") from exc
        if boolean:
            raise InputError("Gram matrix entries must be numbers, not booleans")
        if not finite:
            raise InputError("Gram matrix entries must be finite")
        g = [[float(x) for x in row] for row in G]
        n = len(g)
        if n == 0 or any(len(row) != n for row in g):
            raise InputError("Gram matrix must be square and non-empty")
        if any(abs(g[i][j] - g[j][i]) > 1e-12 + 1e-12 * abs(g[j][i])
               for i in range(n) for j in range(n)):
            raise InputError("Gram matrix must be symmetric")
        return cls(G=tuple(map(tuple, g)), L=tuple(map(tuple, _cholesky(g))))

    @property
    def n(self) -> int:
        return len(self.G)


def _cholesky(g):
    """Lower-triangular L with L L^t = g, each inner product by math.fsum."""
    L = [[0.0] * len(g) for _ in g]
    for i, row in enumerate(g):
        for j in range(i + 1):
            s = math.fsum([row[j]] + [-a * b for a, b in zip(L[i][:j], L[j])])
            if i > j:
                L[i][j] = s / L[j][j]
            elif s > 0.0:
                L[i][i] = math.sqrt(s)
            else:
                raise InputError("Gram matrix is not positive definite")
    return L


def _gram_error(B, kappa, G) -> float:
    """Frobenius norm of (1/kappa^2) B B^t - G."""
    scaled = [[float(x) / kappa for x in row] for row in B]
    return math.sqrt(math.fsum(
        (math.fsum(a * b for a, b in zip(ri, rj)) - G[i][j]) ** 2
        for i, ri in enumerate(scaled) for j, rj in enumerate(scaled)
    ))


@dataclass(frozen=True)
class ApproximationResult:
    kappa: float
    B: tuple             # n x (n+1) integer matrix
    v: tuple             # integer kernel vector, v[0] = 1
    s: tuple             # absolute values of v
    gram_error: float    # Frobenius norm of (1/kappa^2) B B^t - G


def approximate(target: TargetGram, kappa: float) -> ApproximationResult:
    """Build the integer approximation at scale kappa."""
    l_max = max(abs(x) for row in target.L for x in row)
    if not (kappa >= 1 and math.isfinite(kappa * l_max)):
        raise InputError(f"kappa must be >= 1 with kappa * L finite, got {kappa}")
    n = target.n
    # L is zero above its diagonal, so row i of B is round(kappa L_i0..L_ii),
    # 1, then zeros, and row i fixes v[i+1] by exact back-substitution.
    b, v = [], [1]
    for i, row in enumerate(target.L):
        head = [int(round(kappa * x)) for x in row[: i + 1]]  # half to even
        b.append(tuple(head + [1] + [0] * (n - 1 - i)))
        v.append(-sum(x * y for x, y in zip(head, v)))
    return ApproximationResult(
        kappa=kappa,
        B=tuple(b),
        v=tuple(v),
        s=tuple(abs(x) for x in v),
        gram_error=_gram_error(b, kappa, target.G),
    )


def saturation_determinant(result: ApproximationResult) -> int:
    """|det| of B with its first column deleted (always 1), exactly.

    That matrix is unit lower-triangular: row i holds L-tilde entries
    left of the diagonal and the appended 1 on it.  |det| is the square
    root of the determinant of its Gram matrix.
    """
    return math.isqrt(gram_determinant(gram([row[1:] for row in result.B])))


@dataclass(frozen=True)
class VerificationReport:
    kappa: float
    gram_error: float
    kernel_exact: bool
    saturation_det: int
    target_center_density: float
    lattice_center_density: float | None


def verify_approximation(target: TargetGram, result: ApproximationResult):
    """Recompute the error and compare densities where SVP is affordable.

    The density comparison is reported, not thresholded: convergence is
    O(1/kappa) with a target-dependent constant.
    """
    kernel_exact = all(
        sum(bi * vi for bi, vi in zip(row, result.v)) == 0 for row in result.B
    )
    n = target.n
    # The target's minimum is searched on a 1e-6 grid, so its center density
    # is approximate; the integer lattice's comes from its exact minimum,
    # where SVP is affordable.  The two are reported side by side.
    target_min = _float_gram_minimum(target.L)
    lattice_delta = None
    if n <= _SVP_DIM_CAP and result.kappa <= _SVP_KAPPA_CAP and all(result.s):
        lattice_delta = density_report(SVector(result.s)).center_density
    det = math.prod(target.L[i][i] for i in range(n)) ** 2
    target_delta = math.exp(log_center_density(n, target_min, det))
    return VerificationReport(
        kappa=result.kappa,
        gram_error=_gram_error(result.B, result.kappa, target.G),
        kernel_exact=kernel_exact,
        saturation_det=saturation_determinant(result),
        target_center_density=target_delta,
        lattice_center_density=lattice_delta,
    )


def _float_gram_minimum(L) -> float:
    """Minimum of the real lattice with Cholesky factor L, by direct
    enumeration of the rows of L rounded to a fine integer grid."""
    scale = 10**6
    rows = [tuple(int(round(scale * x)) for x in row) for row in L]
    try:
        minimum, _ = shortest_vector(rows)
    except InputError as exc:
        raise InputError(f"the target's minimum search on a 1e-6 grid failed: {exc}") from exc
    return minimum / (scale * scale)
