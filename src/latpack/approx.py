"""Constructive approximation of a target Gram matrix.

Cholesky-factor the target, round kappa * L to integers, append a unit
superdiagonal to get an n x (n+1) integer matrix B whose rows span a
saturated sublattice of Z^(n+1), and back-substitute the integer kernel
vector v with v_1 = 1.  As kappa grows, (1/kappa^2) B B^t converges to
the target, so the orthogonal-complement model class is dense.
"""

import math
from dataclasses import dataclass

import numpy as np

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
        arr = np.asarray(G, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("Gram matrix must be square")
        if not np.allclose(arr, arr.T, rtol=1e-12, atol=1e-12):
            raise InputError("Gram matrix must be symmetric")
        try:
            L = np.linalg.cholesky(arr)
        except np.linalg.LinAlgError as exc:
            raise InputError("Gram matrix is not positive definite") from exc
        return cls(
            G=tuple(tuple(row) for row in arr),
            L=tuple(tuple(row) for row in L),
        )

    @property
    def n(self) -> int:
        return len(self.G)


@dataclass(frozen=True)
class ApproximationResult:
    kappa: float
    L_tilde: tuple       # integer rounding of kappa * L
    B: tuple             # n x (n+1) integer matrix
    v: tuple             # integer kernel vector, v[0] = 1
    s: tuple             # absolute values of v
    gram_error: float    # Frobenius norm of (1/kappa^2) B B^t - G


def approximate(target: TargetGram, kappa: float) -> ApproximationResult:
    """Build the integer approximation at scale kappa."""
    if kappa < 1:
        raise InputError(f"kappa must be >= 1, got {kappa}")
    n = target.n
    l_tilde = [
        [int(round(kappa * target.L[i][j])) for j in range(n)]  # half to even
        for i in range(n)
    ]
    b = []
    for i in range(n):
        row = [l_tilde[i][j] if j <= i else 0 for j in range(n)]
        row.insert(i + 1, 1)
        row = row[: n + 1]
        b.append(row)
    # Exact integer back-substitution: row i gives v[i+1].
    v = [1]
    for i in range(n):
        v.append(-sum(b[i][j] * v[j] for j in range(i + 1)))
    scaled = np.array(
        [[float(x) / kappa for x in row] for row in b], dtype=float
    )
    diff = scaled @ scaled.T - np.asarray(target.G)
    return ApproximationResult(
        kappa=kappa,
        L_tilde=tuple(tuple(row) for row in l_tilde),
        B=tuple(tuple(row) for row in b),
        v=tuple(v),
        s=tuple(abs(x) for x in v),
        gram_error=float(np.linalg.norm(diff)),
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
    scaled = np.array(
        [[float(x) / result.kappa for x in row] for row in result.B]
    )
    diff = scaled @ scaled.T - np.asarray(target.G)
    gram_error = float(np.linalg.norm(diff))
    kernel_exact = all(
        sum(bi * vi for bi, vi in zip(row, result.v)) == 0 for row in result.B
    )
    g = np.asarray(target.G)
    n = target.n
    # Rayleigh-style exact minimum of the target is not available in
    # general; use the exact minimum of the integer lattice instead and
    # rescale, comparing center densities.
    lattice_delta = None
    if n <= _SVP_DIM_CAP and result.kappa <= _SVP_KAPPA_CAP and all(
        e > 0 for e in result.s[1:]
    ) and result.s[0] == 1:
        lattice_delta = density_report(SVector(result.s)).center_density
    target_min = _float_gram_minimum(g)
    target_delta = math.exp(log_center_density(n, target_min, np.linalg.det(g)))
    return VerificationReport(
        kappa=result.kappa,
        gram_error=gram_error,
        kernel_exact=kernel_exact,
        saturation_det=saturation_determinant(result),
        target_center_density=target_delta,
        lattice_center_density=lattice_delta,
    )


def _float_gram_minimum(g) -> float:
    """Minimum of the real lattice with Gram g, by direct enumeration."""
    scale = 10**6
    # Enumeration works off any positive definite integer Gram; feed it a
    # basis realization via Cholesky with a fine integer grid.
    L = np.linalg.cholesky(np.asarray(g, dtype=float))
    rows = [tuple(int(round(scale * x)) for x in row) for row in L]
    minimum, _ = shortest_vector(rows)
    return minimum / (scale * scale)
