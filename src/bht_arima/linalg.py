"""Dense linear-algebra primitives used by the model updates.

Thin, contract-checked wrappers around LAPACK-backed numpy routines: thin
SVD, Moore-Penrose pseudo-inverse, minimum-norm least squares and the small
symmetric Toeplitz (Yule-Walker) solve. Only numpy is needed. All routines
are deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularSystemError

__all__ = [
    "SvdResult",
    "svd",
    "pinv",
    "solve_toeplitz",
    "lstsq",
]

# Singular values below RCOND * s_max are treated as zero in pinv/lstsq.
RCOND = 1e-12


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``a = u @ diag(s) @ v.T`` with orthonormal u, v columns."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(a: np.ndarray) -> SvdResult:
    """Thin SVD with singular values sorted nonincreasing.

    Raises :class:`NumericalError` if the underlying iteration fails to
    converge rather than returning garbage.
    """
    a = np.asarray(a, dtype=np.float64)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {a.shape}") from exc
    return SvdResult(u=u, s=s, v=vh.T)


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative cutoff ``RCOND``."""
    a = np.asarray(a, dtype=np.float64)
    res = svd(a)
    cutoff = RCOND * (res.s[0] if res.s.size else 0.0)
    inv_s = np.where(res.s > cutoff, 1.0 / np.where(res.s > 0, res.s, 1.0), 0.0)
    return (res.v * inv_s) @ res.u.T


def solve_toeplitz(gamma: np.ndarray) -> np.ndarray:
    """Solve the symmetric Toeplitz Yule-Walker system for AR coefficients.

    ``gamma`` holds autocovariances ``gamma_0..gamma_p``; the returned vector
    ``alpha`` of length ``p`` solves ``R alpha = r`` with ``R[i, j] =
    gamma[|i - j|]`` and ``r[i] = gamma[i + 1]``, by an LU solve of the
    explicit ``p x p`` matrix. A singular system raises
    :class:`SingularSystemError`.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.ndim != 1 or gamma.size < 2:
        raise ValueError("need gamma_0..gamma_p with p >= 1")
    if not np.all(np.isfinite(gamma)):
        raise SingularSystemError("non-finite autocovariances")
    if gamma[0] <= 0:
        raise SingularSystemError(f"gamma_0 must be positive, got {gamma[0]}")
    lags = np.arange(gamma.size - 1)
    toeplitz = gamma[np.abs(lags[:, None] - lags[None, :])]
    try:
        alpha = np.linalg.solve(toeplitz, gamma[1:])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("singular Yule-Walker system") from exc
    if not np.all(np.isfinite(alpha)):
        raise SingularSystemError("Yule-Walker solve produced non-finite values")
    return alpha


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x = b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: a has {a.shape[0]}, b has {b.shape[0]}")
    try:
        x, _, _, _ = np.linalg.lstsq(a, b, rcond=RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("least-squares solve failed") from exc
    return x
