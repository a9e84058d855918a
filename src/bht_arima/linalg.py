"""Dense linear-algebra primitives used by the model updates.

Thin, contract-checked wrappers around LAPACK-backed numpy routines: thin
SVD, Moore-Penrose pseudo-inverse and minimum-norm least squares, plus a
Levinson solver for the symmetric Toeplitz (Yule-Walker) system. Only numpy
is needed. All routines are deterministic for a fixed input.
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
    gamma[|i - j|]`` and ``r[i] = gamma[i + 1]``.

    A port of the Levinson recursion behind ``scipy.linalg.solve_toeplitz``
    (Alan Miller's ``toeplitz.f90``) that performs the same floating-point
    operations in the same order, so it matches scipy bit for bit. A zero
    pivot raises :class:`SingularSystemError`.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.ndim != 1 or gamma.size < 2:
        raise ValueError("need gamma_0..gamma_p with p >= 1")
    if not np.all(np.isfinite(gamma)):
        raise SingularSystemError("non-finite autocovariances")
    if gamma[0] <= 0:
        raise SingularSystemError(f"gamma_0 must be positive, got {gamma[0]}")
    n = gamma.size - 1
    # a: the first row reversed (without the diagonal), then the first
    # column; a[n - 1] = gamma_0 is the diagonal.
    a = np.concatenate((gamma[n - 1 : 0 : -1], gamma[:n])).tolist()
    b = gamma[1:].tolist()
    x = [0.0] * n
    g = [0.0] * n
    h = [0.0] * n
    x[0] = b[0] / a[n - 1]
    if n > 1:
        g[0] = a[n - 2] / a[n - 1]
        h[0] = a[n] / a[n - 1]
    for m in range(1, n):
        x_num = -b[m]
        x_den = -a[n - 1]
        for j in range(m):
            x_num = x_num + a[n + m - j - 1] * x[j]
            x_den = x_den + a[n + m - j - 1] * g[m - j - 1]
        if x_den == 0:
            raise SingularSystemError("singular Yule-Walker system")
        x[m] = x_num / x_den
        for j in range(m):
            x[j] = x[j] - x[m] * g[m - j - 1]
        if m == n - 1:
            break
        g_num = -a[n - m - 2]
        h_num = -a[n + m]
        g_den = -a[n - 1]
        for j in range(m):
            g_num = g_num + a[n + j - m - 1] * g[j]
            h_num = h_num + a[n + m - j - 1] * h[j]
            g_den = g_den + a[n + j - m - 1] * h[m - j - 1]
        if g_den == 0:
            raise SingularSystemError("singular Yule-Walker system")
        g[m] = g_num / g_den
        h[m] = h_num / x_den
        c1, c2 = g[m], h[m]
        k = m - 1
        for j in range((m + 1) // 2):
            gj, gk, hj, hk = g[j], g[k], h[j], h[k]
            g[j] = gj - c1 * hk
            g[k] = gk - c1 * hj
            h[j] = hj - c2 * gk
            h[k] = hk - c2 * gj
            k -= 1
    alpha = np.array(x)
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
