"""Dense linear-algebra primitives used by the model updates.

Thin, contract-checked wrappers around LAPACK-backed numpy routines: thin
SVD, Moore-Penrose pseudo-inverse, minimum-norm least squares and the small
symmetric Toeplitz (Yule-Walker) solve; and ``householder_basis``, which
forms the leading columns of a Householder QR's orthogonal factor from the
reflectors that ``np.linalg.qr(a, mode="raw")`` returns, by two matrix
products and one small triangular inverse. Only numpy is needed. All
routines are deterministic for a fixed input.
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
    "householder_basis",
]

# Singular values below RCOND * s_max are treated as zero in pinv/lstsq.
RCOND = 1e-12
# Block size of householder_basis's triangular inverse.
_BLOCK = 32


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


def householder_basis(h: np.ndarray, tau: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` columns ``Q`` of the orthogonal factor of a QR, from
    the reflectors that ``h, tau = np.linalg.qr(a, mode="raw")`` returns.

    ``h.T`` is LAPACK's ``geqrf`` array: ``R`` on and above the diagonal,
    and below it the Householder vectors ``v_i``, whose entry ``i`` is an
    implicit 1. Their product ``H_1 ... H_k``, ``H_i = I - tau_i v_i
    v_i.T``, is ``I - V T V.T`` with ``T`` upper triangular and ``T^-1 =
    triu(V.T V, 1) + diag(1 / tau)`` (the compact WY form: Schreiber & Van
    Loan, *SIAM J. Sci. Stat. Comput.* 1989; its UT form: Joffrain et al.,
    *ACM TOMS* 2006). Later reflectors leave the first ``k`` columns of the
    identity ``E`` alone, so ``Q = E - V T V_1.T``, ``V_1`` the top ``k x k``
    block of ``V``: one Gram product, the ``k x k`` triangle ``T`` and one
    ``J x k`` product, where LAPACK's ``orgqr`` applies the reflectors one
    panel at a time. ``T`` is inverted by block columns, ``T[:j, j] =
    -T[:j, :j] T^-1[:j, j] T[j, j]`` with ``T[j, j]`` a small dense inverse,
    which keeps the work in matrix products; an LU solve with ``V_1.T`` as
    its right-hand sides takes as many flops, but in triangular solves that
    ran 2-3x slower on a 186 x 186 triangle. A reflector with ``tau_i =
    0`` is the identity; its column of ``V`` is zeroed and its diagonal
    entry of ``T^-1`` set to 1, so nothing divides by zero. ``Q`` equals
    ``orgqr``'s to rounding.
    """
    h = np.asarray(h, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if not 1 <= k <= tau.size:
        raise ValueError(f"k={k} not in [1, {tau.size}] reflectors")
    tau = tau[:k]
    identity = tau == 0.0
    diag = np.arange(k)
    # Only the top k rows hold R's entries.
    v = h.T[:, :k].copy()
    v[:k] = np.tril(v[:k], -1)
    v[diag, diag] = 1.0
    v[:, identity] = 0.0
    t_inv = np.triu(v.T @ v, 1)
    t_inv[diag, diag] = 1.0 / np.where(identity, 1.0, tau)
    t = np.zeros_like(t_inv)
    for lo in range(0, k, _BLOCK):
        j = slice(lo, lo + _BLOCK)
        t[j, j] = np.linalg.inv(t_inv[j, j])
        t[:lo, j] = -(t[:lo, :lo] @ t_inv[:lo, j]) @ t[j, j]
    q = v @ -(t @ v[:k].T)
    q[diag, diag] += 1.0
    return q
