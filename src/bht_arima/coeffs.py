"""AR/MA coefficient estimation from a sequence of tensor slices.

Autoregressive coefficients come from the Yule-Walker equations applied to
inner-product autocovariances of centered slices, which reduces exactly to
the classical scalar estimator when slices are scalars. Moving-average
coefficients come from regressing lag-``p`` residual tensors on their own
lags (an innovations-by-regression approximation), solved in vectorized
least-squares form.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import SingularSystemError

__all__ = [
    "ArimaCoefficients",
    "autocovariance",
    "estimate_ar",
    "estimate_ma",
    "estimate_coefficients",
    "ar_is_stable",
]

# Residual sequences with norm below this (relative to the input sequence)
# are treated as degenerate; MA estimation then falls back to this constant.
MA_FALLBACK = 1e-3
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class ArimaCoefficients:
    """AR coefficients ``alpha`` (length p) and MA coefficients ``beta``
    (length q), with diagnostic flags for fallback paths."""

    alpha: np.ndarray
    beta: np.ndarray
    ar_fallback: bool = False
    ma_fallback: bool = False
    ar_stable: bool = field(default=True)


def _as_sequence(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim < 1 or g.shape[-1] < 1:
        raise ValueError("need a nonempty sequence (last axis = time)")
    return g


def autocovariance(g: np.ndarray, lag: int) -> float:
    """Inner-product autocovariance of centered slices at ``lag``.

    ``gamma_lag = (1 / (L - lag)) * sum_t <g_t - mean, g_{t+lag} - mean>``
    where the mean is the elementwise sequence mean. Equals the classical
    sample autocovariance when slices are scalars.
    """
    g = _as_sequence(g)
    n = g.shape[-1]
    if not 0 <= lag < n:
        raise ValueError(f"lag {lag} out of range for sequence of length {n}")
    return _autocovariances(g, (lag,))[0]


def _autocovariances(g: np.ndarray, lags: Iterable[int]) -> list[float]:
    """:func:`autocovariance` at each of ``lags``, centring ``g`` once."""
    centered = g - g.mean(axis=-1, keepdims=True)
    n = g.shape[-1]
    return [
        float(np.sum(centered[..., : n - lag] * centered[..., lag:])) / (n - lag)
        for lag in lags
    ]


def estimate_ar(g: np.ndarray, p: int) -> tuple[np.ndarray, bool]:
    """Yule-Walker AR estimate from a tensor-slice sequence.

    Returns ``(alpha, fallback)``. On a singular or degenerate system, or
    when the centred sequence's norm is at most ``1e-12`` times the
    sequence's own, the estimate falls back to the random-walk prior
    ``(1, 0, ..., 0)`` and the flag is set.
    """
    g = _as_sequence(g)
    if p < 0:
        raise ValueError(f"AR order must be >= 0, got {p}")
    if p == 0:
        return np.zeros(0), False
    if g.shape[-1] <= p:
        raise ValueError(f"sequence length {g.shape[-1]} must exceed p={p}")
    gamma = np.array(_autocovariances(g, range(p + 1)))
    fallback = np.zeros(p)
    fallback[0] = 1.0
    # Centred energy at the rounding level of the sequence's own is no
    # signal (a constant sequence that went through different but equal
    # arithmetic); Yule-Walker would fit the rounding noise.
    if gamma[0] * g.shape[-1] <= (_DEGENERATE_RTOL * np.linalg.norm(g)) ** 2:
        return fallback, True
    try:
        return linalg.solve_toeplitz(gamma), False
    except SingularSystemError:
        return fallback, True


def estimate_ma(g: np.ndarray, alpha: np.ndarray, q: int) -> tuple[np.ndarray, bool]:
    """MA estimate by regressing AR residual tensors on their own lags.

    Residuals ``r_t = g_t - sum_i alpha_i g_{t-i}`` are stacked into a
    vectorized regression of ``r_t`` on ``r_{t-1}..r_{t-q}``, whose normal
    equations are the inner products of residual slices. Returns
    ``(beta, fallback)``; near-zero residuals trigger the constant fallback
    ``MA_FALLBACK`` per coefficient so downstream error updates stay
    well-posed.
    """
    g = _as_sequence(g)
    alpha = np.asarray(alpha, dtype=np.float64)
    p = alpha.size
    if q < 0:
        raise ValueError(f"MA order must be >= 0, got {q}")
    if q == 0:
        return np.zeros(0), False
    n = g.shape[-1]
    if n <= p + q:
        raise ValueError(f"sequence length {n} must exceed p+q={p + q}")
    resid = g[..., p:].copy()
    for i in range(1, p + 1):
        resid -= alpha[i - 1] * g[..., p - i : n - i]
    if np.linalg.norm(resid) <= _DEGENERATE_RTOL * max(1.0, np.linalg.norm(g)):
        return np.full(q, MA_FALLBACK), True
    n_r = resid.shape[-1]
    rows = n_r - q
    design = np.empty((rows * int(np.prod(resid.shape[:-1])), q))
    for j in range(1, q + 1):
        design[:, j - 1] = resid[..., q - j : n_r - j].flatten(order="F")
    target = resid[..., q:].flatten(order="F")
    beta = linalg.lstsq(design, target)
    if not np.all(np.isfinite(beta)):
        return np.full(q, MA_FALLBACK), True
    return beta, False


def estimate_coefficients(g: np.ndarray, p: int, q: int) -> ArimaCoefficients:
    """Estimate AR then MA coefficients from one core-tensor sequence."""
    alpha, ar_fb = estimate_ar(g, p)
    beta, ma_fb = estimate_ma(g, alpha, q)
    return ArimaCoefficients(
        alpha=alpha,
        beta=beta,
        ar_fallback=ar_fb,
        ma_fallback=ma_fb,
        ar_stable=ar_is_stable(alpha),
    )


def ar_is_stable(alpha: np.ndarray) -> bool:
    """Whether all roots of ``1 - sum_i alpha_i z^i`` lie outside the unit
    circle. Diagnostic only; nothing in the pipeline enforces it."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size == 0 or not np.any(alpha):
        return True
    roots = np.roots(np.concatenate([-alpha[::-1], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0))
